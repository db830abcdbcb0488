package train

import (
	"coarse/internal/model"
	"coarse/internal/sim"
)

// AllReduce is the decentralized baseline (paper Section II-B): an
// NCCL-style ring allreduce among the worker GPUs, with gradients fused
// into fixed-size buckets the way DL frameworks batch small tensors.
// Its performance is bounded by the lowest device-to-device bandwidth
// on the ring — the weakness the paper quotes ("as low as 34%
// utilization on NVIDIA DGX-1").
type AllReduce struct {
	// Hierarchical makes every reduction tree run the two-level
	// collective (intra-node rings, a cross-node leader ring, then an
	// intra-node broadcast) instead of the planner's choice — on the
	// data-parallel layout, instead of one flat ring crossing the
	// datacenter network every round. An extension beyond the paper's
	// flat-ring baseline.
	Hierarchical bool

	ctx *Ctx
	// trees holds each reduction tree's bucketing state, indexed by
	// tree id and built on first use. A tree's iteration it+1 cannot
	// produce a gradient before its iteration it has flushed every
	// bucket, so one state per tree serves every iteration.
	trees   []*arTreeState
	flushes *sim.FreeList[arFlush]
}

// arTreeState buckets one reduction tree's layers within an iteration.
type arTreeState struct {
	arrived []int // per layer, tree members that produced the gradient
	bucket  []int // layers accumulated into the pending bucket
	bytes   int64
	pending int // layers of the tree not yet fully arrived
}

// bucketBytes is the framework-typical 25 MB gradient-fusion
// threshold: a bucket launches when it exceeds this size or the
// backward pass ends.
const bucketBytes int64 = 25 << 20

// NewAllReduce returns the baseline.
func NewAllReduce() *AllReduce {
	return &AllReduce{}
}

// Name implements Strategy.
func (a *AllReduce) Name() string { return "AllReduce" }

// WorkerStateBytes implements Strategy: parameters, gradients, both
// Adam moments and the fusion buffer all live on the GPU — the memory
// pressure that caps the batch size in Figure 16e.
func (a *AllReduce) WorkerStateBytes(m *model.Model) int64 {
	return 4*m.ParamBytes() + bucketBytes
}

// Setup implements Strategy. The communicators are built lazily, one
// per reduction tree.
func (a *AllReduce) Setup(ctx *Ctx) error {
	a.ctx = ctx
	a.trees = make([]*arTreeState, len(ctx.Plan().Groups()))
	a.flushes = sim.NewFreeList[arFlush](ctx.Eng)
	return nil
}

// GradientReady implements Strategy. When every member of the layer's
// reduction tree has produced the gradient it joins the tree's current
// fusion bucket; full buckets (or the tree's final partial one) are
// allreduced over the tree's communicator.
func (a *AllReduce) GradientReady(it, w, layer int) {
	plan := a.ctx.Plan()
	gid := plan.GroupID(w, layer)
	st := a.trees[gid]
	if st == nil {
		st = &arTreeState{arrived: make([]int, len(a.ctx.Layers()))}
		a.trees[gid] = st
	}
	if st.pending == 0 {
		// The tree's first gradient of the iteration.
		st.pending = len(plan.GroupLayers(gid))
	}
	st.arrived[layer]++
	if st.arrived[layer] < len(plan.GroupMembers(gid)) {
		return
	}
	st.arrived[layer] = 0
	st.pending--
	st.bucket = append(st.bucket, layer)
	st.bytes += plan.SyncBytes(layer)
	if st.bytes >= bucketBytes || st.pending == 0 {
		a.flush(it, gid, st)
	}
}

// flush allreduces the tree's pending bucket.
func (a *AllReduce) flush(it, gid int, st *arTreeState) {
	f := a.flushes.Get()
	if f == nil {
		f = &arFlush{a: a}
		f.fire = f.reduced
	}
	f.it, f.gid = it, gid
	f.layers = append(f.layers[:0], st.bucket...)
	bytes := st.bytes
	st.bucket = st.bucket[:0]
	st.bytes = 0
	a.ctx.syncComm(gid, a.Hierarchical).AllReduceBytes(bytes, f.fire)
}

// arFlush is one bucket's reduction in flight; fire is bound once per
// object, and the record is recycled as it fires.
type arFlush struct {
	a       *AllReduce
	it, gid int
	layers  []int
	fire    func()
}

func (f *arFlush) reduced() {
	a := f.a
	ctx := a.ctx
	members := ctx.Plan().GroupMembers(f.gid)
	for _, l := range f.layers {
		for _, w := range members {
			ctx.MarkReady(f.it, w, l)
		}
	}
	a.flushes.Put(f)
}
