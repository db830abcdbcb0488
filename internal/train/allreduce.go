package train

import (
	"coarse/internal/model"
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
	// trees holds per-(iteration, reduction-tree) bucketing state.
	trees map[[2]int]*arTreeState
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
	a.trees = make(map[[2]int]*arTreeState)
	return nil
}

// GradientReady implements Strategy. When every member of the layer's
// reduction tree has produced the gradient it joins the tree's current
// fusion bucket; full buckets (or the tree's final partial one) are
// allreduced over the tree's communicator.
func (a *AllReduce) GradientReady(it, w, layer int) {
	plan := a.ctx.Plan()
	gid := plan.GroupID(w, layer)
	key := [2]int{it, gid}
	st := a.trees[key]
	if st == nil {
		st = &arTreeState{
			arrived: make([]int, len(a.ctx.Layers())),
			pending: len(plan.GroupLayers(gid)),
		}
		a.trees[key] = st
	}
	st.arrived[layer]++
	if st.arrived[layer] < len(plan.GroupMembers(gid)) {
		return
	}
	st.pending--
	st.bucket = append(st.bucket, layer)
	st.bytes += plan.SyncBytes(layer)
	if st.bytes >= bucketBytes || st.pending == 0 {
		a.flush(it, gid, st)
	}
	if st.pending == 0 {
		delete(a.trees, key)
	}
}

func (a *AllReduce) flush(it, gid int, st *arTreeState) {
	layers := st.bucket
	bytes := st.bytes
	st.bucket = nil
	st.bytes = 0
	members := a.ctx.Plan().GroupMembers(gid)
	a.ctx.syncComm(gid, a.Hierarchical).AllReduceBytes(bytes, func() {
		if a.ctx.Cfg.Numeric {
			for _, l := range layers {
				a.ctx.AverageGrads(l)
			}
		}
		for _, l := range layers {
			for _, w := range members {
				a.ctx.MarkReady(it, w, l)
			}
		}
	})
}
