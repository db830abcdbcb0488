package train

import (
	"fmt"

	"coarse/internal/gpu"
	"coarse/internal/optim"
	"coarse/internal/parallel"
	"coarse/internal/sim"
)

// The training driver: each worker runs its pipeline stage's layer
// slice on a microbatched 1F1B schedule — warmup forwards, a steady
// forward/backward interleave, then the backward drain. On the
// data-parallel layout that is one microbatch through every layer:
// forward gated per layer on the strategy's latches, then backward,
// handing each gradient to the strategy as it is produced.
// Activations cross stage boundaries as tagged DMA transfers that open
// the receiver's per-microbatch latch; tensor-parallel groups
// rendezvous for per-layer activation all-reduces; expert-parallel MoE
// layers rendezvous for seeded top-k routed all-to-alls. Gradient
// synchronization stays with the strategy: once a layer's last
// microbatch backward retires, GradientReady fires and the strategy
// reduces over the plan's tree.

// pipeOp is one in-flight group rendezvous: members arrive, the last
// arrival launches the collective, completion resumes everyone.
type pipeOp struct {
	arrived int
	waiters []func()
}

// joinOp registers one member's arrival at a rendezvous point. The
// members-th arrival launches the collective; its completion resumes
// every registered waiter.
func (t *Trainer) joinOp(key [5]int, members int, launch func(done func()), resume func()) {
	op := t.pipeOps[key]
	if op == nil {
		op = &pipeOp{}
		t.pipeOps[key] = op
	}
	op.waiters = append(op.waiters, resume)
	op.arrived++
	if op.arrived == members {
		delete(t.pipeOps, key)
		ws := op.waiters
		launch(func() {
			for _, fn := range ws {
				fn()
			}
		})
	}
}

// Rendezvous phases disambiguating the (it, mb, layer) coordinate.
const (
	phaseFwdTP = iota
	phaseBwdTP
	phaseMoEDispatch    // forward token dispatch
	phaseMoECombine     // forward expert-output return
	phaseMoEBwdCombine  // backward of the combine (dispatch-direction)
	phaseMoEBwdDispatch // backward of the dispatch (combine-direction)
)

// pipeLatch returns the (worker, iteration, microbatch, slot) latch;
// slot 0 gates on the previous stage's activations, slot 1 on the next
// stage's boundary gradients.
func (t *Trainer) pipeLatch(w, it, mb, slot int) *Latch {
	return &t.pipeLatches[((w*t.cfg.Iterations+it)*t.plan.Micro+mb)*2+slot]
}

func (t *Trainer) tpComm(base int, members []int) *GroupComm {
	gc, ok := t.tpComms[base]
	if !ok {
		gc = newGroupComm(t.ctx, members, &t.stats.TPReduce, false)
		t.tpComms[base] = gc
	}
	return gc
}

func (t *Trainer) epComm(base int, members []int) *GroupComm {
	gc, ok := t.epComms[base]
	if !ok {
		gc = newGroupComm(t.ctx, members, nil, false)
		t.epComms[base] = gc
	}
	return gc
}

// pipeWorker drives one worker through every iteration. A worker runs
// one microbatch pass (forward or backward) at a time, so the pass's
// microbatch and continuation live here and the per-layer callbacks
// capture only the worker, a layer index and their timestamps. Layers
// that rendezvous with neither a TP nor an EP group call their
// continuations directly, so the data-parallel layout allocates
// nothing per layer beyond its latch wait and compute event.
type pipeWorker struct {
	t      *Trainer
	w      int
	g      *gpu.GPU
	c      parallel.Coord
	stage  []int // global layer indices of the worker's stage
	mbSize int
	warmup int // 1F1B warmup forwards
	track  string

	it               int
	fwdDone, bwdDone int    // microbatch passes started this iteration
	mb               int    // microbatch of the pass in flight
	done             func() // continuation of the pass in flight
	step, bwdNext    func() // cached method values
}

func newPipeWorker(t *Trainer, w int) *pipeWorker {
	p := t.plan
	c := p.Coords[w]
	r := &pipeWorker{
		t:      t,
		w:      w,
		g:      t.ctx.Workers[w],
		c:      c,
		stage:  p.Stages[c.PP],
		mbSize: t.cfg.Batch / p.Micro,
		warmup: min(p.Micro, p.PP-1-c.PP),
		track:  fmt.Sprintf("worker %d", w),
	}
	r.step = r.schedule
	r.bwdNext = func() { r.backward(r.step) }
	return r
}

// run starts iteration it.
func (r *pipeWorker) run(it int) {
	if it == r.t.cfg.Iterations {
		return
	}
	r.it = it
	r.fwdDone, r.bwdDone = 0, 0
	if r.t.plan.Micro > 1 {
		clear(r.t.gradCount[r.w])
	}
	r.step()
}

// schedule starts the next pass of the 1F1B schedule — warmup
// forwards, then forward/backward pairs, then the backward drain — or
// ends the iteration.
func (r *pipeWorker) schedule() {
	t := r.t
	micro := t.plan.Micro
	switch {
	case r.fwdDone < r.warmup:
		r.forward(r.step)
	case r.fwdDone < micro:
		r.forward(r.bwdNext)
	case r.bwdDone < micro:
		r.backward(r.step)
	default:
		now := t.ctx.Eng.Now()
		if now > t.iterEnd[r.it] {
			t.iterEnd[r.it] = now
		}
		t.workerDone[r.w] = r.it + 1
		r.run(r.it + 1)
	}
}

// stalled charges the wait since arrived as blocked time. A non-nil
// what builds the wait's trace label, called only when the worker
// actually waited under a recording trace.
func (r *pipeWorker) stalled(arrived sim.Time, what func() string) {
	now := r.t.ctx.Eng.Now()
	if stall := now - arrived; stall > 0 {
		r.t.blocked[r.w] += stall
		if tr := r.t.cfg.Trace; tr != nil && what != nil {
			tr.Span(r.track, "stall", what(), arrived, now)
		}
	}
}

// retired accounts a compute span of dur started at start that just
// finished (chaos may have paused it beyond dur).
func (r *pipeWorker) retired(verb string, l int, start, dur sim.Time) {
	t := r.t
	now := t.ctx.Eng.Now()
	t.compute[r.w] += dur
	t.chaos.NoteWorkerStall(now - start - dur)
	if tr := t.cfg.Trace; tr != nil {
		tr.Span(r.track, "compute", verb+" "+t.ctx.Layers()[l].Name, start, now)
	}
}

// rendezvous reports whether layer l meets its TP or EP group.
func (r *pipeWorker) rendezvous(l int) bool { return r.t.plan.TP > 1 || r.moeLayer(l) }

// moeLayer reports whether layer l exchanges tokens with its EP group.
func (r *pipeWorker) moeLayer(l int) bool {
	return r.t.plan.EP > 1 && r.t.ctx.Layers()[l].MoE != nil
}

// forward starts the next microbatch's forward pass, gated on the
// previous stage's activations past stage 0.
func (r *pipeWorker) forward(done func()) {
	r.mb, r.done = r.fwdDone, done
	r.fwdDone++
	if r.c.PP == 0 {
		r.fwdLayer(0)
		return
	}
	mb := r.mb
	arrived := r.t.ctx.Eng.Now()
	r.t.pipeLatch(r.w, r.it, mb, 0).Wait(func() {
		r.stalled(arrived, func() string { return fmt.Sprintf("wait acts mb%d", mb) })
		r.fwdLayer(0)
	})
}

// fwdLayer runs stage[idx]'s forward once its parameters are up to
// date; past the stage's last layer it ships the boundary activations
// and ends the pass.
func (r *pipeWorker) fwdLayer(idx int) {
	t := r.t
	ctx := t.ctx
	if idx == len(r.stage) {
		if next := t.plan.PPNext(r.w); next >= 0 {
			size := t.plan.BoundaryBytes(r.c.PP) * int64(r.mbSize)
			t.stats.PPActs += size
			lat := t.pipeLatch(next, r.it, r.mb, 0)
			ctx.CCI.DMACopyTagged(&t.actTags[r.w], r.g.Dev, ctx.Workers[next].Dev, size, lat.Open)
		}
		r.done()
		return
	}
	arrived := ctx.Eng.Now()
	t.latch(r.it, r.w, r.stage[idx]).Wait(func() { r.paramsReady(idx, arrived) })
}

// paramsReady runs once stage[idx]'s parameters are up to date.
func (r *pipeWorker) paramsReady(idx int, arrived sim.Time) {
	t := r.t
	ctx := t.ctx
	l := r.stage[idx]
	r.stalled(arrived, func() string { return "wait params " + ctx.Layers()[l].Name })
	if t.cfg.Numeric && r.it > 0 {
		// Apply the SGD step with the averaged gradient the strategy
		// left in the buffer.
		optim.SGD{LR: learningRate}.Step(ctx.Params[r.w][l].Data, ctx.Grads[r.w][l].Data)
	}
	if r.moeLayer(l) {
		r.moeStep(l, phaseMoEDispatch, func() { r.fwdCompute(idx) })
	} else {
		r.fwdCompute(idx)
	}
}

func (r *pipeWorker) fwdCompute(idx int) {
	t := r.t
	eng := t.ctx.Eng
	l := r.stage[idx]
	start := eng.Now()
	dur := r.g.LayerFwdTime(t.plan.LayerShard(l), r.mbSize)
	eng.At(t.chaos.AdvanceCompute(r.w, start, dur), func() {
		r.retired("fwd", l, start, dur)
		if !r.rendezvous(l) {
			r.fwdLayer(idx + 1)
			return
		}
		r.moeStep(l, phaseMoECombine, func() {
			r.tpStep(l, phaseFwdTP, func() { r.fwdLayer(idx + 1) })
		})
	})
}

// backward starts the next microbatch's backward pass, gated on the
// next stage's boundary gradients before the last stage.
func (r *pipeWorker) backward(done func()) {
	r.mb, r.done = r.bwdDone, done
	r.bwdDone++
	last := len(r.stage) - 1
	if r.c.PP == r.t.plan.PP-1 {
		r.bwdLayer(last)
		return
	}
	mb := r.mb
	arrived := r.t.ctx.Eng.Now()
	r.t.pipeLatch(r.w, r.it, mb, 1).Wait(func() {
		r.stalled(arrived, func() string { return fmt.Sprintf("wait grads mb%d", mb) })
		r.bwdLayer(last)
	})
}

// bwdLayer runs stage[idx]'s backward; below the stage's first layer it
// ships the boundary gradients and ends the pass.
func (r *pipeWorker) bwdLayer(idx int) {
	t := r.t
	ctx := t.ctx
	if idx < 0 {
		if prev := t.plan.PPPrev(r.w); prev >= 0 {
			size := t.plan.BoundaryBytes(r.c.PP-1) * int64(r.mbSize)
			t.stats.PPActs += size
			lat := t.pipeLatch(prev, r.it, r.mb, 1)
			ctx.CCI.DMACopyTagged(&t.gradTags[r.w], r.g.Dev, ctx.Workers[prev].Dev, size, lat.Open)
		}
		r.done()
		return
	}
	l := r.stage[idx]
	start := ctx.Eng.Now()
	dur := r.g.LayerBwdTime(t.plan.LayerShard(l), r.mbSize)
	ctx.Eng.At(t.chaos.AdvanceCompute(r.w, start, dur), func() {
		r.retired("bwd", l, start, dur)
		if !r.rendezvous(l) {
			r.produced(idx)
			return
		}
		r.moeStep(l, phaseMoEBwdCombine, func() {
			r.tpStep(l, phaseBwdTP, func() {
				r.moeStep(l, phaseMoEBwdDispatch, func() { r.produced(idx) })
			})
		})
	})
}

// produced hands stage[idx]'s gradient to the strategy once the layer's
// last microbatch backward has retired, then moves down the stage.
func (r *pipeWorker) produced(idx int) {
	t := r.t
	l := r.stage[idx]
	last := true
	if micro := t.plan.Micro; micro > 1 {
		t.gradCount[r.w][idx]++
		last = t.gradCount[r.w][idx] == micro
	}
	if last {
		if t.cfg.Numeric {
			t.fillGradient(r.it, r.w, l)
		}
		t.strat.GradientReady(r.it, r.w, l)
	}
	r.bwdLayer(idx - 1)
}

// tpStep rendezvouses the TP group for one layer's activation (or
// activation-gradient) all-reduce: the partial sums every
// tensor-parallel rank holds after its sharded matmul.
func (r *pipeWorker) tpStep(l, phase int, next func()) {
	t := r.t
	if t.plan.TP == 1 {
		next()
		return
	}
	members := t.plan.TPGroup(r.w)
	base := members[0]
	comm := t.tpComm(base, members)
	vol := t.ctx.Layers()[l].ActBytes * int64(r.mbSize)
	arrived := t.ctx.Eng.Now()
	t.joinOp([5]int{base, r.it, r.mb, l, phase}, len(members), func(done func()) {
		comm.AllReduceBytes(vol, done)
	}, func() {
		r.stalled(arrived, nil)
		next()
	})
}

// moeRoute is one expert layer's routing for one (group, iteration,
// microbatch): the dispatch matrix and its transpose, built once and
// shared by the exchange's moePhases all-to-alls.
type moeRoute struct {
	mat, tr [][]int64
	uses    int
}

// moePhases is the number of all-to-alls one routing serves: dispatch
// and combine forward, and their two backwards.
const moePhases = 4

// moeStep rendezvouses the EP group for one all-to-all exchange of an
// expert layer. The routing matrix is a pure function of (seed, it, mb,
// layer, group), so every member computes the same exchange; the first
// of the layer's phases to launch builds it and the last one drops it.
func (r *pipeWorker) moeStep(l, phase int, next func()) {
	if !r.moeLayer(l) {
		next()
		return
	}
	t := r.t
	plan := t.plan
	layer := t.ctx.Layers()[l]
	members := plan.EPGroup(r.w)
	base := members[0]
	comm := t.epComm(base, members)
	it, mb := r.it, r.mb
	arrived := t.ctx.Eng.Now()
	t.joinOp([5]int{base, it, mb, l, phase}, len(members), func(done func()) {
		key := [4]int{base, it, mb, l}
		rt := t.moeRoutes[key]
		if rt == nil {
			router := parallel.Router{
				Seed:    t.cfg.Seed,
				Experts: layer.MoE.Experts,
				TopK:    layer.MoE.TopK,
				Ranks:   plan.EP,
			}
			bpt := layer.ActBytes / int64(2*layer.MoE.Tokens)
			if bpt < 1 {
				bpt = 1
			}
			mat := router.Matrix(it, mb, l, base, layer.MoE.Tokens*r.mbSize, bpt)
			rt = &moeRoute{mat: mat, tr: parallel.Transpose(mat)}
			t.moeRoutes[key] = rt
		}
		if rt.uses++; rt.uses == moePhases {
			delete(t.moeRoutes, key)
		}
		mat := rt.mat
		if phase == phaseMoECombine || phase == phaseMoEBwdDispatch {
			mat = rt.tr
		}
		comm.AllToAll(mat, done)
	}, func() {
		r.stalled(arrived, nil)
		next()
	})
}
