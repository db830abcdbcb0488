package train

import (
	"fmt"

	"coarse/internal/parallel"
)

// The sharded-layout driver: each worker runs its pipeline stage's
// layer slice on a microbatched 1F1B schedule — warmup forwards, a
// steady forward/backward interleave, then the backward drain.
// Activations cross stage boundaries as tagged DMA transfers that open
// the receiver's per-microbatch latch; tensor-parallel groups
// rendezvous for per-layer activation all-reduces; expert-parallel MoE
// layers rendezvous for seeded top-k routed all-to-alls. Gradient
// synchronization stays with the strategy: once a layer's last
// microbatch backward retires, GradientReady fires exactly as on the
// data-parallel path, and the strategy reduces over the plan's tree.

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
	micro := t.groups.plan.Micro
	return &t.pipeLatches[((w*t.cfg.Iterations+it)*micro+mb)*2+slot]
}

func (t *Trainer) tpComm(base int, members []int) *GroupComm {
	gc, ok := t.tpComms[base]
	if !ok {
		gc = newGroupComm(t.ctx, members, &t.stats.TPReduce)
		t.tpComms[base] = gc
	}
	return gc
}

func (t *Trainer) epComm(base int, members []int) *GroupComm {
	gc, ok := t.epComms[base]
	if !ok {
		gc = newGroupComm(t.ctx, members, nil)
		t.epComms[base] = gc
	}
	return gc
}

// runPipeWorker drives one worker's iteration under a non-trivial
// layout.
func (t *Trainer) runPipeWorker(w, it int) {
	if it == t.cfg.Iterations {
		return
	}
	ctx := t.ctx
	plan := t.groups.plan
	eng := ctx.Eng
	g := ctx.Workers[w]
	c := plan.Coords[w]
	micro := plan.Micro
	mbSize := t.cfg.Batch / micro
	stage := plan.Stages[c.PP]
	warmup := plan.PP - 1 - c.PP
	if warmup > micro {
		warmup = micro
	}
	track := fmt.Sprintf("worker %d", w)

	wait := func(l *Latch, what string, next func()) {
		arrived := eng.Now()
		l.Wait(func() {
			if stall := eng.Now() - arrived; stall > 0 {
				t.blocked[w] += stall
				t.cfg.Trace.Span(track, "stall", what, arrived, eng.Now())
			}
			next()
		})
	}

	// tpStep rendezvouses the TP group for one layer's activation (or
	// activation-gradient) all-reduce: the partial sums every
	// tensor-parallel rank holds after its sharded matmul.
	tpStep := func(l, mb, phase int, next func()) {
		if plan.TP == 1 {
			next()
			return
		}
		members := plan.TPGroup(w)
		base := members[0]
		comm := t.tpComm(base, members)
		vol := ctx.Layers()[l].ActBytes * int64(mbSize)
		arrived := eng.Now()
		t.joinOp([5]int{base, it, mb, l, phase}, len(members), func(done func()) {
			comm.AllReduceBytes(vol, done)
		}, func() {
			if stall := eng.Now() - arrived; stall > 0 {
				t.blocked[w] += stall
			}
			next()
		})
	}

	// moeStep rendezvouses the EP group for one all-to-all exchange of
	// an expert layer. The routing matrix is a pure function of (seed,
	// it, mb, layer, group), so every member computes the same exchange.
	moeStep := func(l, mb, phase int, next func()) {
		layer := ctx.Layers()[l]
		if layer.MoE == nil || plan.EP == 1 {
			next()
			return
		}
		members := plan.EPGroup(w)
		base := members[0]
		comm := t.epComm(base, members)
		arrived := eng.Now()
		t.joinOp([5]int{base, it, mb, l, phase}, len(members), func(done func()) {
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
			mat := router.Matrix(it, mb, l, base, layer.MoE.Tokens*mbSize, bpt)
			if phase == phaseMoECombine || phase == phaseMoEBwdDispatch {
				mat = parallel.Transpose(mat)
			}
			comm.AllToAll(mat, done)
		}, func() {
			if stall := eng.Now() - arrived; stall > 0 {
				t.blocked[w] += stall
			}
			next()
		})
	}

	fwdMB := func(mb int, done func()) {
		var runLayer func(idx int)
		runLayer = func(idx int) {
			if idx == len(stage) {
				if next := plan.PPNext(w); next >= 0 {
					size := plan.BoundaryBytes(c.PP) * int64(mbSize)
					t.stats.PPActs += size
					lat := t.pipeLatch(next, it, mb, 0)
					ctx.CCI.DMACopyTagged(&t.actTags[w], g.Dev, ctx.Workers[next].Dev, size, func() {
						lat.Open()
					})
				}
				done()
				return
			}
			l := stage[idx]
			layer := ctx.Layers()[l]
			wait(t.latch(it, w, l), "wait params "+layer.Name, func() {
				moeStep(l, mb, phaseMoEDispatch, func() {
					start := eng.Now()
					dur := g.LayerFwdTime(plan.LayerShard(l), mbSize)
					eng.At(t.chaos.AdvanceCompute(w, start, dur), func() {
						t.compute[w] += dur
						t.chaos.NoteWorkerStall(eng.Now() - start - dur)
						t.cfg.Trace.Span(track, "compute", "fwd "+layer.Name, start, eng.Now())
						moeStep(l, mb, phaseMoECombine, func() {
							tpStep(l, mb, phaseFwdTP, func() { runLayer(idx + 1) })
						})
					})
				})
			})
		}
		if c.PP > 0 {
			wait(t.pipeLatch(w, it, mb, 0), fmt.Sprintf("wait acts mb%d", mb), func() { runLayer(0) })
		} else {
			runLayer(0)
		}
	}

	bwdMB := func(mb int, done func()) {
		var runLayer func(idx int)
		runLayer = func(idx int) {
			if idx < 0 {
				if prev := plan.PPPrev(w); prev >= 0 {
					size := plan.BoundaryBytes(c.PP-1) * int64(mbSize)
					t.stats.PPActs += size
					lat := t.pipeLatch(prev, it, mb, 1)
					ctx.CCI.DMACopyTagged(&t.gradTags[w], g.Dev, ctx.Workers[prev].Dev, size, func() {
						lat.Open()
					})
				}
				done()
				return
			}
			l := stage[idx]
			layer := ctx.Layers()[l]
			start := eng.Now()
			dur := g.LayerBwdTime(plan.LayerShard(l), mbSize)
			eng.At(t.chaos.AdvanceCompute(w, start, dur), func() {
				t.compute[w] += dur
				t.chaos.NoteWorkerStall(eng.Now() - start - dur)
				t.cfg.Trace.Span(track, "compute", "bwd "+layer.Name, start, eng.Now())
				moeStep(l, mb, phaseMoEBwdCombine, func() {
					tpStep(l, mb, phaseBwdTP, func() {
						moeStep(l, mb, phaseMoEBwdDispatch, func() {
							t.gradCount[w][idx]++
							if t.gradCount[w][idx] == micro {
								t.strat.GradientReady(it, w, l)
							}
							runLayer(idx - 1)
						})
					})
				})
			})
		}
		if c.PP < plan.PP-1 {
			wait(t.pipeLatch(w, it, mb, 1), fmt.Sprintf("wait grads mb%d", mb), func() { runLayer(len(stage) - 1) })
		} else {
			runLayer(len(stage) - 1)
		}
	}

	for i := range t.gradCount[w] {
		t.gradCount[w][i] = 0
	}
	fwdDone, bwdDone := 0, 0
	var step func()
	step = func() {
		switch {
		case fwdDone < warmup:
			mb := fwdDone
			fwdDone++
			fwdMB(mb, step)
		case fwdDone < micro:
			mb := fwdDone
			fwdDone++
			fwdMB(mb, func() {
				mb2 := bwdDone
				bwdDone++
				bwdMB(mb2, step)
			})
		case bwdDone < micro:
			mb := bwdDone
			bwdDone++
			bwdMB(mb, step)
		default:
			if eng.Now() > t.iterEnd[it] {
				t.iterEnd[it] = eng.Now()
			}
			t.workerDone[w] = it + 1
			t.runPipeWorker(w, it+1)
		}
	}
	step()
}
