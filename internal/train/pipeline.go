package train

import (
	"fmt"
	"math/rand"

	"coarse/internal/gpu"
	"coarse/internal/parallel"
	"coarse/internal/sim"
)

// The training driver: each worker runs its pipeline stage's layer
// slice on a microbatched 1F1B schedule — warmup forwards, a steady
// forward/backward interleave, then the backward drain. On the
// data-parallel layout that is one microbatch through every layer:
// forward gated per layer on the strategy's latches, then backward,
// handing each gradient to the strategy as it is produced.
// Activations cross stage boundaries as DMA transfers that open
// the receiver's per-microbatch latch; tensor-parallel groups
// rendezvous for per-layer activation all-reduces; expert-parallel MoE
// layers rendezvous for seeded top-k routed all-to-alls. Gradient
// synchronization stays with the strategy: once a layer's last
// microbatch backward retires, GradientReady fires and the strategy
// reduces over the plan's tree.

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

// The rendezvous phases a layer step meets, in order: before a
// forward's compute, after it, and after a backward's compute. A phase
// of a kind the layer does not use (TP phases when TP is 1, MoE phases
// on a dense layer or without EP) is skipped.
var (
	fwdPrePhases  = []int{phaseMoEDispatch}
	fwdPostPhases = []int{phaseMoECombine, phaseFwdTP}
	bwdPostPhases = []int{phaseMoEBwdCombine, phaseBwdTP, phaseMoEBwdDispatch}
)

// rendezvousGroup is one tensor- or expert-parallel group's pipeline
// state: its communicator, the rendezvous still gathering members and,
// on an EP group, the routings its exchanges are using.
type rendezvousGroup struct {
	comm      *GroupComm
	gathering *pipeOp
	routes    []*moeRoute
}

// group returns the cached rendezvous group of a sorted member set in
// groups (keyed by its lowest member), building it on first use.
func (t *Trainer) group(groups map[int]*rendezvousGroup, members []int, stat *int64) *rendezvousGroup {
	g := groups[members[0]]
	if g == nil {
		g = &rendezvousGroup{comm: newGroupComm(t.ctx, members, stat, false)}
		groups[members[0]] = g
	}
	return g
}

// pipeKey is the coordinate of one rendezvous: the members of a group
// pass their rendezvous in the same order, so a group gathers at most
// one at a time.
type pipeKey struct{ it, mb, layer, phase int }

// pipeOp is one group rendezvous: members arrive, the last arrival
// launches the collective, and its completion resumes every member in
// arrival order. fire is bound once per object.
type pipeOp struct {
	t       *Trainer
	key     pipeKey
	waiters []*pipeWorker
	fire    func()
}

// join registers worker r's arrival at rendezvous key of group g; the
// members-th arrival launches the group's collective.
func (t *Trainer) join(g *rendezvousGroup, key pipeKey, r *pipeWorker) {
	op := g.gathering
	if op == nil {
		if op = t.pipeOps.Get(); op == nil {
			op = &pipeOp{t: t}
			op.fire = op.complete
		}
		op.key = key
		g.gathering = op
	} else if op.key != key {
		panic(fmt.Sprintf("train: worker %d at rendezvous %+v while its group gathers at %+v", r.w, key, op.key))
	}
	op.waiters = append(op.waiters, r)
	if len(op.waiters) < len(g.comm.members) {
		return
	}
	g.gathering = nil
	layer := t.ctx.Layers()[key.layer]
	if key.phase == phaseFwdTP || key.phase == phaseBwdTP {
		// The partial sums every tensor-parallel rank holds after its
		// sharded matmul.
		g.comm.AllReduceBytes(layer.ActBytes*int64(r.mbSize), op.fire)
		return
	}
	rt := t.route(g, key, r.mbSize)
	mat := rt.mat
	if key.phase == phaseMoECombine || key.phase == phaseMoEBwdDispatch {
		mat = rt.tr
	}
	g.comm.AllToAll(mat, op.fire)
	if rt.uses++; rt.uses == moePhases {
		t.dropRoute(g, rt)
	}
}

func (op *pipeOp) complete() {
	for _, r := range op.waiters {
		r.rejoin()
	}
	clear(op.waiters)
	op.waiters = op.waiters[:0]
	op.t.pipeOps.Put(op)
}

// moeRoute is one expert layer's routing for one (group, iteration,
// microbatch): the dispatch matrix and its transpose, built once and
// shared by the exchange's moePhases all-to-alls. The record and its
// matrices are recycled once the last of them has launched.
type moeRoute struct {
	it, mb, layer int
	mat, tr       [][]int64
	uses          int
}

// moePhases is the number of all-to-alls one routing serves: dispatch
// and combine forward, and their two backwards.
const moePhases = 4

// route returns the routing of the exchange at key in EP group g. The
// routing matrix is a pure function of (seed, it, mb, layer, group),
// so every member computes the same exchange; the first of the layer's
// phases to launch builds it into a recycled record, drawing from the
// trainer's one generator, which the router reseeds per source rank.
func (t *Trainer) route(g *rendezvousGroup, key pipeKey, mbSize int) *moeRoute {
	for _, rt := range g.routes {
		if rt.it == key.it && rt.mb == key.mb && rt.layer == key.layer {
			return rt
		}
	}
	ranks := t.plan.EP
	rt := t.routes.Get()
	if rt == nil {
		rt = &moeRoute{mat: make([][]int64, ranks), tr: make([][]int64, ranks)}
		for i := range rt.mat {
			rt.mat[i] = make([]int64, ranks)
			rt.tr[i] = make([]int64, ranks)
		}
	}
	if t.moeRand == nil {
		t.moeRand = rand.New(rand.NewSource(t.cfg.Seed))
	}
	layer := t.ctx.Layers()[key.layer]
	router := parallel.Router{
		Seed:    t.cfg.Seed,
		Experts: layer.MoE.Experts,
		TopK:    layer.MoE.TopK,
		Ranks:   ranks,
	}
	bpt := layer.ActBytes / int64(2*layer.MoE.Tokens)
	if bpt < 1 {
		bpt = 1
	}
	router.MatrixInto(rt.mat, t.moeRand, key.it, key.mb, key.layer, g.comm.members[0], layer.MoE.Tokens*mbSize, bpt)
	parallel.TransposeInto(rt.tr, rt.mat)
	rt.it, rt.mb, rt.layer, rt.uses = key.it, key.mb, key.layer, 0
	g.routes = append(g.routes, rt)
	return rt
}

// dropRoute recycles a routing whose last exchange has launched.
func (t *Trainer) dropRoute(g *rendezvousGroup, rt *moeRoute) {
	for i, x := range g.routes {
		if x == rt {
			last := len(g.routes) - 1
			g.routes[i] = g.routes[last]
			g.routes[last] = nil
			g.routes = g.routes[:last]
			break
		}
	}
	t.routes.Put(rt)
}

// latchOpen opens a latch when a boundary transfer lands; fire is
// bound once per object, and the record is recycled as it fires.
type latchOpen struct {
	t    *Trainer
	lat  *Latch
	fire func()
}

// opener returns a callback that opens lat.
func (t *Trainer) opener(lat *Latch) func() {
	op := t.opens.Get()
	if op == nil {
		op = &latchOpen{t: t}
		op.fire = op.open
	}
	op.lat = lat
	return op.fire
}

func (op *latchOpen) open() {
	lat := op.lat
	op.lat = nil
	op.t.opens.Put(op)
	lat.Open()
}

// pipeWorker drives one worker through every iteration. A worker runs
// one microbatch pass (forward or backward) at a time and, within it,
// one layer step at a time, so the pass's microbatch and continuation,
// the step's layer, its compute span and the rendezvous phases still
// ahead of it all live here. Its callbacks are bound once, so a worker
// allocates nothing per layer: a wait parks one of them on a latch or
// a rendezvous, and a compute schedules one.
type pipeWorker struct {
	t      *Trainer
	w      int
	g      *gpu.GPU
	c      parallel.Coord
	stage  []int // global layer indices of the worker's stage
	mbSize int
	warmup int    // 1F1B warmup forwards
	track  string // the worker's trace track; set only under a trace

	it               int
	fwdDone, bwdDone int    // microbatch passes started this iteration
	mb               int    // microbatch of the pass in flight
	done             func() // continuation of the pass in flight

	idx        int      // stage index of the layer step in flight
	arrived    sim.Time // when the worker began its current wait
	start, dur sim.Time // the compute span in flight
	phases     []int    // rendezvous phases still ahead of the step
	then       func()   // the step's continuation past them

	tp, ep *rendezvousGroup // resolved on first use

	// Cached method values.
	step, bwdNext                   func()
	actsIn, gradsIn, paramsIn       func()
	fwdCompute, fwdRetired, fwdNext func()
	bwdRetired, produced, rejoin    func()
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
	}
	if t.cfg.Trace != nil {
		r.track = fmt.Sprintf("worker %d", w)
	}
	r.step = r.schedule
	r.bwdNext = r.backwardNext
	r.actsIn = r.actsArrived
	r.gradsIn = r.gradsArrived
	r.paramsIn = r.paramsReady
	r.fwdCompute = r.forwardCompute
	r.fwdRetired = r.forwardRetired
	r.fwdNext = r.forwardNext
	r.bwdRetired = r.backwardRetired
	r.produced = r.gradientProduced
	r.rejoin = r.rendezvoused
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

func (r *pipeWorker) backwardNext() { r.backward(r.step) }

// The waits a worker stalls in; each but a rendezvous records a trace
// span.
const (
	waitRendezvous = iota
	waitActs
	waitGrads
	waitParams
)

// stalled charges the wait since r.arrived as blocked time, recording
// it as a span of the wait's kind when the worker actually waited
// under a recording trace.
func (r *pipeWorker) stalled(kind int) {
	now := r.t.ctx.Eng.Now()
	if stall := now - r.arrived; stall > 0 {
		r.t.blocked[r.w] += stall
		if tr := r.t.cfg.Trace; tr != nil && kind != waitRendezvous {
			tr.Span(r.track, "stall", r.waitLabel(kind), r.arrived, now)
		}
	}
}

func (r *pipeWorker) waitLabel(kind int) string {
	switch kind {
	case waitActs:
		return fmt.Sprintf("wait acts mb%d", r.mb)
	case waitGrads:
		return fmt.Sprintf("wait grads mb%d", r.mb)
	}
	return "wait params " + r.t.ctx.Layers()[r.stage[r.idx]].Name
}

// retired accounts the compute span of the step's layer that just
// finished (chaos may have paused it beyond r.dur).
func (r *pipeWorker) retired(verb string) {
	t := r.t
	now := t.ctx.Eng.Now()
	t.compute[r.w] += r.dur
	t.chaos.NoteWorkerStall(now - r.start - r.dur)
	if tr := t.cfg.Trace; tr != nil {
		tr.Span(r.track, "compute", verb+" "+t.ctx.Layers()[r.stage[r.idx]].Name, r.start, now)
	}
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
	r.arrived = r.t.ctx.Eng.Now()
	r.t.pipeLatch(r.w, r.it, r.mb, 0).Wait(r.actsIn)
}

func (r *pipeWorker) actsArrived() {
	r.stalled(waitActs)
	r.fwdLayer(0)
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
			ctx.CCI.DMACopy(r.g.Dev, ctx.Workers[next].Dev, size, t.opener(lat))
		}
		r.done()
		return
	}
	r.idx = idx
	r.arrived = ctx.Eng.Now()
	t.latch(r.it, r.w, r.stage[idx]).Wait(r.paramsIn)
}

// paramsReady runs once the step's parameters are up to date.
func (r *pipeWorker) paramsReady() {
	r.stalled(waitParams)
	r.meet(fwdPrePhases, r.fwdCompute)
}

func (r *pipeWorker) forwardCompute() {
	t := r.t
	eng := t.ctx.Eng
	r.start = eng.Now()
	r.dur = r.g.LayerFwdTime(t.plan.LayerShard(r.stage[r.idx]), r.mbSize)
	eng.At(t.chaos.AdvanceCompute(r.w, r.start, r.dur), r.fwdRetired)
}

func (r *pipeWorker) forwardRetired() {
	r.retired("fwd")
	r.meet(fwdPostPhases, r.fwdNext)
}

func (r *pipeWorker) forwardNext() { r.fwdLayer(r.idx + 1) }

// backward starts the next microbatch's backward pass, gated on the
// next stage's boundary gradients before the last stage.
func (r *pipeWorker) backward(done func()) {
	r.mb, r.done = r.bwdDone, done
	r.bwdDone++
	if r.c.PP == r.t.plan.PP-1 {
		r.bwdLayer(len(r.stage) - 1)
		return
	}
	r.arrived = r.t.ctx.Eng.Now()
	r.t.pipeLatch(r.w, r.it, r.mb, 1).Wait(r.gradsIn)
}

func (r *pipeWorker) gradsArrived() {
	r.stalled(waitGrads)
	r.bwdLayer(len(r.stage) - 1)
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
			ctx.CCI.DMACopy(r.g.Dev, ctx.Workers[prev].Dev, size, t.opener(lat))
		}
		r.done()
		return
	}
	r.idx = idx
	r.start = ctx.Eng.Now()
	r.dur = r.g.LayerBwdTime(t.plan.LayerShard(r.stage[idx]), r.mbSize)
	ctx.Eng.At(t.chaos.AdvanceCompute(r.w, r.start, r.dur), r.bwdRetired)
}

func (r *pipeWorker) backwardRetired() {
	r.retired("bwd")
	r.meet(bwdPostPhases, r.produced)
}

// gradientProduced hands the step's gradient to the strategy once the
// layer's last microbatch backward has retired, then moves down the
// stage.
func (r *pipeWorker) gradientProduced() {
	t := r.t
	idx := r.idx
	l := r.stage[idx]
	last := true
	if micro := t.plan.Micro; micro > 1 {
		t.gradCount[r.w][idx]++
		last = t.gradCount[r.w][idx] == micro
	}
	if last {
		t.strat.GradientReady(r.it, r.w, l)
	}
	r.bwdLayer(idx - 1)
}

// meet passes the step's rendezvous phases in order, then runs then.
func (r *pipeWorker) meet(phases []int, then func()) {
	r.phases, r.then = phases, then
	r.nextPhase()
}

// nextPhase joins the next phase the step's layer takes part in, or
// runs the step's continuation once none is left.
func (r *pipeWorker) nextPhase() {
	for len(r.phases) > 0 {
		phase := r.phases[0]
		r.phases = r.phases[1:]
		if g := r.groupFor(phase); g != nil {
			r.arrived = r.t.ctx.Eng.Now()
			r.t.join(g, pipeKey{r.it, r.mb, r.stage[r.idx], phase}, r)
			return
		}
	}
	r.then()
}

// rendezvoused resumes the worker once its group's collective is done.
func (r *pipeWorker) rendezvoused() {
	r.stalled(waitRendezvous)
	r.nextPhase()
}

// groupFor returns the group the step's layer meets in a phase:
// the TP group for a TP phase when TP > 1 (its activation all-reduce),
// the EP group for a MoE phase of an expert layer (its all-to-all), or
// nil when the layer skips the phase.
func (r *pipeWorker) groupFor(phase int) *rendezvousGroup {
	t := r.t
	if phase == phaseFwdTP || phase == phaseBwdTP {
		if t.plan.TP == 1 {
			return nil
		}
		if r.tp == nil {
			r.tp = t.group(t.tpGroups, t.plan.TPGroup(r.w), &t.stats.TPReduce)
		}
		return r.tp
	}
	if t.plan.EP == 1 || t.ctx.Layers()[r.stage[r.idx]].MoE == nil {
		return nil
	}
	if r.ep == nil {
		r.ep = t.group(t.epGroups, t.plan.EPGroup(r.w), nil)
	}
	return r.ep
}
