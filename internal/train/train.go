// Package train implements the training engine: the iteration loop
// (one driver for every parallelism layout), the overlap of
// backward-pass gradient production with parameter synchronization, and
// the measurements the paper's Figures 16 and 17 report (iteration time
// and blocked communication time).
//
// The trainer drives one schedule per worker GPU. An iteration's forward
// pass consumes layers in order, and each layer's forward is gated on a
// latch that the synchronization strategy opens once that layer's
// parameters are up to date. Backward runs in reverse layer order,
// handing every produced gradient to the strategy at its production
// time — the paper's premise that deep layers' gradients appear early
// and shallow layers' gradients appear last yet are needed first by the
// next forward pass (Section III-F).
//
// Blocked communication time is measured exactly as the stall the
// forward pass experiences waiting on latches; compute time is what the
// GPU roofline charges. A strategy that overlaps all synchronization
// under compute reports zero blocked time.
package train

import (
	"fmt"
	"math/rand"

	"coarse/internal/cci"
	"coarse/internal/chaos"
	"coarse/internal/fabric"
	"coarse/internal/gpu"
	"coarse/internal/memdev"
	"coarse/internal/model"
	"coarse/internal/parallel"
	"coarse/internal/sim"
	"coarse/internal/telemetry"
	"coarse/internal/topology"
	"coarse/internal/trace"
)

// Latch is a one-shot condition variable on the simulation engine.
// The trainer's latches each have one waiter, the worker that owns
// them, so a latch holds a single callback: a worker's callbacks are
// bound once, and parking one allocates nothing. Further waiters chain
// behind it in registration order.
type Latch struct {
	open   bool
	iter   int32 // the iteration a trainer's ring slot serves (see Trainer.latch)
	waiter func()
}

// Wait runs fn once the latch opens (immediately when already open).
func (l *Latch) Wait(fn func()) {
	switch {
	case l.open:
		fn()
	case l.waiter == nil:
		l.waiter = fn
	default:
		first := l.waiter
		l.waiter = func() { first(); fn() }
	}
}

// Open releases the latch, running all waiters. Idempotent.
func (l *Latch) Open() {
	if l.open {
		return
	}
	l.open = true
	if fn := l.waiter; fn != nil {
		l.waiter = nil
		fn()
	}
}

// IsOpen reports whether the latch has been opened.
func (l *Latch) IsOpen() bool { return l.open }

// Config describes one training run. Figures every run shares, such as
// the activation-memory overhead, are package constants rather than
// fields.
type Config struct {
	Spec       topology.Spec
	Model      *model.Model
	Batch      int
	Iterations int
	CCIParams  cci.Params
	MemDev     memdev.Config
	// ComputeJitter spreads per-worker compute speed: worker w runs
	// (1 + ComputeJitter*w/(W-1))x slower than worker 0. It models the
	// *permanent* skew side of the stragglers that make synchronous
	// communication block fast workers (paper Section II-B); zero
	// disables it. Transient faults — link flaps, CCI brownouts,
	// workers going silent for a window — are the Chaos field's job
	// (internal/chaos); the two compose freely.
	ComputeJitter float64
	// Chaos, when non-nil, compiles into a deterministic fault plan
	// (using Seed) injected during the run: link degradation windows,
	// CCI port brownouts, and worker stalls. A spec that compiles to
	// zero faults leaves every output byte identical to Chaos == nil.
	// See internal/chaos for the fault model and determinism contract.
	Chaos *chaos.Spec
	// Trace, when non-nil, records per-worker forward/backward/stall
	// spans for chrome://tracing inspection.
	Trace *trace.Recorder
	// Telemetry, when non-nil, receives every layer's metrics: fabric
	// link gauges, CCI protocol counters, and per-worker running totals.
	// The trainer drives a periodic Sampler over the registry during Run
	// and exposes the resulting dump via Trainer.TelemetryDump. Sampling
	// runs at telemetry.DefaultSamplePeriod, up to
	// telemetry.DefaultMaxSamples per series, on daemon events only, so
	// enabling it changes neither the event fingerprint nor any timing.
	Telemetry *telemetry.Registry
	// TelemetryHotPath additionally registers the simulator's own
	// hot-path efficiency counters (reshare passes vs. coalesced,
	// completion deadlines rescheduled vs. skipped, event-queue tombstones and
	// compactions). Off by default: these series describe the engine,
	// not the simulated system, and registering them changes telemetry
	// dump bytes.
	TelemetryHotPath bool
	// OnStart, when non-nil, runs after strategy setup and before the
	// first iteration; tests and experiments use it to schedule runtime
	// perturbations (link degradation, etc.) on the engine.
	OnStart func(*Ctx)
	// Layout shards the model across the workers: pipeline stages (PP)
	// driven on a microbatched 1F1B schedule, tensor-parallel splits
	// (TP) with per-layer activation all-reduces inside the TP group,
	// and expert-parallel MoE layers (EP) with seeded top-k token
	// routing over all-to-all exchanges; whatever factor of the worker
	// count the layout leaves over is data-parallel. The zero value (or
	// any explicitly trivial layout) is pure data parallelism: one
	// microbatch, and one reduction tree of every worker per layer,
	// reduced over the paper's flat worker ring. Every layout runs the
	// same driver and scopes each strategy's gradient synchronization
	// to the plan's per-layer reduction trees. See internal/parallel.
	Layout parallel.Layout
	// FlatCollectives forces the collective planner to a flat ring for
	// every communicator — the topology-blind baseline the parallelism
	// ordering experiment compares the planner's choices against.
	// Data-parallel layouts always reduce over a flat ring.
	FlatCollectives bool
	Seed            int64
}

// frameworkActOverhead multiplies activation memory to account for
// framework allocator slack and non-persistent workspaces; TF2-era
// training uses roughly 2x the analytic activation volume.
const frameworkActOverhead = 2.0

// DefaultConfig fills in the standard evaluation constants.
func DefaultConfig(spec topology.Spec, m *model.Model, batch, iterations int) Config {
	return Config{
		Spec:       spec,
		Model:      m,
		Batch:      batch,
		Iterations: iterations,
		CCIParams:  cci.DefaultParams(),
		MemDev:     memdev.DefaultConfig(),
		Seed:       1,
	}
}

// Ctx is the environment a strategy operates in.
type Ctx struct {
	Cfg     Config
	Eng     *sim.Engine
	Machine *topology.Machine
	CCI     *cci.Fabric
	Workers []*gpu.GPU

	trainer *Trainer
	hops    *sim.FreeList[hop] // recycled collective hop records (comm.go)
}

// NumWorkers returns the worker count.
func (c *Ctx) NumWorkers() int { return len(c.Workers) }

// Layers returns the model's layer list.
func (c *Ctx) Layers() []model.Layer { return c.Cfg.Model.Layers }

// MarkReady signals that worker w's parameters for layer are up to date
// with iteration it's gradients; it opens the latch gating that layer's
// forward pass in iteration it+1.
func (c *Ctx) MarkReady(it, w, layer int) {
	c.trainer.markReady(it, w, layer)
}

// ChaosWake returns the earliest instant at or after t when every
// listed worker is awake (outside all of its chaos stall windows). The
// fixed-point loop matters when workers' windows chain: waking past
// one worker's window can land inside another's. Identity without
// chaos.
func (c *Ctx) ChaosWake(t sim.Time, workers ...int) sim.Time {
	inj := c.trainer.chaos
	if inj == nil {
		return t
	}
	for {
		t2 := t
		for _, w := range workers {
			t2 = inj.WakeTime(w, t2)
		}
		if t2 == t {
			return t
		}
		t = t2
	}
}

// ChaosHold is ChaosWake plus stall attribution: the hold is recorded
// as synchronization time deferred on silent workers. Strategies use
// it to push a completion time past a silent participant's window —
// e.g. a PS port transaction that cannot retire until the worker's
// cache agent responds.
func (c *Ctx) ChaosHold(t sim.Time, workers ...int) sim.Time {
	wake := c.ChaosWake(t, workers...)
	c.trainer.chaos.NoteSyncDeferred(wake - t)
	return wake
}

// ChaosService returns the completion time of `work` service time
// started at `start` on behalf of worker w, pausing while the worker
// is chaos-silenced: a coherent transaction makes no progress while
// the worker's cache agent cannot respond. The pause beyond plain
// start+work is attributed as deferred synchronization. Identity
// without chaos.
func (c *Ctx) ChaosService(w int, start, work sim.Time) sim.Time {
	inj := c.trainer.chaos
	if inj == nil {
		return start + work
	}
	end := inj.AdvanceCompute(w, start, work)
	inj.NoteSyncDeferred(end - start - work)
	return end
}

// RunAwake runs fn once every listed worker is awake: inline when none
// is silent now (the no-chaos fast path is exactly a direct call),
// otherwise at their common wake time.
func (c *Ctx) RunAwake(fn func(), workers ...int) {
	now := c.Eng.Now()
	wake := c.ChaosHold(now, workers...)
	if wake == now {
		fn()
		return
	}
	c.Eng.At(wake, fn)
}

// Strategy synchronizes gradients across workers.
type Strategy interface {
	// Name labels the strategy in reports ("COARSE", "AllReduce", ...).
	Name() string
	// WorkerStateBytes is the persistent per-GPU training state beyond
	// activations: parameters, gradients, optimizer state kept on-GPU,
	// fusion buffers. It decides batch-size feasibility (Figure 16e).
	WorkerStateBytes(m *model.Model) int64
	// Setup runs once before training with an idle engine; strategies
	// run offline profiling here.
	Setup(ctx *Ctx) error
	// GradientReady is invoked at the virtual time worker w finishes
	// layer's backward in iteration it. The strategy must eventually
	// call ctx.MarkReady(it, w, layer) for every worker.
	GradientReady(it, w, layer int)
}

// LinkUtil is one link's mean utilization over a run (average of both
// directions).
type LinkUtil struct {
	Link string  `json:"link"`
	Util float64 `json:"util"`
}

// TierUtil is one topology tier's mean utilization over a run (mean
// over the tier's links, both directions).
type TierUtil struct {
	Tier string  `json:"tier"`
	Util float64 `json:"util"`
}

// RunMetrics is the structured, JSON-serializable measurement block of
// a training run: every quantity the evaluation plots, as numbers
// rather than pre-rendered text. Times marshal as virtual nanoseconds.
type RunMetrics struct {
	TotalTime sim.Time `json:"total_time_ns"`
	// IterTime is the steady-state iteration time: mean over iterations
	// after the first.
	IterTime sim.Time `json:"iter_time_ns"`
	// ComputeTime is the pure roofline fwd+bwd time per iteration.
	ComputeTime sim.Time `json:"compute_time_ns"`
	// BlockedComm is the mean per-iteration, per-worker stall waiting on
	// parameter synchronization — the Figure 17 metric.
	BlockedComm sim.Time `json:"blocked_comm_ns"`
	// GPUUtil is ComputeTime / IterTime.
	GPUUtil float64 `json:"gpu_util"`
	// EdgeBusUtil is the mean utilization of the worker GPUs' serial-bus
	// edge links over the run — the "interconnection bandwidth
	// utilization" the paper's abstract claims COARSE improves.
	EdgeBusUtil float64 `json:"edge_bus_util"`
	// CCIBusUtil is the mean utilization of the memory devices' CCI ring
	// links.
	CCIBusUtil float64 `json:"cci_bus_util"`
	// Events counts discrete-event dispatches — a determinism-sensitive
	// fingerprint of the whole simulation (two runs of the same spec
	// must dispatch exactly the same number of events).
	Events uint64 `json:"events"`
	// LinkUtils lists per-link utilization for the worker edge links and
	// the CCI ring links, in topology creation order.
	LinkUtils []LinkUtil `json:"link_utils,omitempty"`
	// TierUtils lists mean utilization per topology tier (edge outward
	// to spine, empty tiers omitted) — the scale experiments' per-tier
	// saturation view.
	TierUtils []TierUtil `json:"tier_utils,omitempty"`
	// ChaosFaults counts the fault windows the chaos injector opened
	// during the run; zero (and omitted from JSON) without chaos.
	ChaosFaults uint64 `json:"chaos_faults,omitempty"`
	// ChaosStall is the total virtual time attributed to injected
	// faults: compute paused by worker stalls plus synchronization
	// deferred on silent workers.
	ChaosStall sim.Time `json:"chaos_stall_ns,omitempty"`
}

// Result summarizes a run: identifying labels plus structured metrics.
type Result struct {
	Strategy   string `json:"strategy"`
	Machine    string `json:"machine"`
	Model      string `json:"model"`
	Batch      int    `json:"batch"`
	Workers    int    `json:"workers"`
	Iterations int    `json:"iterations"`
	// Layout is the effective parallelism layout ("dp32-pp4-tp1-ep1")
	// for non-trivial layouts; empty (and omitted from JSON) on
	// data-parallel runs.
	Layout string `json:"layout,omitempty"`

	RunMetrics
}

// Throughput returns samples/sec across all workers.
func (r Result) Throughput() float64 {
	if r.IterTime <= 0 {
		return 0
	}
	return float64(r.Batch*r.Workers) / r.IterTime.ToSeconds()
}

// Trainer runs one configuration with one strategy.
type Trainer struct {
	cfg   Config
	strat Strategy
	ctx   *Ctx

	// latches is a dense (worker, iteration mod 2, layer) ring; workers
	// own disjoint contiguous segments (see latch).
	latches []Latch

	blocked    []sim.Time // per worker, total forward stall
	compute    []sim.Time // per worker, total roofline busy time
	iterEnd    []sim.Time // completion time per iteration (max over workers)
	workerDone []int      // iterations completed per worker

	// chaos executes the compiled fault plan; nil (inert) when
	// Cfg.Chaos is nil or compiles to nothing observable.
	chaos *chaos.Injector

	// plan is the bound parallelism plan (the single all-worker tree on
	// data-parallel layouts). Beside it: the communication totals, the
	// communicator and rendezvous-group caches, the free lists of the
	// pipeline's rendezvous, routing and boundary-latch records, the
	// pipeline's per-(worker, iteration, microbatch) boundary latches
	// (PP > 1 only), and the per-layer microbatch counts (Micro > 1
	// only).
	plan        *parallel.Plan
	stats       CommStats
	syncComms   map[int]*GroupComm
	tpGroups    map[int]*rendezvousGroup // keyed by lowest member
	epGroups    map[int]*rendezvousGroup
	pipeOps     *sim.FreeList[pipeOp]
	routes      *sim.FreeList[moeRoute]
	opens       *sim.FreeList[latchOpen]
	moeRand     *rand.Rand // MoE routing's generator, built on first use
	pipeLatches []Latch
	gradCount   [][]int // per worker, per stage-local layer, microbatches done

	dump *telemetry.Dump // built by Run when Cfg.Telemetry is set
}

// New builds a trainer, its machine and its strategy context. It fails
// when the model replica does not fit worker GPU memory — the OOM that
// forces AllReduce down to batch 2 in Figure 16e.
func New(cfg Config, strat Strategy) (*Trainer, error) {
	if cfg.Iterations < 1 || cfg.Batch < 1 {
		return nil, fmt.Errorf("train: iterations %d, batch %d", cfg.Iterations, cfg.Batch)
	}
	eng := sim.NewEngine()
	machine := topology.Build(eng, cfg.Spec)
	cciFabric := cci.NewFabric(machine.Topology, cfg.CCIParams)

	ctx := &Ctx{Cfg: cfg, Eng: eng, Machine: machine, CCI: cciFabric, hops: sim.NewFreeList[hop](eng)}
	for i, w := range machine.Workers {
		g := gpu.New(w, cfg.Spec.GPU)
		if cfg.ComputeJitter > 0 && len(machine.Workers) > 1 {
			slowdown := 1 + cfg.ComputeJitter*float64(i)/float64(len(machine.Workers)-1)
			g.Efficiency /= slowdown
		}
		ctx.Workers = append(ctx.Workers, g)
	}
	if cfg.Layout.Trivial() && cfg.Layout.Micro > 1 {
		return nil, fmt.Errorf("train: %d microbatches on a data-parallel layout; microbatching needs pipeline, tensor or expert parallelism",
			cfg.Layout.Micro)
	}
	plan, err := parallel.NewPlan(cfg.Layout, len(machine.Workers), cfg.Model)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	if cfg.Batch%plan.Micro != 0 {
		return nil, fmt.Errorf("train: batch %d does not split into %d microbatches", cfg.Batch, plan.Micro)
	}
	// Memory feasibility: persistent strategy state + activations. Each
	// worker holds its stage's sharded layers (the whole model on the
	// data-parallel layout), with 1F1B keeping at most min(micro,
	// PP-stage) microbatches of activations in flight.
	mbSize := cfg.Batch / plan.Micro
	stageModels := make([]*model.Model, plan.PP)
	for w, g := range ctx.Workers {
		s := plan.Coords[w].PP
		if stageModels[s] == nil {
			stageModels[s] = plan.WorkerModel(w)
		}
		wm := stageModels[s]
		inflight := min(plan.Micro, plan.PP-s)
		// Saturated, not wrapped: a batch or model too large for any
		// memory must fail the fit below.
		acts := int64(min(float64(wm.ActBytes())*float64(mbSize*inflight)*frameworkActOverhead, 1<<62))
		if err := g.Alloc(strat.WorkerStateBytes(wm) + acts); err != nil {
			if cfg.Layout.Trivial() {
				return nil, fmt.Errorf("%s replica (batch %d) does not fit: %w", cfg.Model.Name, cfg.Batch, err)
			}
			return nil, fmt.Errorf("%s shard (batch %d, %s) does not fit on worker %d: %w",
				cfg.Model.Name, cfg.Batch, plan.Label(), w, err)
		}
	}
	tr := &Trainer{
		cfg:        cfg,
		strat:      strat,
		ctx:        ctx,
		latches:    make([]Latch, len(ctx.Workers)*2*len(cfg.Model.Layers)),
		blocked:    make([]sim.Time, len(ctx.Workers)),
		compute:    make([]sim.Time, len(ctx.Workers)),
		iterEnd:    make([]sim.Time, cfg.Iterations),
		workerDone: make([]int, len(ctx.Workers)),
		plan:       plan,
		syncComms:  make(map[int]*GroupComm),
		tpGroups:   make(map[int]*rendezvousGroup),
		epGroups:   make(map[int]*rendezvousGroup),
		pipeOps:    sim.NewFreeList[pipeOp](eng),
		routes:     sim.NewFreeList[moeRoute](eng),
		opens:      sim.NewFreeList[latchOpen](eng),
	}
	if plan.PP > 1 {
		tr.pipeLatches = make([]Latch, len(ctx.Workers)*cfg.Iterations*plan.Micro*2)
	}
	if plan.Micro > 1 {
		tr.gradCount = make([][]int, len(ctx.Workers))
		for w := range tr.gradCount {
			tr.gradCount[w] = make([]int, len(plan.Stages[plan.Coords[w].PP]))
		}
	}
	if cfg.Chaos != nil {
		faults := cfg.Chaos.Compile(cfg.Seed, chaos.EnvOf(machine))
		if err := faults.Validate(); err != nil {
			return nil, fmt.Errorf("train: %w", err)
		}
		tr.chaos = chaos.NewInjector(faults, machine)
	}
	if cfg.Telemetry != nil {
		tr.registerTelemetry()
	}
	ctx.trainer = tr
	return tr, nil
}

// Ctx exposes the strategy context (tests and the facade use it).
func (t *Trainer) Ctx() *Ctx { return t.ctx }

// TelemetryDump returns the time-series dump built by Run, or nil when
// Cfg.Telemetry was not set.
func (t *Trainer) TelemetryDump() *telemetry.Dump { return t.dump }

// registerTelemetry wires every simulator layer into the registry: the
// worker edge links and CCI ring links (the two link sets RunMetrics
// aggregates), network-wide fabric gauges, the CCI protocol layer, and
// per-worker running totals of compute, stall and completed iterations.
func (t *Trainer) registerTelemetry() {
	reg := t.cfg.Telemetry
	ctx := t.ctx
	edge := ctx.Machine.LinksBetween(topology.KindGPU, topology.KindPort)
	ring := ctx.Machine.LinksBetween(topology.KindMemDev, topology.KindMemDev)
	links := make([]*fabric.Link, 0, len(edge)+len(ring))
	links = append(links, edge...)
	links = append(links, ring...)
	telemetry.RegisterLinks(reg, ctx.Eng, links)
	telemetry.RegisterNetwork(reg, ctx.Machine.Net)
	if t.cfg.TelemetryHotPath {
		telemetry.RegisterHotPath(reg, ctx.Eng, ctx.Machine.Net)
	}
	ctx.CCI.AttachTelemetry(reg)
	// Chaos series exist only when an injector exists (non-empty plan),
	// so zero-fault dumps stay byte-identical to chaos-disabled ones.
	t.chaos.AttachTelemetry(reg)
	for w := range ctx.Workers {
		w := w
		base := fmt.Sprintf("train/worker%d/", w)
		reg.GaugeFunc(base+"compute_ns", "ns", func() float64 { return float64(t.compute[w]) })
		reg.GaugeFunc(base+"stall_ns", "ns", func() float64 { return float64(t.blocked[w]) })
		reg.GaugeFunc(base+"iters_done", "iters", func() float64 { return float64(t.workerDone[w]) })
	}
}

// latch returns the latch gating worker w's forward of layer in
// iteration it. Two iterations' latches are live at once: iteration
// it+1's opens while iteration it's forward still waits on its own,
// and iteration it+2's cannot open before w has produced iteration
// it+1's gradient for the layer, which is past its forward of
// iteration it. So the table is a ring of two iterations, and a slot
// still serving an earlier iteration is reset when a later one asks
// for it. A slot with a parked waiter, or one already serving a later
// iteration, means that order was broken: latch panics.
func (t *Trainer) latch(it, w, layer int) *Latch {
	layers := len(t.cfg.Model.Layers)
	l := &t.latches[(2*w+it%2)*layers+layer]
	if iter := int32(it); l.iter != iter {
		if l.iter > iter || l.waiter != nil {
			panic(fmt.Sprintf("train: worker %d layer %d: iteration %d's latch slot still serves iteration %d", w, layer, it, l.iter))
		}
		*l = Latch{iter: iter}
	}
	return l
}

func (t *Trainer) markReady(it, w, layer int) {
	t.latch(it+1, w, layer).Open()
}

// Run executes the training simulation and returns its measurements.
func (t *Trainer) Run() (*Result, error) {
	ctx := t.ctx
	if err := t.strat.Setup(ctx); err != nil {
		return nil, fmt.Errorf("train: %s setup: %w", t.strat.Name(), err)
	}
	if t.cfg.OnStart != nil {
		t.cfg.OnStart(ctx)
	}
	// Arm after Setup and OnStart so fault windows are relative to the
	// true training start even when Setup's offline profiling advanced
	// the clock.
	t.chaos.Arm(ctx.Eng)
	layers := ctx.Layers()
	// Iteration 0's forward needs no synchronization: replicas start in
	// sync.
	for w := range ctx.Workers {
		for l := range layers {
			t.latch(0, w, l).Open()
		}
	}
	var sampler *telemetry.Sampler
	if t.cfg.Telemetry != nil {
		sampler = telemetry.NewSampler(ctx.Eng, t.cfg.Telemetry, telemetry.DefaultSamplePeriod, telemetry.DefaultMaxSamples)
		sampler.Start()
	}
	for w := range ctx.Workers {
		newPipeWorker(t, w).run(0)
	}
	ctx.Eng.Run()
	// The finished trainer stays referenced while its results are read.
	ctx.Eng.ReleasePool()
	t.moeRand = nil
	for w, done := range t.workerDone {
		if done != t.cfg.Iterations {
			return nil, fmt.Errorf("train: %s stalled: worker %d finished %d of %d iterations (synchronization deadlock?)",
				t.strat.Name(), w, done, t.cfg.Iterations)
		}
	}
	if sampler != nil {
		sampler.Finish()
		t.dump = telemetry.BuildDump(sampler)
		t.dump.SetLabel("strategy", t.strat.Name())
		t.dump.SetLabel("machine", t.cfg.Spec.Label)
		t.dump.SetLabel("model", t.cfg.Model.Name)
		t.dump.SetLabel("batch", fmt.Sprint(t.cfg.Batch))
		t.dump.SetLabel("workers", fmt.Sprint(len(ctx.Workers)))
		t.dump.SetLabel("iterations", fmt.Sprint(t.cfg.Iterations))
		if !t.cfg.Layout.Trivial() {
			t.dump.SetLabel("layout", t.plan.Label())
		}
	}
	return t.result(), nil
}

func (t *Trainer) result() *Result {
	cfg := t.cfg
	ctx := t.ctx
	total := ctx.Eng.Now()
	var iterSum sim.Time
	count := 0
	for it := 1; it < cfg.Iterations; it++ {
		iterSum += t.iterEnd[it] - t.iterEnd[it-1]
		count++
	}
	iterTime := t.iterEnd[0]
	if count > 0 {
		iterTime = iterSum / sim.Time(count)
	}
	var blockedSum sim.Time
	for _, b := range t.blocked {
		blockedSum += b
	}
	blocked := blockedSum / sim.Time(len(t.blocked)) / sim.Time(cfg.Iterations)

	g := ctx.Workers[0]
	compute := g.FwdTime(cfg.Model, cfg.Batch) + g.BwdTime(cfg.Model, cfg.Batch)
	layout := ""
	if !cfg.Layout.Trivial() {
		// Sharded layouts: workers run different slices, so the roofline
		// replica time is meaningless — report the mean per-worker busy
		// time per iteration instead.
		layout = t.plan.Label()
		var busy sim.Time
		for _, ct := range t.compute {
			busy += ct
		}
		compute = busy / sim.Time(len(t.compute)) / sim.Time(cfg.Iterations)
	}
	util := 0.0
	if iterTime > 0 {
		util = compute.ToSeconds() / iterTime.ToSeconds()
		if util > 1 {
			util = 1
		}
	}
	edgeLinks := ctx.Machine.LinksBetween(topology.KindGPU, topology.KindPort)
	cciLinks := ctx.Machine.LinksBetween(topology.KindMemDev, topology.KindMemDev)
	var linkUtils []LinkUtil
	for _, links := range [][]*fabric.Link{edgeLinks, cciLinks} {
		for _, l := range links {
			linkUtils = append(linkUtils, LinkUtil{
				Link: l.Name(),
				Util: (l.Fwd().Utilization(total) + l.Rev().Utilization(total)) / 2,
			})
		}
	}
	var tierUtils []TierUtil
	for _, tl := range ctx.Machine.LinksByTier() {
		tierUtils = append(tierUtils, TierUtil{
			Tier: tl.Name,
			Util: topology.MeanUtilization(tl.Links, total),
		})
	}
	return &Result{
		Strategy:   t.strat.Name(),
		Machine:    cfg.Spec.Label,
		Model:      cfg.Model.Name,
		Batch:      cfg.Batch,
		Workers:    len(ctx.Workers),
		Iterations: cfg.Iterations,
		Layout:     layout,
		RunMetrics: RunMetrics{
			TotalTime:   total,
			IterTime:    iterTime,
			ComputeTime: compute,
			BlockedComm: blocked,
			GPUUtil:     util,
			EdgeBusUtil: topology.MeanUtilization(edgeLinks, total),
			CCIBusUtil:  topology.MeanUtilization(cciLinks, total),
			Events:      ctx.Eng.Dispatched(),
			LinkUtils:   linkUtils,
			TierUtils:   tierUtils,
			ChaosFaults: t.chaos.FaultsOpened(),
			ChaosStall:  t.chaos.AttributedStall(),
		},
	}
}

// Run is the convenience entry point: build a trainer and run it.
func Run(cfg Config, strat Strategy) (*Result, error) {
	tr, err := New(cfg, strat)
	if err != nil {
		return nil, err
	}
	return tr.Run()
}
