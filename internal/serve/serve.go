// Package serve is the inference-serving workload family: an open-loop
// request stream (internal/serve/arrival.go) driven through a
// continuous-batching scheduler over disaggregated prefill and decode
// GPU pools, with per-sequence KV caches placed either in worker HBM
// (KVLocal) or pooled in the machine's CCI memory devices (KVPooled).
//
// The serving model follows the CXL/CCI-pool inference literature the
// roadmap cites (XL-Share's shared parameter copy with local caching;
// disaggregated prefill/decode with KV pooling):
//
//   - One shared parameter copy lives in the CCI pool. Every worker
//     holds a local coherent cache of a paramCacheFraction of it; the
//     miss remainder streams over the fabric (cci.Fabric.DMACopy) once
//     per prefill and once per decode iteration — amortized across the
//     batch, which is what makes batching pay.
//   - With KVPooled, each sequence's KV cache lives in a CCI memory
//     device: every decode step writes the new token's KV page to the
//     pool and reads back the (1-kvHitRate) slice of the growing
//     context that missed the worker's local page cache. Prefetch
//     overlaps the next step's reads under compute instead of gating
//     the iteration on them (the bandwidth is still spent).
//   - With KVLocal, KV pages stay in worker HBM: no per-step fabric
//     traffic (beyond the shared parameter stream), but admission into
//     a decode batch reserves the sequence's full-context KV footprint
//     against localKVBudget — the HBM wall that caps concurrency.
//
// Decode iterations are the continuous-batching boundary: sequences
// join and leave a worker's batch only between iterations, one token
// per active sequence per iteration. Per-request lifecycle metrics
// (TTFT, TPOT) roll up into p50/p99/p99.9 and goodput-vs-offered-load,
// the serving side of the paper's "millions of users" story.
//
// Everything runs on the deterministic DES: arrivals are foreground
// engine events scheduled from the pre-generated trace (daemon events
// would let Run return with requests still in flight), fabric traffic
// uses the same flow machinery training does, and chaos windows
// (notably CCI brownouts browning out the pool's ports under live
// traffic) compose exactly as in training.
//
// A run's allocations do not grow with its request count. Run reserves
// one engine rank per request up front, and arrivals are one
// caller-owned event re-armed at the next request's time and reserved
// rank, so same-instant arrivals keep trace order. Each prefill worker's
// barrier, each decode worker's barrier and every KV ship record (from
// a sim.FreeList) bind their callbacks once, and the request queues keep
// their storage. TestServeSteadyStateAllocs gates this. A Sim runs once.
package serve

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"coarse/internal/cci"
	"coarse/internal/chaos"
	"coarse/internal/fabric"
	"coarse/internal/gpu"
	"coarse/internal/model"
	"coarse/internal/sim"
	"coarse/internal/telemetry"
	"coarse/internal/topology"
)

// KVPlacement says where per-sequence KV caches live.
type KVPlacement int

const (
	// KVLocal keeps KV pages in the decode worker's HBM, capacity-capped
	// by localKVBudget.
	KVLocal KVPlacement = iota
	// KVPooled allocates KV in CCI memory devices, traded for per-step
	// fabric traffic.
	KVPooled
)

// String returns the lower-case placement name.
func (p KVPlacement) String() string {
	if p == KVPooled {
		return "pooled"
	}
	return "local"
}

// ParseKVPlacement maps a placement name to its KVPlacement.
func ParseKVPlacement(s string) (KVPlacement, error) {
	switch s {
	case "local":
		return KVLocal, nil
	case "pooled":
		return KVPooled, nil
	}
	return 0, fmt.Errorf("serve: unknown KV placement %q (local, pooled)", s)
}

// Config describes one serving run. The batching, KV and SLO figures
// every run shares are the package constants below, not fields.
type Config struct {
	Spec     topology.Spec
	Model    *model.Model
	Workload Workload

	CCIParams cci.Params

	// PrefillWorkers is the size of the prefill pool (the first N
	// worker GPUs); the rest decode. Zero derives max(1, workers/4).
	PrefillWorkers int

	KVPlacement KVPlacement
	// Prefetch (KVPooled only) issues the next decode step's KV page
	// reads under the current step's compute instead of gating the
	// iteration barrier on them.
	Prefetch bool

	// Chaos compiles into a deterministic fault plan (using Seed)
	// injected during the run, exactly as in training: CCI brownouts
	// throttle the pool ports pooled KV and the parameter stream cross,
	// worker stalls pause prefill/decode compute. A spec compiling to
	// nothing observable leaves every output byte unchanged.
	Chaos *chaos.Spec

	// Telemetry, when non-nil, receives fabric/CCI/chaos series plus
	// serving counters (arrivals, tokens, queue depths, TTFT/TPOT
	// histograms), sampled on daemon events only.
	Telemetry *telemetry.Registry

	Seed int64
}

// DefaultConfig fills in the standard serving constants.
func DefaultConfig(spec topology.Spec, m *model.Model, w Workload) Config {
	return Config{
		Spec:      spec,
		Model:     m,
		Workload:  w,
		CCIParams: cci.DefaultParams(),
		Seed:      1,
	}
}

// The serving constants every run shares. The float ones are typed so
// that expressions like 1 - kvHitRate round exactly as run-time float64
// arithmetic does.
const (
	// maxBatch caps the sequences a decode worker batches per iteration.
	maxBatch = 8
	// kvBytesPerToken is the KV-cache footprint of one token (a
	// large-decoder surrogate: the model graph stands in for a much
	// bigger network's compute, the KV page size for its memory
	// footprint).
	kvBytesPerToken int64 = 4 << 20
	// localKVBudget is the per-decode-worker HBM set aside for KV pages
	// under KVLocal.
	localKVBudget int64 = 1 << 30
	// kvHitRate is the fraction of a pooled sequence's context KV that
	// hits the worker's local page cache each step; the miss slice is
	// read over the fabric.
	kvHitRate float64 = 0.95
	// paramCacheFraction is the slice of the shared parameter copy each
	// worker caches locally; the rest streams from the pool per prefill
	// and per decode iteration.
	paramCacheFraction float64 = 0.95
	// sloTTFT and sloTPOT define goodput: a request is "good" when its
	// TTFT and TPOT both meet the objective.
	sloTTFT sim.Time = 25 * 1_000_000
	sloTPOT sim.Time = 20 * 1_000_000
)

// withDefaults resolves the zero-valued pool split.
func (c Config) withDefaults(workers int) Config {
	if c.PrefillWorkers <= 0 {
		c.PrefillWorkers = workers / 4
		if c.PrefillWorkers < 1 {
			c.PrefillWorkers = 1
		}
	}
	return c
}

// LatencyStats is one latency distribution's summary. Percentiles are
// nearest-rank over the completed requests.
type LatencyStats struct {
	Mean sim.Time `json:"mean_ns"`
	P50  sim.Time `json:"p50_ns"`
	P99  sim.Time `json:"p99_ns"`
	P999 sim.Time `json:"p999_ns"`
}

func summarize(xs []sim.Time) LatencyStats {
	if len(xs) == 0 {
		return LatencyStats{}
	}
	sorted := make([]sim.Time, len(xs))
	copy(sorted, xs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum sim.Time
	for _, x := range sorted {
		sum += x
	}
	return LatencyStats{
		Mean: sum / sim.Time(len(sorted)),
		P50:  percentile(sorted, 0.50),
		P99:  percentile(sorted, 0.99),
		P999: percentile(sorted, 0.999),
	}
}

// percentile is the nearest-rank percentile of a sorted slice.
func percentile(sorted []sim.Time, q float64) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Result summarizes one serving run.
type Result struct {
	Machine   string `json:"machine"`
	Model     string `json:"model"`
	Placement string `json:"placement"`
	Arrival   string `json:"arrival"`
	Prefetch  bool   `json:"prefetch,omitempty"`

	Workers        int `json:"workers"`
	PrefillWorkers int `json:"prefill_workers"`
	DecodeWorkers  int `json:"decode_workers"`

	Requests  int `json:"requests"`
	Completed int `json:"completed"`

	// OfferedRPS is the workload's nominal arrival rate; AchievedRPS is
	// completions over the makespan; GoodputRPS counts only requests
	// meeting both SLOs.
	OfferedRPS    float64 `json:"offered_rps"`
	AchievedRPS   float64 `json:"achieved_rps"`
	GoodputRPS    float64 `json:"goodput_rps"`
	SLOAttainment float64 `json:"slo_attainment"`

	TotalTime sim.Time     `json:"total_time_ns"`
	TTFT      LatencyStats `json:"ttft"`
	TPOT      LatencyStats `json:"tpot"`

	// MeanBatch is the mean decode batch size over iterations — the
	// continuous-batching occupancy the KV placement caps or frees.
	MeanBatch float64 `json:"mean_batch"`

	// KVFabricBytes / ParamFabricBytes are the fabric volumes the KV
	// pages (pool writes + miss reads + prefill handoffs) and the
	// shared parameter stream moved.
	KVFabricBytes    int64 `json:"kv_fabric_bytes"`
	ParamFabricBytes int64 `json:"param_fabric_bytes"`

	// EdgeBusUtil / CCIBusUtil mirror the training metrics: mean
	// utilization of the worker edge links and the CCI pool's memory-
	// device port links (the DMA paths serving traffic actually takes).
	EdgeBusUtil float64 `json:"edge_bus_util"`
	CCIBusUtil  float64 `json:"cci_bus_util"`

	// Events fingerprints the whole simulation (see train.RunMetrics).
	Events uint64 `json:"events"`

	ChaosFaults uint64   `json:"chaos_faults,omitempty"`
	ChaosStall  sim.Time `json:"chaos_stall_ns,omitempty"`
}

// seqState tracks one request through its lifecycle.
type seqState struct {
	req       Request
	kvDev     *topology.Device // pool home (KVPooled)
	decoder   int              // global worker index
	generated int
	reserved  int64 // local-HBM KV bytes held (KVLocal)
	firstTok  sim.Time
	done      sim.Time
	finished  bool
}

// Sim is one serving simulation: machine, pools, queues, measurements.
type Sim struct {
	cfg     Config
	eng     *sim.Engine
	machine *topology.Machine
	fab     *cci.Fabric
	gpus    []*gpu.GPU
	chaos   *chaos.Injector

	paramDev  *topology.Device
	paramMiss int64 // per-pass fabric stream of the shared copy

	trace []Request
	seqs  []seqState
	ran   bool

	// arrival is the one caller-owned event that walks the trace: each
	// firing re-arms it at the next request's arrival time and at that
	// request's rank, arrivalBase+i, reserved when Run starts.
	arrival     *sim.Event
	arrivalBase uint64
	nextArrival int
	arriveNext  func() // s.fireArrival, bound once

	prefillQ fifo // request indices
	prefill  []prefillWorker
	ships    *sim.FreeList[kvShip]

	decodeQ      []fifo // per decode worker
	decodeActive [][]int
	decodeBusy   []bool
	decodeBar    []*barrier // per decode worker: one iteration in flight at a time
	decodeDone   []func()   // decodeBar[d].done, bound once
	kvUsed       []int64    // per decode worker, KVLocal reservations

	completed  int
	iterations int
	batchSum   int
	kvBytes    int64
	paramBytes int64

	// tokenFLOPs is the per-token forward cost: the model graph's
	// per-sample FLOPs spread over TokensPerSample. Decode is one token
	// per sequence per iteration; prefill is PromptTokens at once.
	tokenFLOPs float64
	layerCount int
	weightPass sim.Time // full parameter read from HBM, amortized per batch

	reg      *telemetry.Registry
	ttftHist *telemetry.Histogram
	tpotHist *telemetry.Histogram
	cArrived *telemetry.Counter
	cTokens  *telemetry.Counter
	dump     *telemetry.Dump
}

// tokensPerSample is the sequence length one model "sample" stands
// for: model.FwdFLOPs is per training sample, serving charges it per
// that many tokens.
const tokensPerSample = 128

// New builds a serving simulation. It fails on a workload outside the
// bounds Workload.validate states, and when the machine cannot host the
// configuration: fewer than two workers (the pools must disaggregate)
// or no CCI memory device for the shared parameter copy.
func New(cfg Config) (*Sim, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("serve: no model")
	}
	if err := cfg.Workload.validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	machine := topology.Build(eng, cfg.Spec)
	if len(machine.Workers) < 2 {
		return nil, fmt.Errorf("serve: %s has %d worker GPUs; disaggregated pools need at least 2",
			cfg.Spec.Label, len(machine.Workers))
	}
	if len(machine.Devs) == 0 {
		return nil, fmt.Errorf("serve: %s has no CCI memory devices to hold the shared parameter copy", cfg.Spec.Label)
	}
	cfg = cfg.withDefaults(len(machine.Workers))
	if cfg.PrefillWorkers >= len(machine.Workers) {
		return nil, fmt.Errorf("serve: %d prefill workers leave no decode pool on %d GPUs",
			cfg.PrefillWorkers, len(machine.Workers))
	}

	s := &Sim{
		cfg:      cfg,
		eng:      eng,
		machine:  machine,
		fab:      cci.NewFabric(machine.Topology, cfg.CCIParams),
		paramDev: machine.Devs[0],
	}
	s.paramMiss = int64((1 - paramCacheFraction) * float64(cfg.Model.ParamBytes()))
	s.tokenFLOPs = cfg.Model.FwdFLOPs() / tokensPerSample
	s.layerCount = len(cfg.Model.Layers)

	// Worker GPUs; the locally cached parameter slice is a permanent
	// allocation on every worker, KV reservations come and go on the
	// decode pool under KVLocal.
	paramCache := int64(paramCacheFraction * float64(cfg.Model.ParamBytes()))
	for _, dev := range machine.Workers {
		g := gpu.New(dev, cfg.Spec.GPU)
		if err := g.Alloc(paramCache); err != nil {
			return nil, fmt.Errorf("serve: parameter cache does not fit: %w", err)
		}
		s.gpus = append(s.gpus, g)
	}
	s.weightPass = sim.Seconds(float64(cfg.Model.ParamBytes()) / cfg.Spec.GPU.MemBW)

	s.arriveNext = s.fireArrival
	s.prefill = make([]prefillWorker, cfg.PrefillWorkers)
	for pw := range s.prefill {
		w := &s.prefill[pw]
		w.bar.fn = func() { s.finishPrefill(pw) }
		w.done = w.bar.done
	}
	s.ships = sim.NewFreeList[kvShip](eng)

	decode := len(machine.Workers) - cfg.PrefillWorkers
	s.decodeQ = make([]fifo, decode)
	s.decodeActive = make([][]int, decode)
	s.decodeBusy = make([]bool, decode)
	s.decodeBar = make([]*barrier, decode)
	s.decodeDone = make([]func(), decode)
	for d := range s.decodeBar {
		b := &barrier{fn: func() { s.finishIteration(d) }}
		s.decodeBar[d] = b
		s.decodeDone[d] = b.done
	}
	s.kvUsed = make([]int64, decode)

	if cfg.Chaos != nil {
		plan := cfg.Chaos.Compile(cfg.Seed, chaos.EnvOf(machine))
		if err := plan.Validate(); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		s.chaos = chaos.NewInjector(plan, machine)
	}
	if cfg.Telemetry != nil {
		s.registerTelemetry()
	}
	return s, nil
}

// kvHome returns the pool device holding a sequence's KV cache: spread
// round-robin over the devices after the parameter home (all of them
// when there is only one).
func (s *Sim) kvHome(id int) *topology.Device {
	devs := s.machine.Devs
	if len(devs) == 1 {
		return devs[0]
	}
	return devs[1+id%(len(devs)-1)]
}

// decodeStepTime is one decode iteration over batch sequences, one
// token each: per-token compute against the full-weight HBM pass
// (amortized across the batch — the reason continuous batching pays),
// plus per-layer launch overhead.
func (s *Sim) decodeStepTime(g *gpu.GPU, batch int) sim.Time {
	compute := s.tokenFLOPs * float64(batch) / (g.Spec.TFLOPS * 1e12 * g.Efficiency)
	t := sim.Seconds(compute)
	if s.weightPass > t {
		t = s.weightPass
	}
	return sim.Time(s.layerCount)*g.KernelOverhead + t
}

// prefillTime is the whole-prompt forward: all prompt tokens in one
// pass, against the same weight-pass floor.
func (s *Sim) prefillTime(g *gpu.GPU, promptTokens int) sim.Time {
	return s.decodeStepTime(g, promptTokens)
}

// barrier counts outstanding contributions to one scheduling step;
// fn runs when the last lands. All contributions are registered before
// any completion can fire (flows and compute both resolve at future
// virtual times), so the count never reaches zero early.
type barrier struct {
	n  int
	fn func()
}

func (b *barrier) add() { b.n++ }
func (b *barrier) done() {
	b.n--
	if b.n == 0 {
		b.fn()
	}
}

// prefillWorker is one prefill GPU. It holds one request at a time, so
// its barrier and the barrier's done callback are bound once.
type prefillWorker struct {
	busy bool
	req  int // the request in flight while busy
	bar  barrier
	done func() // bar.done, bound once
}

// kvShip is one prompt-KV handoff from a prefill worker to the decode
// side. Ships from one worker can overlap, so each takes a record from
// Sim.ships whose callback is bound once.
type kvShip struct {
	s      *Sim
	i      int    // the request whose KV is in flight
	landed func() // k.land, bound once
}

func (k *kvShip) land() {
	s, i := k.s, k.i
	s.ships.Put(k)
	s.enqueueDecode(i)
}

// fifo is a queue of request indices that keeps its storage: a pop
// advances the head, an emptied queue rewinds, and a push into a full
// slice whose front half has been popped slides the live entries down
// instead of growing it. Pops stay O(1) even when a burst queues the
// whole trace at once, which copying down on every pop would not.
type fifo struct {
	q    []int
	head int
}

func (f *fifo) len() int  { return len(f.q) - f.head }
func (f *fifo) peek() int { return f.q[f.head] }

func (f *fifo) pop() int {
	i := f.q[f.head]
	f.head++
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return i
}

func (f *fifo) push(i int) {
	if len(f.q) == cap(f.q) && 2*f.head >= len(f.q) {
		f.q, f.head = f.q[:copy(f.q, f.q[f.head:])], 0
	}
	f.q = append(f.q, i)
}

// Run executes the serving simulation. A Sim runs once: a second call
// returns an error, and another run needs a new Sim.
func (s *Sim) Run() (*Result, error) {
	if s.ran {
		return nil, errors.New("serve: Run called twice on one Sim; build a new Sim with New for another run")
	}
	s.ran = true
	cfg := s.cfg
	s.trace = GenerateTrace(cfg.Workload, cfg.Seed)
	s.seqs = make([]seqState, len(s.trace))
	decode := len(s.machine.Workers) - cfg.PrefillWorkers
	for i, q := range s.trace {
		s.seqs[i] = seqState{
			req:     q,
			kvDev:   s.kvHome(q.ID),
			decoder: cfg.PrefillWorkers + q.ID%decode,
		}
	}
	// Arrivals are foreground events: they must keep Run alive until
	// the last request drains. Each request's rank is reserved here, as
	// if every arrival were scheduled now, but only the next one is
	// queued at a time.
	s.arrivalBase = s.eng.ReserveSeq(len(s.seqs))
	if len(s.seqs) > 0 {
		s.arrival = s.eng.AtRanked(s.seqs[0].req.Arrival, s.arrivalBase, s.arriveNext)
	}
	s.chaos.Arm(s.eng)
	var sampler *telemetry.Sampler
	if cfg.Telemetry != nil {
		sampler = telemetry.NewSampler(s.eng, cfg.Telemetry, telemetry.DefaultSamplePeriod, telemetry.DefaultMaxSamples)
		sampler.Start()
	}
	s.eng.Run()
	s.eng.ReleasePool() // the finished simulation stays referenced while its results are read
	if s.completed != len(s.trace) {
		return nil, fmt.Errorf("serve: stalled: %d of %d requests completed", s.completed, len(s.trace))
	}
	if sampler != nil {
		sampler.Finish()
		s.dump = telemetry.BuildDump(sampler)
		s.dump.SetLabel("machine", cfg.Spec.Label)
		s.dump.SetLabel("model", cfg.Model.Name)
		s.dump.SetLabel("placement", cfg.KVPlacement.String())
		s.dump.SetLabel("arrival", cfg.Workload.Arrival.String())
		s.dump.SetLabel("requests", fmt.Sprint(len(s.trace)))
	}
	return s.result(), nil
}

// TelemetryDump returns the time-series dump built by Run, or nil when
// Config.Telemetry was not set.
func (s *Sim) TelemetryDump() *telemetry.Dump { return s.dump }

// fireArrival admits the request the arrival event stands for and
// re-arms the event for the next one. The trace is sorted by arrival
// time, so the next arrival is never before now.
func (s *Sim) fireArrival() {
	i := s.nextArrival
	s.nextArrival++
	s.eng.Recycle(s.arrival)
	s.arrival = nil
	if next := s.nextArrival; next < len(s.seqs) {
		s.arrival = s.eng.AtRanked(s.seqs[next].req.Arrival, s.arrivalBase+uint64(next), s.arriveNext)
	}
	s.arrive(i)
}

// arrive enqueues a request on the prefill pool.
func (s *Sim) arrive(i int) {
	if s.cArrived != nil {
		s.cArrived.Inc()
	}
	s.prefillQ.push(i)
	s.kickPrefill()
}

// kickPrefill hands queued requests to idle prefill workers in worker
// order — one request per worker at a time (prefill batches of one).
func (s *Sim) kickPrefill() {
	for pw := range s.prefill {
		if s.prefillQ.len() == 0 {
			return
		}
		w := &s.prefill[pw]
		if w.busy {
			continue
		}
		w.busy = true
		w.req = s.prefillQ.pop()
		s.startPrefill(pw)
	}
}

// startPrefill runs one request's prefill on prefill worker pw: the
// prompt forward overlapped with the shared-parameter miss stream from
// the pool. Completion is the first response token (TTFT), after which
// the prompt's KV ships to the decode side and the worker frees.
func (s *Sim) startPrefill(pw int) {
	w := &s.prefill[pw]
	seq := &s.seqs[w.req]
	g := s.gpus[pw]
	start := s.eng.Now()
	w.bar.add()
	dur := s.prefillTime(g, seq.req.PromptTokens)
	s.eng.At(s.chaos.AdvanceCompute(pw, start, dur), w.done)
	if s.paramMiss > 0 {
		w.bar.add()
		s.paramBytes += s.paramMiss
		s.fab.DMACopy(s.paramDev, g.Dev, s.paramMiss, w.done)
	}
}

// finishPrefill emits the first token, ships the prompt KV, and frees
// the prefill worker.
func (s *Sim) finishPrefill(pw int) {
	w := &s.prefill[pw]
	i := w.req
	seq := &s.seqs[i]
	seq.firstTok = s.eng.Now()
	if s.ttftHist != nil {
		s.ttftHist.Observe(float64(seq.firstTok-seq.req.Arrival) / 1e6)
	}
	// Prompt KV leaves the prefill worker either way: to the pool
	// device (KVPooled) or to the decode worker's HBM (KVLocal). The
	// sequence joins the decode queue when the pages land.
	kv := int64(seq.req.PromptTokens) * kvBytesPerToken
	dst := seq.kvDev
	if s.cfg.KVPlacement == KVLocal {
		dst = s.machine.Workers[seq.decoder]
	}
	s.kvBytes += kv
	ship := s.ships.Get()
	if ship == nil {
		ship = &kvShip{s: s}
		ship.landed = ship.land
	}
	ship.i = i
	s.fab.DMACopy(s.gpus[pw].Dev, dst, kv, ship.landed)
	w.busy = false
	s.kickPrefill()
}

// enqueueDecode adds a prefilled sequence to its decode worker's queue.
func (s *Sim) enqueueDecode(i int) {
	seq := &s.seqs[i]
	d := seq.decoder - s.cfg.PrefillWorkers
	s.decodeQ[d].push(i)
	if !s.decodeBusy[d] {
		s.startIteration(d)
	}
}

// admit moves queued sequences into decode worker d's active batch up
// to maxBatch; under KVLocal each admission reserves the sequence's
// full-context KV footprint against the budget, and the queue blocks
// head-of-line when the next sequence does not fit (FIFO admission
// keeps the schedule deterministic and models the HBM wall as
// queueing, not reordering).
func (s *Sim) admit(d int) {
	q := &s.decodeQ[d]
	for len(s.decodeActive[d]) < maxBatch && q.len() > 0 {
		i := q.peek()
		seq := &s.seqs[i]
		if s.cfg.KVPlacement == KVLocal {
			need := int64(seq.req.PromptTokens+seq.req.OutputTokens) * kvBytesPerToken
			if s.kvUsed[d]+need > localKVBudget {
				return
			}
			s.kvUsed[d] += need
			seq.reserved = need
		}
		q.pop()
		s.decodeActive[d] = append(s.decodeActive[d], i)
	}
}

// startIteration runs one continuous-batching decode iteration on
// decode worker d: admit at the boundary, then one token per active
// sequence gated on compute, the shared-parameter stream, and (pooled,
// unprefetched) the context KV miss reads.
func (s *Sim) startIteration(d int) {
	s.admit(d)
	if len(s.decodeActive[d]) == 0 {
		s.decodeBusy[d] = false
		return
	}
	s.decodeBusy[d] = true
	w := s.cfg.PrefillWorkers + d
	g := s.gpus[w]
	batch := len(s.decodeActive[d])
	s.iterations++
	s.batchSum += batch

	// The worker's barrier is free: its last iteration finished before
	// this one could start.
	b, done := s.decodeBar[d], s.decodeDone[d]
	start := s.eng.Now()
	b.add()
	dur := s.decodeStepTime(g, batch)
	s.eng.At(s.chaos.AdvanceCompute(w, start, dur), done)
	if s.paramMiss > 0 {
		b.add()
		s.paramBytes += s.paramMiss
		s.fab.DMACopy(s.paramDev, g.Dev, s.paramMiss, done)
	}
	if s.cfg.KVPlacement == KVPooled {
		for _, i := range s.decodeActive[d] {
			seq := &s.seqs[i]
			// The new token's KV page goes to the pool.
			b.add()
			s.kvBytes += kvBytesPerToken
			s.fab.DMACopy(g.Dev, seq.kvDev, kvBytesPerToken, done)
			// The context slice that missed the local page cache comes
			// back. Prefetched reads overlap compute (they are the
			// *next* step's pages, issued now) and do not gate the
			// barrier; the fabric still carries them.
			ctx := seq.req.PromptTokens + seq.generated
			miss := int64((1 - kvHitRate) * float64(int64(ctx)*kvBytesPerToken))
			if miss <= 0 {
				continue
			}
			s.kvBytes += miss
			if s.cfg.Prefetch {
				s.fab.DMACopy(seq.kvDev, g.Dev, miss, func() {})
			} else {
				b.add()
				s.fab.DMACopy(seq.kvDev, g.Dev, miss, done)
			}
		}
	}
}

// finishIteration retires one token per active sequence, completes
// finished sequences, and immediately starts the next iteration.
func (s *Sim) finishIteration(d int) {
	now := s.eng.Now()
	active := s.decodeActive[d][:0]
	for _, i := range s.decodeActive[d] {
		seq := &s.seqs[i]
		seq.generated++
		if s.cTokens != nil {
			s.cTokens.Inc()
		}
		if seq.generated < seq.req.OutputTokens {
			active = append(active, i)
			continue
		}
		seq.finished = true
		seq.done = now
		s.completed++
		if s.cfg.KVPlacement == KVLocal {
			s.kvUsed[d] -= seq.reserved
		}
		if s.tpotHist != nil {
			s.tpotHist.Observe(tpot(seq).ToSeconds() * 1e3)
		}
	}
	s.decodeActive[d] = active
	s.startIteration(d)
}

// tpot is a finished sequence's mean time per output token: decode
// makespan over decode-generated tokens.
func tpot(seq *seqState) sim.Time {
	return (seq.done - seq.firstTok) / sim.Time(seq.req.OutputTokens)
}

// registerTelemetry wires the serving layer into the registry next to
// the fabric/CCI/chaos series training registers.
func (s *Sim) registerTelemetry() {
	reg := s.cfg.Telemetry
	s.reg = reg
	// Serving traffic crosses the worker edge links and the pool's
	// memdev ports (DMA paths), not the memdev↔memdev ring collectives
	// use — instrument the links the workload actually exercises.
	edge := s.machine.LinksBetween(topology.KindGPU, topology.KindPort)
	ports := s.machine.LinksBetween(topology.KindMemDev, topology.KindPort)
	links := append(append([]*fabric.Link{}, edge...), ports...)
	telemetry.RegisterLinks(reg, s.eng, links)
	telemetry.RegisterNetwork(reg, s.machine.Net)
	s.fab.AttachTelemetry(reg)
	s.chaos.AttachTelemetry(reg)
	s.cArrived = reg.Counter("serve/requests_arrived", "reqs")
	s.cTokens = reg.Counter("serve/tokens_generated", "tokens")
	reg.GaugeFunc("serve/prefill_queue", "reqs", func() float64 { return float64(s.prefillQ.len()) })
	reg.GaugeFunc("serve/decode_queued", "reqs", func() float64 {
		n := 0
		for i := range s.decodeQ {
			n += s.decodeQ[i].len()
		}
		return float64(n)
	})
	reg.GaugeFunc("serve/decode_active", "seqs", func() float64 {
		n := 0
		for _, a := range s.decodeActive {
			n += len(a)
		}
		return float64(n)
	})
	reg.GaugeFunc("serve/completed", "reqs", func() float64 { return float64(s.completed) })
	s.ttftHist = reg.Histogram("serve/ttft_ms", "ms", telemetry.ExpBuckets(0.25, 2, 14))
	s.tpotHist = reg.Histogram("serve/tpot_ms", "ms", telemetry.ExpBuckets(0.25, 2, 14))
}

// result rolls per-request lifecycles into the run summary.
func (s *Sim) result() *Result {
	cfg := s.cfg
	total := s.eng.Now()
	ttfts := make([]sim.Time, 0, len(s.seqs))
	tpots := make([]sim.Time, 0, len(s.seqs))
	good := 0
	for i := range s.seqs {
		seq := &s.seqs[i]
		if !seq.finished {
			continue
		}
		ttft := seq.firstTok - seq.req.Arrival
		tp := tpot(seq)
		ttfts = append(ttfts, ttft)
		tpots = append(tpots, tp)
		if ttft <= sloTTFT && tp <= sloTPOT {
			good++
		}
	}
	res := &Result{
		Machine:          cfg.Spec.Label,
		Model:            cfg.Model.Name,
		Placement:        cfg.KVPlacement.String(),
		Arrival:          cfg.Workload.Arrival.String(),
		Prefetch:         cfg.Prefetch,
		Workers:          len(s.machine.Workers),
		PrefillWorkers:   cfg.PrefillWorkers,
		DecodeWorkers:    len(s.machine.Workers) - cfg.PrefillWorkers,
		Requests:         len(s.trace),
		Completed:        s.completed,
		OfferedRPS:       cfg.Workload.RatePerSec,
		TotalTime:        total,
		TTFT:             summarize(ttfts),
		TPOT:             summarize(tpots),
		KVFabricBytes:    s.kvBytes,
		ParamFabricBytes: s.paramBytes,
		Events:           s.eng.Dispatched(),
		ChaosFaults:      s.chaos.FaultsOpened(),
		ChaosStall:       s.chaos.AttributedStall(),
	}
	if total > 0 {
		res.AchievedRPS = float64(s.completed) / total.ToSeconds()
		res.GoodputRPS = float64(good) / total.ToSeconds()
		edge := s.machine.LinksBetween(topology.KindGPU, topology.KindPort)
		ports := s.machine.LinksBetween(topology.KindMemDev, topology.KindPort)
		res.EdgeBusUtil = topology.MeanUtilization(edge, total)
		res.CCIBusUtil = topology.MeanUtilization(ports, total)
	}
	if s.completed > 0 {
		res.SLOAttainment = float64(good) / float64(s.completed)
	}
	if s.iterations > 0 {
		res.MeanBatch = float64(s.batchSum) / float64(s.iterations)
	}
	return res
}

// Run is the convenience entry point: build a simulation and run it.
func Run(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
