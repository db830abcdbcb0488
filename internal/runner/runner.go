// Package runner is the structured run harness the experiment suite is
// built on: a Spec describes one simulation cell, either a training run
// (topology preset, model, strategy, batch, iterations) or, when its
// Workload is set, a serving run (topology, model, request stream), and
// a worker-pool executor fans independent cells of both kinds out
// across GOMAXPROCS goroutines while guaranteeing byte-identical
// results to serial execution. Both kinds share one pool, one memo
// cache, one seed derivation and one panic capture.
//
// Determinism is preserved under parallelism by construction:
//
//   - every cell owns its engine, machine and strategy — the only
//     shared inputs are immutable (topology.Spec values, read-only
//     *model.Model graphs);
//   - each cell's RNG seed is derived from the spec itself (FNV-1a over
//     the identifying fields), never from execution order or the clock;
//   - results are collected by index, so the output slice is identical
//     no matter which goroutine finishes first.
//
// The payoff is twofold: the full coarsebench suite parallelizes
// near-linearly on multi-core machines, and every run yields a
// machine-readable record (metrics.Result) instead of only pre-rendered
// text tables.
package runner

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"

	"coarse/internal/chaos"
	"coarse/internal/gpu"
	"coarse/internal/metrics"
	"coarse/internal/model"
	"coarse/internal/parallel"
	"coarse/internal/serve"
	"coarse/internal/telemetry"
	"coarse/internal/topology"
	"coarse/internal/train"
)

// Spec describes one independent simulation cell: a training run, or a
// serving run when Workload is non-nil. Batch, Iterations, NewStrategy,
// Configure, Layout and FlatCollectives apply to training cells only;
// ConfigureServe applies to serving cells only.
type Spec struct {
	// ID uniquely labels the cell inside a batch. It names the run in
	// records and participates in seed derivation.
	ID string
	// Key, when non-empty, memoizes the cell's Result in the package
	// cache so experiments sharing a configuration (Figure 16 and 17
	// reuse the same training runs) pay for it once. Leave empty for
	// cells with closures the cache cannot identify (custom options,
	// Configure/Probe hooks).
	Key string

	Topology   topology.Spec
	Model      *model.Model
	Batch      int
	Iterations int
	// Seed overrides the derived per-spec seed when non-zero.
	Seed int64

	// NewStrategy builds the cell's synchronization strategy. It runs
	// inside the cell (possibly on a pool goroutine), so it must not
	// touch shared mutable state.
	NewStrategy func() train.Strategy
	// Configure, when non-nil, adjusts the train.Config after defaults
	// are applied (compute jitter, chaos, OnStart hooks...).
	Configure func(*train.Config)
	// Probe, when non-nil, runs after a successful run of either kind,
	// still inside the cell; experiments use it to pull strategy-internal
	// counters (routed bytes, proxy-cache hits) into Result.Extra.
	Probe func(*Probe)

	// Layout declares the cell's parallelism factors; the zero value is
	// the historical pure-data-parallel path, byte for byte. Non-trivial
	// layouts change the simulation, so fold them into ID (and Key) the
	// way batch and strategy already are.
	Layout parallel.Layout
	// FlatCollectives forces every planned communicator onto a flat
	// ring — the topology-blind baseline the planner-ordering
	// experiments compare against.
	FlatCollectives bool

	// Chaos, when non-nil, injects the compiled fault plan into the
	// cell's run. The plan compiles from the cell's derived seed, so
	// memoization and -parallel byte-identity hold by construction —
	// but leave Key empty (or fold the fault spec into it) so a chaos
	// cell can never alias a fault-free cell's cached Result.
	Chaos *chaos.Spec

	// Workload, when non-nil, makes the cell a serving run of this
	// request stream instead of a training run. Experiment families
	// prefix serving keys with "serve/" so they can never alias a
	// training key in the shared cache.
	Workload *serve.Workload
	// ConfigureServe, when non-nil, adjusts a serving cell's
	// serve.Config after defaults are applied (KV placement, prefetch,
	// pool split...). Like Configure it runs inside the cell.
	ConfigureServe func(*serve.Config)

	// Telemetry enables the virtual-time metrics layer for this cell: the
	// runner builds a fresh registry, hands it to the simulation (which
	// samples it at the telemetry package's default period and sample
	// cap), and stores the resulting time-series dump on
	// Result.Telemetry. Telemetry cells bypass the memoization cache
	// (cached Results carry no dump), and because sampling rides daemon
	// events the measured metrics are identical to an uninstrumented
	// run's.
	Telemetry bool
}

// Probe is the environment a Spec.Probe hook runs in. Trainer and
// Strategy are nil for serving cells.
type Probe struct {
	Trainer  *train.Trainer
	Strategy train.Strategy
	Result   *Result
}

// DerivedSeed returns the seed the runner will use for this spec: the
// explicit Seed when set, otherwise an FNV-1a hash of the identifying
// fields. A serving cell hashes its workload shape where a training
// cell hashes batch and iterations, since each changes the run the
// same way. Independent of execution order by construction.
func (s Spec) DerivedSeed() int64 {
	if s.Seed != 0 {
		return s.Seed
	}
	h := fnv.New64a()
	mname := ""
	if s.Model != nil {
		mname = s.Model.Name
	}
	if w := s.Workload; w != nil {
		fmt.Fprintf(h, "%s|%s|%s|%s|%g|%d", s.ID, s.Topology.Label, mname, w.Arrival, w.RatePerSec, w.Requests)
	} else {
		fmt.Fprintf(h, "%s|%s|%s|%d|%d", s.ID, s.Topology.Label, mname, s.Batch, s.Iterations)
	}
	seed := int64(h.Sum64() >> 1) // keep it positive
	if seed == 0 {
		seed = 1
	}
	return seed
}

// Result is the structured outcome of one cell. A non-empty Err means
// the run failed (OOM, synchronization deadlock, panic) and the cell
// carries no outputs: Train, Serve, Telemetry and Extra are nil.
// Otherwise exactly one of Train and Serve is set, by the cell's kind.
type Result struct {
	ID    string            `json:"id"`
	Seed  int64             `json:"seed"`
	Err   string            `json:"error,omitempty"`
	Train *train.Result     `json:"train,omitempty"`
	Serve *serve.Result     `json:"serve,omitempty"`
	Extra map[string]string `json:"extra,omitempty"`
	// Telemetry is the sampled time-series dump; non-nil only when the
	// spec asked for it.
	Telemetry *telemetry.Dump `json:"telemetry,omitempty"`
	// OOM reports that the failure was gpu.ErrOOM: a configuration
	// that does not fit device memory, which is a result, not an error.
	OOM bool `json:"-"`
}

// SetExtra records a strategy-specific key/value on the result.
func (r *Result) SetExtra(k, v string) {
	if r.Extra == nil {
		r.Extra = make(map[string]string)
	}
	r.Extra[k] = v
}

// OK reports whether the run completed.
func (r *Result) OK() bool { return r.Err == "" }

// fail records the error that ended the run.
func (r *Result) fail(err error) {
	r.Err = err.Error()
	r.OOM = errors.Is(err, gpu.ErrOOM)
}

// Record flattens the result into the machine-readable record
// coarsebench emits under -json.
func (r *Result) Record() metrics.Result {
	if r.Serve != nil {
		return serveRecord(r)
	}
	rec := metrics.Result{ID: r.ID, Err: r.Err, Extra: r.Extra}
	if t := r.Train; t != nil {
		rec.Labels = map[string]string{
			"strategy": t.Strategy,
			"machine":  t.Machine,
			"model":    t.Model,
		}
		rec.Values = map[string]float64{
			"batch":          float64(t.Batch),
			"workers":        float64(t.Workers),
			"iterations":     float64(t.Iterations),
			"seed":           float64(r.Seed),
			"total_time_s":   t.TotalTime.ToSeconds(),
			"iter_time_s":    t.IterTime.ToSeconds(),
			"compute_time_s": t.ComputeTime.ToSeconds(),
			"blocked_comm_s": t.BlockedComm.ToSeconds(),
			"gpu_util":       t.GPUUtil,
			"edge_bus_util":  t.EdgeBusUtil,
			"cci_bus_util":   t.CCIBusUtil,
			"events":         float64(t.Events),
			"throughput_sps": t.Throughput(),
		}
		for _, lu := range t.LinkUtils {
			rec.Values["link_util/"+lu.Link] = lu.Util
		}
		for _, tu := range t.TierUtils {
			rec.Values["tier_util/"+tu.Tier] = tu.Util
		}
		// Chaos values appear only on faulted runs so fault-free
		// records stay byte-identical to the pre-chaos format.
		if t.ChaosFaults > 0 {
			rec.Values["chaos_faults"] = float64(t.ChaosFaults)
			rec.Values["chaos_stall_s"] = t.ChaosStall.ToSeconds()
		}
		// Layout columns appear only on sharded runs, same convention:
		// data-parallel records keep the historical byte format.
		if t.Layout != "" {
			rec.Labels["layout"] = t.Layout
			var dp, pp, tp, ep int
			if _, err := fmt.Sscanf(t.Layout, "dp%d-pp%d-tp%d-ep%d", &dp, &pp, &tp, &ep); err == nil {
				rec.Values["dp"] = float64(dp)
				rec.Values["pp"] = float64(pp)
				rec.Values["tp"] = float64(tp)
				rec.Values["ep"] = float64(ep)
			}
		}
	}
	return rec
}

// Records flattens a batch of results.
func Records(results []*Result) []metrics.Result {
	recs := make([]metrics.Result, len(results))
	for i, r := range results {
		recs[i] = r.Record()
	}
	return recs
}

// Observer receives cell lifecycle notifications from a Pool. Both
// hooks run on pool worker goroutines — possibly several concurrently —
// so implementations must be safe for concurrent use. The hooks are
// strictly observational: the Result handed to CellFinished is the
// same immutable value the caller receives (cache hits included), and
// observers must not mutate it. Because observation happens outside
// the simulation, attaching an observer can never change a single
// output byte — the property coarsebench -serve is built on.
type Observer interface {
	// CellStarted fires just before the cell executes (or is served
	// from the memoization cache).
	CellStarted(s Spec)
	// CellFinished fires once the cell's Result exists; res is non-nil
	// even for failed cells (Result.Err carries the failure).
	CellFinished(s Spec, res *Result)
}

// Pool executes independent simulation cells on a bounded set of worker
// goroutines. The zero value runs with GOMAXPROCS workers.
type Pool struct {
	// Parallel is the worker count; <= 0 means GOMAXPROCS.
	Parallel int
	// Observer, when non-nil, is notified as cells start and finish.
	// See the Observer contract; it never affects results.
	Observer Observer
}

func (p *Pool) workers() int {
	if p == nil || p.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.Parallel
}

// Run runs every spec, training and serving alike, and returns results
// aligned by index. Output is byte-identical regardless of Parallel:
// cells share no mutable state and seeds derive from the specs, so
// ordering cannot leak into values.
func (p *Pool) Run(specs []Spec) []*Result {
	var obs Observer
	if p != nil {
		obs = p.Observer
	}
	return Map(p.workers(), len(specs), func(i int) *Result {
		if obs != nil {
			obs.CellStarted(specs[i])
		}
		res := runCached(specs[i])
		if obs != nil {
			obs.CellFinished(specs[i], res)
		}
		return res
	})
}

// Map runs job(0..n-1) on up to parallel goroutines and returns the
// results by index. parallel <= 0 means GOMAXPROCS; parallel == 1 runs
// inline with no goroutines at all.
func Map[T any](parallel, n int, job func(i int) T) []T {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	out := make([]T, n)
	if parallel == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			out[i] = job(i)
		}
		return out
	}
	if parallel > n {
		parallel = n
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// cache memoizes keyed cells across experiments (Figure 16 and Figure
// 17 render different views of the same training runs). Stored Results
// are treated as immutable; the simulation is deterministic, so a hit
// returns exactly what recomputation would.
var cache sync.Map // string -> *Result

// ClearCache drops all memoized results (tests use it to force
// recomputation when checking determinism).
func ClearCache() {
	cache.Range(func(k, _ any) bool {
		cache.Delete(k)
		return true
	})
}

func runCached(s Spec) *Result {
	if s.Key == "" || s.Telemetry {
		return Run(s)
	}
	if v, ok := cache.Load(s.Key); ok {
		return v.(*Result)
	}
	res := Run(s)
	if v, loaded := cache.LoadOrStore(s.Key, res); loaded {
		// A concurrent cell computed the same key; both computed the
		// same values (deterministic), keep the stored one for pointer
		// stability.
		return v.(*Result)
	}
	return res
}

// Run executes one cell serially in the calling goroutine, bypassing
// the cache. A panic inside the simulation or a hook is captured into
// Result.Err, dropping every output the cell had produced, so one bad
// cell cannot take down a whole suite regeneration.
func Run(s Spec) (res *Result) {
	res = &Result{ID: s.ID, Seed: s.DerivedSeed()}
	defer func() {
		if v := recover(); v != nil {
			*res = Result{ID: res.ID, Seed: res.Seed, Err: fmt.Sprintf("panic: %v", v)}
		}
	}()
	if s.Workload != nil {
		runServe(s, res)
	} else {
		runTrain(s, res)
	}
	return res
}

// runTrain is Run's body for a training cell.
func runTrain(s Spec, res *Result) {
	if s.NewStrategy == nil {
		res.Err = "runner: spec has no strategy"
		return
	}
	cfg := train.DefaultConfig(s.Topology, s.Model, s.Batch, s.Iterations)
	cfg.Seed = res.Seed
	cfg.Chaos = s.Chaos
	cfg.Layout = s.Layout
	cfg.FlatCollectives = s.FlatCollectives
	if s.Telemetry {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	if s.Configure != nil {
		s.Configure(&cfg)
	}
	strat := s.NewStrategy()
	tr, err := train.New(cfg, strat)
	var tres *train.Result
	if err == nil {
		tres, err = tr.Run()
	}
	if err != nil {
		res.fail(err)
		return
	}
	res.Train = tres
	s.finish(res, tr.TelemetryDump(), &Probe{Trainer: tr, Strategy: strat, Result: res})
}

// finish attaches a successful cell's telemetry dump, labelled with
// the cell's identity, and then runs its Probe hook.
func (s Spec) finish(res *Result, d *telemetry.Dump, p *Probe) {
	if d != nil {
		d.SetLabel("id", s.ID)
		d.SetLabel("seed", fmt.Sprint(res.Seed))
		res.Telemetry = d
	}
	if s.Probe != nil {
		s.Probe(p)
	}
}
