package runner

import (
	"fmt"
	"hash/fnv"

	"coarse/internal/metrics"
	"coarse/internal/model"
	"coarse/internal/serve"
	"coarse/internal/telemetry"
	"coarse/internal/topology"
)

// ServeSpec describes one independent serving-simulation cell — the
// inference counterpart of Spec, executed on the same pool with the
// same memoization and determinism guarantees.
type ServeSpec struct {
	// ID uniquely labels the cell; it participates in seed derivation.
	ID string
	// Key memoizes the Result like Spec.Key; experiment families prefix
	// serve keys with "serve/" so they can never alias a training key in
	// the shared cache. Leave empty for chaos cells.
	Key string

	Topology topology.Spec
	Model    *model.Model
	Workload serve.Workload

	// Options adjusts the serve.Config after defaults apply (KV
	// placement, prefetch, pool split, chaos...). It runs inside
	// the cell, so it must not touch shared mutable state.
	Options func(*serve.Config)

	// Seed overrides the derived per-spec seed when non-zero.
	Seed int64

	// Telemetry mirrors Spec.Telemetry: build a registry, attach the
	// dump to the Result, bypass the cache.
	Telemetry bool
}

// DerivedSeed mirrors Spec.DerivedSeed over the serving identity
// fields: the workload shape joins the hash because it changes the
// generated trace the way Batch/Iterations change a training run.
func (s ServeSpec) DerivedSeed() int64 {
	if s.Seed != 0 {
		return s.Seed
	}
	h := fnv.New64a()
	mname := ""
	if s.Model != nil {
		mname = s.Model.Name
	}
	fmt.Fprintf(h, "%s|%s|%s|%s|%g|%d", s.ID, s.Topology.Label, mname,
		s.Workload.Arrival, s.Workload.RatePerSec, s.Workload.Requests)
	seed := int64(h.Sum64() >> 1)
	if seed == 0 {
		seed = 1
	}
	return seed
}

// observerSpec is the minimal training-shaped Spec handed to Observer
// hooks for serving cells: observers predate serving and key off the
// ID, which is all a serving cell shares with the training shape.
func (s ServeSpec) observerSpec() Spec {
	return Spec{ID: s.ID, Topology: s.Topology, Model: s.Model, Seed: s.Seed}
}

// Serve runs every serving spec and returns results aligned by index,
// byte-identical regardless of Parallel — same contract as Train.
func (p *Pool) Serve(specs []ServeSpec) []*Result {
	var obs Observer
	if p != nil {
		obs = p.Observer
	}
	return Map(p.workers(), len(specs), func(i int) *Result {
		if obs != nil {
			obs.CellStarted(specs[i].observerSpec())
		}
		res := runServeCached(specs[i])
		if obs != nil {
			obs.CellFinished(specs[i].observerSpec(), res)
		}
		return res
	})
}

func runServeCached(s ServeSpec) *Result {
	if s.Key == "" || s.Telemetry {
		return RunServe(s)
	}
	if v, ok := cache.Load(s.Key); ok {
		return v.(*Result)
	}
	res := RunServe(s)
	if v, loaded := cache.LoadOrStore(s.Key, res); loaded {
		return v.(*Result)
	}
	return res
}

// RunServe executes one serving cell serially, bypassing the cache,
// with the same panic capture as Run.
func RunServe(s ServeSpec) (res *Result) {
	res = &Result{ID: s.ID, Seed: s.DerivedSeed()}
	defer func() {
		if v := recover(); v != nil {
			res.Err = fmt.Sprintf("panic: %v", v)
			res.Serve = nil
		}
	}()
	cfg := serve.DefaultConfig(s.Topology, s.Model, s.Workload)
	cfg.Seed = res.Seed
	if s.Telemetry {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	if s.Options != nil {
		s.Options(&cfg)
	}
	sv, err := serve.New(cfg)
	var sres *serve.Result
	if err == nil {
		sres, err = sv.Run()
	}
	if err != nil {
		res.fail(err)
		return res
	}
	res.Serve = sres
	if d := sv.TelemetryDump(); d != nil {
		d.SetLabel("id", s.ID)
		d.SetLabel("seed", fmt.Sprint(res.Seed))
		res.Telemetry = d
	}
	return res
}

// serveRecord flattens a serving result into the machine-readable
// record shape coarsebench emits under -json.
func serveRecord(r *Result) metrics.Result {
	rec := metrics.Result{ID: r.ID, Err: r.Err, Extra: r.Extra}
	v := r.Serve
	rec.Labels = map[string]string{
		"workload":  "serve",
		"machine":   v.Machine,
		"model":     v.Model,
		"placement": v.Placement,
		"arrival":   v.Arrival,
	}
	rec.Values = map[string]float64{
		"seed":            float64(r.Seed),
		"workers":         float64(v.Workers),
		"prefill_workers": float64(v.PrefillWorkers),
		"decode_workers":  float64(v.DecodeWorkers),
		"requests":        float64(v.Requests),
		"completed":       float64(v.Completed),
		"offered_rps":     v.OfferedRPS,
		"achieved_rps":    v.AchievedRPS,
		"goodput_rps":     v.GoodputRPS,
		"slo_attainment":  v.SLOAttainment,
		"total_time_s":    v.TotalTime.ToSeconds(),
		"ttft_p50_s":      v.TTFT.P50.ToSeconds(),
		"ttft_p99_s":      v.TTFT.P99.ToSeconds(),
		"ttft_p999_s":     v.TTFT.P999.ToSeconds(),
		"tpot_p50_s":      v.TPOT.P50.ToSeconds(),
		"tpot_p99_s":      v.TPOT.P99.ToSeconds(),
		"tpot_p999_s":     v.TPOT.P999.ToSeconds(),
		"mean_batch":      v.MeanBatch,
		"kv_fabric_b":     float64(v.KVFabricBytes),
		"param_fabric_b":  float64(v.ParamFabricBytes),
		"edge_bus_util":   v.EdgeBusUtil,
		"cci_bus_util":    v.CCIBusUtil,
		"events":          float64(v.Events),
	}
	if v.ChaosFaults > 0 {
		rec.Values["chaos_faults"] = float64(v.ChaosFaults)
		rec.Values["chaos_stall_s"] = v.ChaosStall.ToSeconds()
	}
	return rec
}
