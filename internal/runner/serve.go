package runner

import (
	"coarse/internal/metrics"
	"coarse/internal/serve"
	"coarse/internal/telemetry"
)

// runServe is Run's body for a serving cell.
func runServe(s Spec, res *Result) {
	cfg := serve.DefaultConfig(s.Topology, s.Model, *s.Workload)
	cfg.Seed = res.Seed
	cfg.Chaos = s.Chaos
	if s.Telemetry {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	if s.ConfigureServe != nil {
		s.ConfigureServe(&cfg)
	}
	sv, err := serve.New(cfg)
	var sres *serve.Result
	if err == nil {
		sres, err = sv.Run()
	}
	if err != nil {
		res.fail(err)
		return
	}
	res.Serve = sres
	s.finish(res, sv.TelemetryDump(), &Probe{Result: res})
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
