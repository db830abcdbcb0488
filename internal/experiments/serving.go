package experiments

import (
	"fmt"

	"coarse/internal/chaos"
	"coarse/internal/metrics"
	"coarse/internal/model"
	"coarse/internal/runner"
	"coarse/internal/serve"
	"coarse/internal/sim"
	"coarse/internal/topology"
)

// The serve family opens the inference half of the roadmap: an
// open-loop request stream through continuous-batching prefill/decode
// pools on the paper's AWS V100 machine, with per-sequence KV caches
// either local to decode HBM or pooled in the CCI memory devices.
// The load sweep shows the placement trade: pooled KV sustains larger
// decode batches (local is capacity-capped by the HBM budget) at the
// price of per-step fabric traffic, and a CCI brownout under live
// traffic inflates exactly the pooled tails.

// serveRates are the offered-load intensities of the sweep, bracketing
// the machine's serving capacity (~28 rps local-capped, ~36 rps
// pooled): comfortably below, near the local knee, and past saturation.
var serveRates = []float64{12, 28, 48}

// serveMidRate indexes the intensity the arrival-shape and brownout
// variants run at.
const serveMidRate = 28

// serveRequests is the trace length: long enough at full scale for the
// queueing tails to develop, trimmed in quick mode.
func serveRequests(cfg Config) int {
	if cfg.Quick {
		return 36
	}
	return 144
}

// serveSpec builds a cacheable serving cell. Keys carry a "serve/"
// prefix so they can never alias training keys in the runner's shared
// memo cache.
func serveSpec(cfg Config, spec topology.Spec, m *model.Model, arrival serve.ArrivalKind,
	rate float64, placement serve.KVPlacement, prefetch bool) runner.Spec {
	n := serveRequests(cfg)
	id := fmt.Sprintf("serve/%s/%s/%s/r%.0f/%s/n%d", spec.Label, m.Name, arrival, rate, placement, n)
	if prefetch {
		id += "/prefetch"
	}
	return runner.Spec{
		ID:       id,
		Key:      id,
		Topology: spec,
		Model:    m,
		Workload: &serve.Workload{Arrival: arrival, RatePerSec: rate, Requests: n},
		ConfigureServe: func(c *serve.Config) {
			c.KVPlacement = placement
			c.Prefetch = prefetch
			c.PrefillWorkers = 2
		},
	}
}

// serveBrownoutFaults browns out every CCI memory-device port to 25%
// capacity for the whole serving horizon — the pool itself degrades,
// which is precisely the fabric the pooled KV placement leans on.
func serveBrownoutFaults(ports int) []chaos.Fault {
	faults := make([]chaos.Fault, ports)
	for i := range faults {
		faults[i] = chaos.Fault{
			Kind:     chaos.CCIBrownout,
			Start:    0,
			Duration: sim.Seconds(120),
			Factor:   0.25,
			Target:   i,
		}
	}
	return faults
}

type serveData struct {
	sweep    map[string]*runner.Result // rate/placement sweep, by ID
	sweepIDs map[string]string         // "r<rate>/<placement>" -> ID
	shapes   map[serve.ArrivalKind]*runner.Result
	prefetch *runner.Result
	base     *runner.Result // brownout baseline (pooled @ mid rate)
	browned  *runner.Result
	records  []metrics.Result
}

func serveRun(cfg Config) *serveData {
	spec := topology.AWSV100()
	m := evalModel("bert-base")

	// One parallel batch: the cacheable cells (load sweep, arrival
	// shapes, the prefetch variant), then the brownout cell.
	rs := &runSet{}
	sweepIDs := make(map[string]string)
	for _, rate := range serveRates {
		for _, placement := range []serve.KVPlacement{serve.KVLocal, serve.KVPooled} {
			key := fmt.Sprintf("r%.0f/%s", rate, placement)
			sweepIDs[key] = rs.add(serveSpec(cfg, spec, m, serve.Poisson, rate, placement, false))
		}
	}
	shapeIDs := make(map[serve.ArrivalKind]string)
	for _, kind := range []serve.ArrivalKind{serve.Poisson, serve.Diurnal, serve.Bursty} {
		shapeIDs[kind] = rs.add(serveSpec(cfg, spec, m, kind, serveMidRate, serve.KVPooled, false))
	}
	prefetchID := rs.add(serveSpec(cfg, spec, m, serve.Poisson, serveMidRate, serve.KVPooled, true))

	// The chaos variant. Like resilience cells it carries no cache key —
	// a browned-out run must never alias the cached baseline it is
	// compared against.
	bs := serveSpec(cfg, spec, m, serve.Poisson, serveMidRate, serve.KVPooled, false)
	bs.ID = fmt.Sprintf("serve/brownout/%s/r%.0f/n%d", spec.Label, float64(serveMidRate), serveRequests(cfg))
	bs.Key = ""
	// AWSV100 has one CCI port per memory device, four in all.
	bs.Chaos = &chaos.Spec{Faults: serveBrownoutFaults(4)}
	brownID := rs.add(bs)
	got, records := rs.results(cfg)

	data := &serveData{
		sweep:    got,
		sweepIDs: sweepIDs,
		shapes:   make(map[serve.ArrivalKind]*runner.Result),
		prefetch: got[prefetchID],
		base:     got[shapeIDs[serve.Poisson]],
		browned:  got[brownID],
		records:  records,
	}
	for kind, id := range shapeIDs {
		data.shapes[kind] = got[id]
	}
	return data
}

// serveMs renders a latency in milliseconds.
func serveMs(t sim.Time) string { return metrics.Ms(t) }

// serveRow is the shared "one serving cell" row tail.
func sweepCell(data *serveData, rate float64, placement serve.KVPlacement) *runner.Result {
	return data.sweep[data.sweepIDs[fmt.Sprintf("r%.0f/%s", rate, placement)]]
}

func renderServeGoodput(data *serveData) *metrics.Table {
	tab := metrics.NewTable("Serve: goodput vs offered load (V100 BERT, 2 prefill + 2 decode)",
		"offered rps", "kv placement", "achieved rps", "goodput rps", "slo attain", "mean batch", "cci util")
	for _, rate := range serveRates {
		for _, placement := range []serve.KVPlacement{serve.KVLocal, serve.KVPooled} {
			r := sweepCell(data, rate, placement)
			if r == nil || !r.OK() {
				continue
			}
			v := r.Serve
			tab.AddRow(
				fmt.Sprintf("%.0f", rate),
				placement.String(),
				fmt.Sprintf("%.1f", v.AchievedRPS),
				fmt.Sprintf("%.1f", v.GoodputRPS),
				metrics.Pct(v.SLOAttainment),
				fmt.Sprintf("%.2f", v.MeanBatch),
				metrics.Pct(v.CCIBusUtil),
			)
		}
	}
	return tab
}

func renderServeLatency(data *serveData) *metrics.Table {
	tab := metrics.NewTable("Serve: latency percentiles (V100 BERT, Poisson arrivals)",
		"offered rps", "kv placement",
		"ttft p50", "ttft p99", "ttft p99.9",
		"tpot p50", "tpot p99", "tpot p99.9")
	row := func(label string, placement string, v *serve.Result) {
		tab.AddRow(label, placement,
			serveMs(v.TTFT.P50), serveMs(v.TTFT.P99), serveMs(v.TTFT.P999),
			serveMs(v.TPOT.P50), serveMs(v.TPOT.P99), serveMs(v.TPOT.P999))
	}
	for _, rate := range serveRates {
		for _, placement := range []serve.KVPlacement{serve.KVLocal, serve.KVPooled} {
			r := sweepCell(data, rate, placement)
			if r == nil || !r.OK() {
				continue
			}
			row(fmt.Sprintf("%.0f", rate), placement.String(), r.Serve)
		}
	}
	if r := data.prefetch; r != nil && r.OK() {
		row(fmt.Sprintf("%.0f", float64(serveMidRate)), "pooled+prefetch", r.Serve)
	}
	return tab
}

func renderServeShapes(data *serveData) *metrics.Table {
	tab := metrics.NewTable(
		fmt.Sprintf("Serve: arrival shapes at %d rps (pooled KV)", serveMidRate),
		"arrival", "achieved rps", "goodput rps", "slo attain", "ttft p99", "tpot p99")
	for _, kind := range []serve.ArrivalKind{serve.Poisson, serve.Diurnal, serve.Bursty} {
		r := data.shapes[kind]
		if r == nil || !r.OK() {
			continue
		}
		v := r.Serve
		tab.AddRow(kind.String(),
			fmt.Sprintf("%.1f", v.AchievedRPS),
			fmt.Sprintf("%.1f", v.GoodputRPS),
			metrics.Pct(v.SLOAttainment),
			serveMs(v.TTFT.P99), serveMs(v.TPOT.P99))
	}
	return tab
}

func renderServeBrownout(data *serveData) *metrics.Table {
	tab := metrics.NewTable(
		fmt.Sprintf("Serve: CCI brownout (25%% pool-port capacity) vs baseline, pooled KV at %d rps", serveMidRate),
		"cell", "goodput rps", "ttft p99", "tpot p99", "ttft p99 infl", "tpot p99 infl", "faults")
	base, browned := data.base, data.browned
	if base == nil || !base.OK() || browned == nil || !browned.OK() {
		return tab
	}
	b, f := base.Serve, browned.Serve
	tab.AddRow("baseline", fmt.Sprintf("%.1f", b.GoodputRPS),
		serveMs(b.TTFT.P99), serveMs(b.TPOT.P99), metrics.Speedup(1), metrics.Speedup(1), uint64(0))
	tab.AddRow("brownout", fmt.Sprintf("%.1f", f.GoodputRPS),
		serveMs(f.TTFT.P99), serveMs(f.TPOT.P99),
		metrics.Speedup(f.TTFT.P99.ToSeconds()/b.TTFT.P99.ToSeconds()),
		metrics.Speedup(f.TPOT.P99.ToSeconds()/b.TPOT.P99.ToSeconds()),
		f.ChaosFaults)
	return tab
}

// Serve is the inference-serving experiment family: the KV-placement
// load sweep, arrival-shape comparison, and CCI-brownout tail study.
func Serve() Experiment {
	return Experiment{
		ID:    "serve",
		Title: "Inference serving: KV-cache pooling + continuous batching over the CCI pool",
		Paper: "Beyond the paper: the roadmap's serving workload. Pooled KV sustains larger decode batches than HBM-budgeted local placement (higher goodput past the local knee) at the cost of per-step fabric traffic; browning out the CCI pool ports inflates exactly the pooled tail latencies",
		Run: func(cfg Config) *Report {
			data := serveRun(cfg)
			rep := &Report{Records: data.records}
			rep.add(renderServeGoodput(data))
			rep.add(renderServeLatency(data))
			rep.add(renderServeShapes(data))
			rep.add(renderServeBrownout(data))
			return rep
		},
	}
}
