package telemetry

import (
	"coarse/internal/fabric"
	"coarse/internal/sim"
)

// RegisterLinks registers the standard per-channel gauge set for every
// link: instantaneous allocated rate and active-flow count (the
// piecewise-constant state each max-min reshare produces), the exact
// running integral of allocated rate ("cum_bytes"), instantaneous
// utilization, and running-mean utilization. The mean_util series'
// final sample equals fabric.Channel.Utilization(TotalTime) to the
// bit, which is what makes the dump a correctness oracle for
// RunMetrics' aggregates.
func RegisterLinks(r *Registry, eng *sim.Engine, links []*fabric.Link) {
	if r == nil {
		return
	}
	for _, l := range links {
		for _, dc := range []struct {
			dir string
			c   *fabric.Channel
		}{{"fwd", l.Fwd()}, {"rev", l.Rev()}} {
			c := dc.c
			base := "fabric/" + l.Name() + "/" + dc.dir
			r.GaugeFunc(base+"/rate_bps", "B/s", c.CurrentRate)
			r.GaugeFunc(base+"/flows", "flows", func() float64 {
				return float64(c.ActiveFlowCount())
			})
			r.GaugeFunc(base+"/cum_bytes", "B", func() float64 {
				return c.IntegratedBytes(eng.Now())
			})
			r.GaugeFunc(base+"/util", "frac", func() float64 {
				if c.Capacity() <= 0 {
					return 0
				}
				return c.CurrentRate() / c.Capacity()
			})
			r.GaugeFunc(base+"/mean_util", "frac", func() float64 {
				return c.Utilization(eng.Now())
			})
		}
	}
}

// RegisterNetwork registers network-wide fabric gauges: the reshare
// request count (one per flow admission, completion, or capacity
// change — what Network.Reshares reported before requests and passes
// were split by coalescing) and the currently active flow count.
//
// The reshares gauge deliberately samples ReshareRequests, not
// Reshares: requests are a function of the simulated workload alone,
// so the series is stable across engine-internal optimizations like
// same-instant coalescing, keeping telemetry dumps byte-comparable
// between implementations. The pass count and the other hot-path
// internals are available opt-in via RegisterHotPath.
func RegisterNetwork(r *Registry, n *fabric.Network) {
	if r == nil {
		return
	}
	r.GaugeFunc("fabric/reshares", "count", func() float64 { return float64(n.ReshareRequests()) })
	r.GaugeFunc("fabric/active_flows", "flows", func() float64 { return float64(n.ActiveFlows()) })
}

// RegisterHotPath registers the fabric/sim hot-path efficiency
// counters: reallocation passes actually run vs. coalesced away,
// completion deadlines rescheduled vs. skipped, and the event queue's
// tombstone/compaction activity. These series are opt-in — they
// describe the simulator's own internals rather than the simulated
// system, and registering them changes dump bytes, so default
// telemetry keeps them off to preserve byte-identical output across
// engine versions.
func RegisterHotPath(r *Registry, eng *sim.Engine, n *fabric.Network) {
	if r == nil {
		return
	}
	if n != nil {
		r.GaugeFunc("fabric/reshare_passes", "count", func() float64 { return float64(n.Reshares()) })
		r.GaugeFunc("fabric/reshares_coalesced", "count", func() float64 { return float64(n.ResharesCoalesced()) })
		r.GaugeFunc("fabric/completions_rescheduled", "count", func() float64 { return float64(n.CompletionsRescheduled()) })
		r.GaugeFunc("fabric/completions_skipped", "count", func() float64 { return float64(n.CompletionsSkipped()) })
		r.GaugeFunc("fabric/flows_aggregated", "count", func() float64 { return float64(n.FlowsAggregated()) })
		r.GaugeFunc("fabric/fastforward_passes", "count", func() float64 { return float64(n.FastForwardPasses()) })
		r.GaugeFunc("fabric/component_passes", "count", func() float64 { return float64(n.ComponentPasses()) })
		// Group-size distribution of aggregated fans: bucket bounds
		// track the power-of-two fan widths the strategies produce
		// (ring fragments up to full all-to-one fans at cell scale).
		gh := r.Histogram("fabric/group_size", "members", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096})
		n.OnGroupComplete(func(members int) { gh.Observe(float64(members)) })
	}
	if eng != nil {
		r.GaugeFunc("sim/events_tombstoned", "count", func() float64 { return float64(eng.EventsTombstoned()) })
		r.GaugeFunc("sim/queue_compactions", "count", func() float64 { return float64(eng.Compactions()) })
	}
}
