package profiler

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"coarse/internal/cci"
	"coarse/internal/fabric"
	"coarse/internal/sim"
	"coarse/internal/telemetry"
	"coarse/internal/topology"
)

// rackSpec is the generated 8-rack machine, 128 workers and 16
// rack-tier memory devices, that the memo test and
// BenchmarkProfilerBuildTable profile.
func rackSpec() topology.Spec {
	return topology.ScaleSpec{Racks: 8, NodesPerRack: 4, GPUsPerNode: 4, MemDevs: 16, MemDevTier: topology.TierRack, Oversub: 2}.Generate()
}

// profiled is what profiling every worker of a machine leaves behind.
type profiled struct {
	tables           []string // one line per table, floats as bits
	state            []string // engine, fabric and channel state, one field per line
	dump             []byte   // the telemetry dump, when a registry was attached
	probes, replayed int
}

// profileAll builds every worker's table against every memory device
// on a fresh machine, with the probe memo on or off and a telemetry
// registry attached or not, and records what it leaves behind.
func profileAll(spec topology.Spec, memo, withTelemetry bool) profiled {
	eng := sim.NewEngine()
	m := topology.Build(eng, spec)
	f := cci.NewFabric(m.Topology, cci.DefaultParams())
	var reg *telemetry.Registry
	if withTelemetry {
		reg = telemetry.NewRegistry()
		telemetry.RegisterLinks(reg, eng, m.Net.Links())
		telemetry.RegisterNetwork(reg, m.Net)
		telemetry.RegisterHotPath(reg, eng, m.Net)
		f.AttachTelemetry(reg)
	}
	p := New(f)
	p.noMemo = !memo
	var out profiled
	for _, w := range m.Workers {
		t := p.BuildTable(w, m.Devs)
		line := fmt.Sprintf("%s: lat %d bw %d S %d S' %d:", w, t.LatProxy, t.BwProxy, t.ThresholdBytes, t.PartitionBytes)
		for _, ms := range t.Measurements {
			line += fmt.Sprintf(" %d/%d/%x", ms.Proxy, ms.Latency, math.Float64bits(ms.Bandwidth))
		}
		out.tables = append(out.tables, line)
	}
	out.probes, out.replayed = p.probes, p.replayed

	st := func(format string, a ...any) { out.state = append(out.state, fmt.Sprintf(format, a...)) }
	st("engine now %d dispatched %d seq %d tombstoned %d compactions %d pending %d",
		eng.Now(), eng.Dispatched(), eng.SeqMark(), eng.EventsTombstoned(), eng.Compactions(), eng.Pending())
	n := m.Net
	st("fabric requests %d passes %d partial %d component %d rescheduled %d skipped %d aggregated %d live %d",
		n.ReshareRequests(), n.Reshares(), n.FastForwardPasses(), n.ComponentPasses(),
		n.CompletionsRescheduled(), n.CompletionsSkipped(), n.FlowsAggregated(), n.ActiveFlows())
	// Fields no getter exposes: the rank and settle bookkeeping the next
	// transfer starts from.
	nv := reflect.ValueOf(n).Elem()
	for _, name := range []string{"seqMark", "rankBase", "rankReserved", "lastSettle", "dueInstant", "dueFloor", "lastAdmitAt", "stalled"} {
		st("fabric %s %v", name, nv.FieldByName(name))
	}
	for _, l := range n.Links() {
		for _, c := range []*fabric.Channel{l.Fwd(), l.Rev()} {
			cv := reflect.ValueOf(c).Elem()
			st("%s busy %x bytes %x last %d rate %x", c.Name(),
				math.Float64bits(cv.FieldByName("busyIntegral").Float()),
				math.Float64bits(cv.FieldByName("bytesCarried").Float()),
				cv.FieldByName("lastAccount").Int(),
				math.Float64bits(cv.FieldByName("currentRate").Float()))
		}
	}
	if reg != nil {
		s := telemetry.NewSampler(eng, reg, 0, 0)
		s.Start()
		s.Finish()
		var buf bytes.Buffer
		if err := telemetry.BuildDump(s).WriteJSON(&buf); err != nil {
			panic(err)
		}
		out.dump = buf.Bytes()
	}
	return out
}

// firstDiff returns the first line where a and b differ, or "" when
// they are equal.
func firstDiff(a, b []string) string {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return fmt.Sprintf("line %d:\n  memo on:  %s\n  memo off: %s", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("%d lines with the memo on, %d off", len(a), len(b))
	}
	return ""
}

// TestProbeMemoIsExact: profiling every worker of every preset and of
// a generated rack machine with the probe memo on must leave bitwise
// what simulating every probe leaves: the tables, the engine's clock,
// dispatch count and ranks, the fabric's counters and bookkeeping, each
// channel's accounting, and, with a registry attached, the telemetry
// dump's bytes. On the rack machine the memo must serve at least 99% of
// the probes, so a closed form that stops matching the simulation
// fails here rather than quietly simulating every probe.
func TestProbeMemoIsExact(t *testing.T) {
	specs := append(topology.Presets(), rackSpec())
	for _, spec := range specs {
		for _, tel := range []bool{false, true} {
			on, off := profileAll(spec, true, tel), profileAll(spec, false, tel)
			if d := firstDiff(on.tables, off.tables); d != "" {
				t.Errorf("%s (telemetry %v): tables differ at %s", spec.Label, tel, d)
			}
			if d := firstDiff(on.state, off.state); d != "" {
				t.Errorf("%s (telemetry %v): state differs at %s", spec.Label, tel, d)
			}
			if !bytes.Equal(on.dump, off.dump) {
				t.Errorf("%s: telemetry dumps differ", spec.Label)
			}
			if off.replayed != 0 || on.probes != off.probes {
				t.Fatalf("%s: memo off replayed %d probes; %d probes on, %d off", spec.Label, off.replayed, on.probes, off.probes)
			}
			if spec.Label == rackSpec().Label && 100*on.replayed < 99*on.probes {
				t.Errorf("%s (telemetry %v): the memo served %d of %d probes, want at least 99%%",
					spec.Label, tel, on.replayed, on.probes)
			}
			t.Logf("%s (telemetry %v): %d of %d probes replayed", spec.Label, tel, on.replayed, on.probes)
		}
	}
}
