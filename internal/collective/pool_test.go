package collective

import (
	"slices"
	"testing"

	"coarse/internal/sim"
	"coarse/internal/topology"
)

// fabricRing wires a ring over the V100 machine's memory devices, each
// hop an ephemeral transfer, as the trainer's rings send theirs. sent,
// when non-nil, sees every hop.
func fabricRing(eng *sim.Engine, sent func(i int, reverse bool, size int64)) (*topology.Machine, *Ring) {
	m := topology.Build(eng, topology.AWSV100())
	devs := m.Devs
	p := len(devs)
	send := func(i int, reverse bool, size int64, onDone func()) {
		j := (i + 1) % p
		if reverse {
			j = (i - 1 + p) % p
		}
		if sent != nil {
			sent(i, reverse, size)
		}
		m.TransferEphemeral(devs[i], devs[j], size, onDone)
	}
	return m, NewRing(eng, p, send)
}

// fabricHierarchy wires a two-level hierarchy over the two-node V100
// machine's workers.
func fabricHierarchy(eng *sim.Engine) (*topology.Machine, *Hierarchy) {
	m := topology.Build(eng, topology.MultiNodeV100(2))
	groups := [][]int{{}, {}}
	for i, w := range m.Workers {
		groups[w.Node] = append(groups[w.Node], i)
	}
	send := func(from, to int, size int64, onDone func()) {
		m.TransferEphemeral(m.Workers[from], m.Workers[to], size, onDone)
	}
	return m, NewHierarchy(eng, groups, send)
}

// TestAllReduceBytesAllocsZero: once the ring's records, the fabric's
// flows and the engine's events have grown their free lists, a burst of
// two overlapping AllReduceBytes calls over a real fabric — opposite
// directions, payloads that do not split evenly — allocates nothing,
// with free and with charged reductions. A hierarchy's two-level
// reduction, node rings, leader ring and broadcast chains included,
// allocates nothing either.
func TestAllReduceBytesAllocsZero(t *testing.T) {
	for _, alu := range []float64{0, 4e9} {
		eng := sim.NewEngine()
		_, r := fabricRing(eng, nil)
		r.ALUBytesPerSec = alu
		done := 0
		onDone := func() { done++ }
		burst := func() {
			r.AllReduceBytes(1<<20+3, false, onDone)
			r.AllReduceBytes(1<<16+1, true, onDone)
			eng.Run()
		}
		const warm = 20
		for i := 0; i < warm; i++ {
			burst()
		}
		if got := testing.AllocsPerRun(20, burst); got != 0 {
			t.Errorf("ALU %g: a burst of ring allreduces allocates %.1f objects, want 0", alu, got)
		}
		if want := (warm + 21) * 2; done != want {
			t.Fatalf("ALU %g: %d allreduces completed, want %d", alu, done, want)
		}
	}

	eng := sim.NewEngine()
	_, h := fabricHierarchy(eng)
	h.ALUBytesPerSec = 4e9
	done := 0
	onDone := func() { done++ }
	burst := func() {
		h.AllReduceBytes(1<<20+5, onDone)
		eng.Run()
	}
	const warm = 100
	for i := 0; i < warm; i++ {
		burst()
	}
	if got := testing.AllocsPerRun(20, burst); got != 0 {
		t.Errorf("a hierarchical allreduce allocates %.1f objects, want 0", got)
	}
	if want := warm + 21; done != want {
		t.Fatalf("%d hierarchical allreduces completed, want %d", done, want)
	}
}

// TestAllReduceBytesReuseDeterministic: two overlapping AllReduceBytes
// calls on one ring, the second started mid-way through the first and
// in the other direction. Run again on warm free lists — each call now
// on a record an earlier call left behind — the schedule must end at
// the same offsets, dispatch the same events, aggregate the same flows
// and send the same hops, in order and size, as on fresh objects. A
// record that kept its rotated sendSeg, its step or remaining counter,
// or its direction would move a segment or a round boundary.
func TestAllReduceBytesReuseDeterministic(t *testing.T) {
	type hop struct {
		i       int
		reverse bool
		size    int64
	}
	var hops []hop
	eng := sim.NewEngine()
	m, r := fabricRing(eng, func(i int, reverse bool, size int64) {
		hops = append(hops, hop{i, reverse, size})
	})
	r.ALUBytesPerSec = 8e9
	type outcome struct {
		ends       [2]sim.Time
		dispatched uint64
		aggregated uint64
	}
	schedule := func() outcome {
		var o outcome
		hops = hops[:0]
		t0, d0, a0 := eng.Now(), eng.Dispatched(), m.Net.FlowsAggregated()
		r.AllReduceBytes(3<<20+1, false, func() { o.ends[0] = eng.Now() - t0 })
		eng.Schedule(40_000, func() {
			r.AllReduceBytes(1<<20+2, true, func() { o.ends[1] = eng.Now() - t0 })
		})
		eng.Run()
		o.dispatched = eng.Dispatched() - d0
		o.aggregated = m.Net.FlowsAggregated() - a0
		return o
	}
	fresh := schedule()
	freshHops := append([]hop(nil), hops...)
	if fresh.ends[1] <= 40_000 || fresh.ends[0] <= 40_000 {
		t.Fatalf("the calls do not overlap: %+v", fresh)
	}
	for i := 0; i < 3; i++ {
		if got := schedule(); got != fresh {
			t.Fatalf("pass %d on warm free lists: %+v, want %+v as on fresh objects", i+1, got, fresh)
		}
		if !slices.Equal(hops, freshHops) {
			t.Fatalf("pass %d on warm free lists sends other hops than on fresh objects", i+1)
		}
	}
}
