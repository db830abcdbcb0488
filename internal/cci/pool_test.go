package cci

import (
	"testing"

	"coarse/internal/sim"
	"coarse/internal/topology"
)

// TestDMACopyStreamAllocsZero: once the DMA records, the fabric's flows
// and the engine's events have grown their free lists, a stream of
// copies — direct and host-bounced DMAs, single and in symmetric fans,
// empty and with an odd remainder — allocates nothing. The V100
// machine moves GPU copies peer to peer; the T4 machine bounces them
// through host memory.
func TestDMACopyStreamAllocsZero(t *testing.T) {
	for _, tc := range []struct {
		name    string
		spec    topology.Spec
		bounced bool
	}{
		{"p2p", topology.AWSV100(), false},
		{"bounced", topology.AWST4(), true},
	} {
		eng := sim.NewEngine()
		m := topology.Build(eng, tc.spec)
		f := NewFabric(m.Topology, DefaultParams())
		done := 0
		onDone := func() { done++ }
		burst := func() {
			f.DMACopy(m.Workers[0], m.Devs[1], 3*mib+3, onDone)
			f.DMACopy(m.Workers[1], m.Devs[0], mib, onDone)
			f.DMACopy(m.Workers[1], m.Devs[0], mib, onDone)
			f.DMACopy(m.Workers[1], m.Workers[0], 0, onDone)
			f.DMACopy(m.CPUs[0], m.Devs[0], mib, onDone)
			eng.Run()
		}
		const warm = 100
		for i := 0; i < warm; i++ {
			burst()
		}
		if got := testing.AllocsPerRun(50, burst); got != 0 {
			t.Errorf("%s: a burst of copies allocates %.1f objects, want 0", tc.name, got)
		}
		if want := (warm + 51) * 5; done != want {
			t.Fatalf("%s: %d copies completed, want %d", tc.name, done, want)
		}
		if got := f.bounces.Len() > 0; got != tc.bounced {
			t.Fatalf("%s: bounce records recycled = %v, want %v", tc.name, got, tc.bounced)
		}
		if f.directs.Len() == 0 {
			t.Fatalf("%s: no direct DMA record was recycled", tc.name)
		}
	}
}

// TestBouncedDMAReuseDeterministic: a bounced DMA issued from inside
// another bounced DMA's onDone takes the record the first one just
// returned. With warm free lists, the chain must finish at the same
// offsets, dispatch the same events and aggregate the same staging
// chunks as on fresh objects: nothing of the first copy (its counter,
// its size classes, its staging groups) leaks into the second. DMASetup
// is zero, so the second copy starts at the instant the first ends.
func TestBouncedDMAReuseDeterministic(t *testing.T) {
	eng := sim.NewEngine()
	m := topology.Build(eng, topology.AWST4())
	p := DefaultParams()
	p.DMASetup = 0
	f := NewFabric(m.Topology, p)
	type outcome struct {
		ends       [3]sim.Time
		dispatched uint64
		aggregated uint64
	}
	chain := func() outcome {
		var o outcome
		t0, d0, a0 := eng.Now(), eng.Dispatched(), m.Net.FlowsAggregated()
		f.DMACopy(m.Workers[0], m.Devs[1], 4*mib+3, func() {
			o.ends[0] = eng.Now() - t0
			f.DMACopy(m.Workers[0], m.Devs[1], 2*mib+1, func() {
				o.ends[1] = eng.Now() - t0
			})
			f.DMACopy(m.Devs[1], m.Workers[0], 0, func() {
				o.ends[2] = eng.Now() - t0
			})
		})
		eng.Run()
		o.dispatched = eng.Dispatched() - d0
		o.aggregated = m.Net.FlowsAggregated() - a0
		return o
	}
	fresh := chain()
	if fresh.aggregated == 0 {
		t.Fatal("the chain aggregates no staging chunks; the test would not see a stale group")
	}
	for i := 0; i < 3; i++ {
		if got := chain(); got != fresh {
			t.Fatalf("pass %d on warm free lists: %+v, want %+v as on fresh objects", i+1, got, fresh)
		}
	}
}
