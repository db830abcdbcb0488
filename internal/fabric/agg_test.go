package fabric

import (
	"testing"

	"coarse/internal/sim"
)

// runFan admits k size-sized flows over path at t=0, tagged as one fan,
// plus one background flow over bgPath, and returns every completion
// time (fan members first, background last) together with the
// bottleneck channel's integrated byte count at drain. With agg false
// the network runs the reference pass, which admits every member on
// its own.
func runFan(t *testing.T, agg bool, k int, size float64, mkPaths func(n *Network) (fan, bg []*Channel)) (fanDone []sim.Time, bgDone sim.Time, bneckBytes float64) {
	t.Helper()
	defer SetReferenceFillingForTest(!agg)()
	eng, net := newNet()
	fan, bg := mkPaths(net)
	fanDone = make([]sim.Time, k)
	var tag AggTag
	eng.Schedule(0, func() {
		for i := 0; i < k; i++ {
			i := i
			net.StartEphemeralTagged(&tag, fan, size, func() { fanDone[i] = eng.Now() })
		}
		if bg != nil {
			net.StartEphemeralTagged(nil, bg, size, func() { bgDone = eng.Now() })
		}
	})
	eng.Run()
	net.Flush()
	bneckBytes = fan[0].IntegratedBytes(eng.Now())
	return fanDone, bgDone, bneckBytes
}

// TestGroupCompletionAllocsConstant: completing an aggregated group
// allocates nothing whatever its member count — the carrier and every
// fan-out member dispatch through the entry's one bound callback, and
// the fan-out recycles its one queued event as it goes.
func TestGroupCompletionAllocsConstant(t *testing.T) {
	const runs = 8
	allocs := func(k int) float64 {
		eng, net := newNet()
		completed := 0
		done := func() { completed++ }
		// One group per measured call plus AllocsPerRun's warm-up call,
		// each alone on its own link and sized to finish at its own
		// instant, all admitted before measuring.
		for g := 0; g <= runs; g++ {
			path := []*Channel{net.NewLink("l", gib, gib, 0).Fwd()}
			tag := new(AggTag)
			for i := 0; i < k; i++ {
				net.StartEphemeralTagged(tag, path, float64((g+1)*mib), done)
			}
		}
		eng.RunUntil(0)
		if got := net.FlowsAggregated(); got != uint64((runs+1)*(k-1)) {
			t.Fatalf("k=%d: %d members aggregated, want %d", k, got, (runs+1)*(k-1))
		}
		return testing.AllocsPerRun(runs, func() {
			for target := completed + k; completed < target; {
				eng.Step()
			}
		})
	}
	for _, k := range []int{4, 64} {
		if got := allocs(k); got != 0 {
			t.Errorf("completing a group of %d allocates %.1f objects, want 0", k, got)
		}
	}
}

// TestAggregatedGroupMatchesIndependentFlows pins the core byte-identity
// claim: a multiplicity-k group must carry exactly the bytes, rates, and
// completion instants of k independently admitted flows — to the last
// bit — both when the fan is alone on its bottleneck and when it shares
// the bottleneck with an untagged bystander.
func TestAggregatedGroupMatchesIndependentFlows(t *testing.T) {
	cases := []struct {
		name string
		mk   func(n *Network) (fan, bg []*Channel)
	}{
		{"fan-only", func(n *Network) ([]*Channel, []*Channel) {
			l := n.NewLink("pcie", 10*gib, 10*gib, 0)
			return []*Channel{l.Fwd()}, nil
		}},
		{"shared-bottleneck", func(n *Network) ([]*Channel, []*Channel) {
			a := n.NewLink("a", 10*gib, 10*gib, 0)
			b := n.NewLink("b", 40*gib, 40*gib, 0)
			return []*Channel{a.Fwd(), b.Fwd()}, []*Channel{a.Fwd()}
		}},
	}
	const k = 7
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			offDone, offBG, offBytes := runFan(t, false, k, 3*gib, tc.mk)
			onDone, onBG, onBytes := runFan(t, true, k, 3*gib, tc.mk)
			for i := range offDone {
				if offDone[i] != onDone[i] {
					t.Errorf("member %d: finish %v aggregated vs %v independent", i, onDone[i], offDone[i])
				}
			}
			if offBG != onBG {
				t.Errorf("bystander finish %v aggregated vs %v independent", onBG, offBG)
			}
			if offBytes != onBytes {
				t.Errorf("bottleneck integrated bytes %v aggregated vs %v independent", onBytes, offBytes)
			}
		})
	}
}
