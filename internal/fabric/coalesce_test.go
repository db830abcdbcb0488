package fabric

import (
	"testing"

	"coarse/internal/sim"
)

// TestSameInstantAdmissionsCoalesce verifies that N flows admitted at
// the same virtual instant trigger N reshare requests but only one
// reallocation pass, and that the coalesced pass produces the same
// fair shares the eager per-trigger passes did.
func TestSameInstantAdmissionsCoalesce(t *testing.T) {
	eng, net := newNet()
	l := net.NewLink("pcie", 3*gib, 3*gib, 0)
	var done []sim.Time
	for i := 0; i < 3; i++ {
		net.Transfer([]*Channel{l.Fwd()}, gib, func() { done = append(done, eng.Now()) })
	}
	eng.Run()
	// Three equal flows over 3 GiB/s: each runs at 1 GiB/s, all finish
	// at t=1s.
	if len(done) != 3 {
		t.Fatalf("completions = %d, want 3", len(done))
	}
	for _, d := range done {
		if d != sim.Seconds(1) {
			t.Fatalf("finish times = %v, want all at 1s", done)
		}
	}
	// Triggers: 3 admissions at t=0 and 3 completions at t=1s. Each
	// instant coalesces into one pass.
	if got := net.ReshareRequests(); got != 6 {
		t.Fatalf("ReshareRequests = %d, want 6", got)
	}
	if got := net.Reshares(); got != 2 {
		t.Fatalf("Reshares (passes) = %d, want 2 (one per dirty instant)", got)
	}
	if got := net.ResharesCoalesced(); got != 4 {
		t.Fatalf("ResharesCoalesced = %d, want 4", got)
	}
}

// TestSameInstantAdmissionAndCompletion drives a completion and an
// admission onto the same instant: both must be served by one pass,
// and the admitted flow must see the full post-completion bandwidth.
func TestSameInstantAdmissionAndCompletion(t *testing.T) {
	eng, net := newNet()
	l := net.NewLink("pcie", gib, gib, 0)
	var aDone, bDone sim.Time
	net.Transfer([]*Channel{l.Fwd()}, gib, func() { aDone = eng.Now() })
	// B arrives exactly when A finishes.
	eng.Schedule(sim.Seconds(1), func() {
		net.Transfer([]*Channel{l.Fwd()}, gib, func() { bDone = eng.Now() })
	})
	eng.Run()
	if aDone != sim.Seconds(1) {
		t.Fatalf("A finish = %v, want 1s", aDone)
	}
	// B never shares with A: full 1 GiB/s from t=1s.
	if bDone != sim.Seconds(2) {
		t.Fatalf("B finish = %v, want 2s (full bandwidth after A completes)", bDone)
	}
	// Triggers: A admit (t=0), A complete + B admit (t=1s, coalesced),
	// B complete (t=2s).
	if got := net.ReshareRequests(); got != 4 {
		t.Fatalf("ReshareRequests = %d, want 4", got)
	}
	if got := net.Reshares(); got != 3 {
		t.Fatalf("Reshares (passes) = %d, want 3", got)
	}
}

// TestStalledFlowRevivalAfterSetLinkCapacity squeezes a link's
// capacity down to the smallest denormal so the fair share rounds to
// zero — both flows stall, their completion events are tombstoned —
// then restores the capacity and checks both flows revive and finish
// at the exact analytic time. This exercises the cancel-tombstone +
// PlaceRanked revival path end to end.
func TestStalledFlowRevivalAfterSetLinkCapacity(t *testing.T) {
	eng, net := newNet()
	l := net.NewLink("pcie", gib, gib, 0)
	var done []sim.Time
	for i := 0; i < 2; i++ {
		net.Transfer([]*Channel{l.Fwd()}, gib/2, func() { done = append(done, eng.Now()) })
	}
	// At t=0.5s: capacity collapses to the minimum denormal; the
	// two-way share underflows to zero and both flows stall.
	stalled := false
	eng.Schedule(sim.Seconds(0.5), func() {
		net.SetLinkCapacity(l, 5e-324, 5e-324)
	})
	eng.Schedule(sim.Seconds(0.75), func() {
		net.Flush()
		stalled = net.ActiveFlows() == 2 && l.Fwd().CurrentRate() == 0
	})
	// At t=1s: capacity restored; the flows must pick up where they
	// left off.
	eng.Schedule(sim.Seconds(1), func() {
		net.SetLinkCapacity(l, gib, gib)
	})
	eng.Run()
	if !stalled {
		t.Fatal("flows did not stall at zero rate under denormal capacity")
	}
	// Each flow: 0.5 GiB at 0.5 GiB/s for 0.5s -> 0.25 GiB left;
	// stalled 0.5s; then 0.5 GiB/s again -> 0.5s more. Finish at 1.5s.
	if len(done) != 2 {
		t.Fatalf("completions = %d, want 2 (stalled flows were never revived)", len(done))
	}
	for _, d := range done {
		if d != sim.Seconds(1.5) {
			t.Fatalf("finish times = %v, want both at 1.5s", done)
		}
	}
}

// TestZeroSizeOnDoneOrderingVsFlush pins two properties of zero-size
// transfers under coalescing: they complete at their admission instant
// without triggering a reshare, and an onDone that reads rates at an
// instant with a pending coalesced pass observes the post-pass state
// (Flush makes coalescing invisible to mid-instant readers).
func TestZeroSizeOnDoneOrderingVsFlush(t *testing.T) {
	eng, net := newNet()
	l := net.NewLink("pcie", gib, gib, 0)
	a := net.Transfer([]*Channel{l.Fwd()}, gib, nil)
	observed := -1.0
	eng.Schedule(sim.Seconds(0.25), func() {
		// Admission marks the instant dirty...
		net.Transfer([]*Channel{l.Fwd()}, gib, nil)
		// ...and a zero-size transfer's onDone fires later in the same
		// instant, before the end-of-instant flush.
		net.Transfer([]*Channel{l.Fwd()}, 0, func() {
			observed = a.Rate()
		})
	})
	eng.Run()
	if observed != gib/2 {
		t.Fatalf("rate observed by zero-size onDone = %v, want %v (post-reshare share)", observed, float64(gib/2))
	}
	// Triggers: A admit, B admit, A complete, B complete. The
	// zero-size flow must not have requested a reshare.
	if got := net.ReshareRequests(); got != 4 {
		t.Fatalf("ReshareRequests = %d, want 4 (zero-size transfer must not trigger)", got)
	}
}

// TestCompletionCascadeCountsSkips checks the rescheduled/skipped
// split: a flow whose deadline is unaffected by another flow's
// completion must be counted as skipped, not rescheduled.
func TestCompletionCascadeCountsSkips(t *testing.T) {
	eng, net := newNet()
	// Two independent links: completing a flow on one cannot move the
	// deadline of the flow on the other.
	l1 := net.NewLink("a", gib, gib, 0)
	l2 := net.NewLink("b", gib, gib, 0)
	net.Transfer([]*Channel{l1.Fwd()}, gib/2, nil) // finishes at 0.5s
	net.Transfer([]*Channel{l2.Fwd()}, gib, nil)   // finishes at 1s
	eng.Run()
	if got := net.CompletionsSkipped(); got == 0 {
		t.Fatal("CompletionsSkipped = 0, want > 0 (unaffected deadline must be left in place)")
	}
	if got := net.CompletionsRescheduled(); got == 0 {
		t.Fatal("CompletionsRescheduled = 0, want > 0")
	}
}

// TestOneCompletionEventPerNetwork pins the completion mechanism: the
// network keeps its flows' completion keys on the flows and holds one
// event in the engine queue at the earliest of them, so however many
// flows are in flight, the queue holds that event plus the caller's own.
func TestOneCompletionEventPerNetwork(t *testing.T) {
	eng, net := newNet()
	const flows, links, own = 64, 8, 3
	var ls []*Link
	for i := 0; i < links; i++ {
		ls = append(ls, net.NewLink("l", gib, gib, 0))
	}
	for i := 0; i < flows; i++ {
		net.Transfer([]*Channel{ls[i%links].Fwd()}, int64(i+1)*mib, nil)
	}
	for i := 0; i < own; i++ {
		eng.Schedule(sim.Seconds(1), func() {})
	}
	check := func(stage string) {
		t.Helper()
		if got := eng.Pending(); got != 1+own {
			t.Fatalf("%s: %d pending events with %d flows live, want %d (one completion event plus %d of the caller's)",
				stage, got, net.ActiveFlows(), 1+own, own)
		}
	}
	eng.RunUntil(0)
	if got := net.ActiveFlows(); got != flows {
		t.Fatalf("%d flows live after admission, want %d", got, flows)
	}
	check("after admission")
	// Run to half way through the completions, then to the end of that
	// instant, so its flush has re-keyed the survivors.
	for net.ActiveFlows() > flows/2 {
		eng.Step()
	}
	eng.RunUntil(eng.Now())
	check("half way")
	eng.Run()
	if got := eng.Pending(); got != 0 {
		t.Fatalf("after the run: %d pending events, want 0", got)
	}
}
