package fabric

import (
	"math"
	"slices"
	"testing"

	"coarse/internal/sim"
)

// runAgg runs one admission script on a fresh network and returns
// every transfer's completion time (in the order the script asked for
// their callbacks), every channel's integrated byte count at drain, and
// how many transfers the fabric folded into a group entry. With agg
// false the network runs the reference pass, which admits every
// transfer on its own. rec hands the script one completion callback
// per transfer.
func runAgg(t *testing.T, agg bool, script func(eng *sim.Engine, net *Network, rec func() func())) (doneAt []sim.Time, bytes []float64, aggregated uint64) {
	t.Helper()
	defer SetReferenceFillingForTest(!agg)()
	eng, net := newNet()
	rec := func() func() {
		i := len(doneAt)
		doneAt = append(doneAt, -1)
		return func() { doneAt[i] = eng.Now() }
	}
	script(eng, net, rec)
	eng.Run()
	net.Flush()
	for _, l := range net.Links() {
		bytes = append(bytes, l.Fwd().IntegratedBytes(eng.Now()), l.Rev().IntegratedBytes(eng.Now()))
	}
	return doneAt, bytes, net.FlowsAggregated()
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
			for i := 0; i < k; i++ {
				net.StartEphemeral(path, float64((g+1)*mib), done)
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
// claim and the join rule. A multiplicity-k group must carry exactly
// the bytes, rates, and completion instants of k independently
// admitted flows — to the last bit — when the fan is alone on its
// bottleneck, when it shares the bottleneck with a bystander, when its
// members come from different callers, and when each member passes its
// own slice of the same channels. The other cases pin what
// must not join: a handle flow, a transfer after a foreign admission,
// one of another size, and a repeat at a later instant. Each case states how many transfers
// fold, and is checked against the reference pass either way.
func TestAggregatedGroupMatchesIndependentFlows(t *testing.T) {
	const size = 3 * gib
	// One one-hop route per link.
	links := func(n *Network) (a, b []*Channel) {
		return []*Channel{n.NewLink("a", 10*gib, 10*gib, 0).Fwd()},
			[]*Channel{n.NewLink("b", 40*gib, 40*gib, 0).Fwd()}
	}
	cases := []struct {
		name   string
		folded uint64
		script func(eng *sim.Engine, net *Network, rec func() func())
	}{
		{"fan-only", 6, func(eng *sim.Engine, net *Network, rec func() func()) {
			a, _ := links(net)
			for i := 0; i < 7; i++ {
				net.StartEphemeral(a, size, rec())
			}
		}},
		{"shared-bottleneck", 6, func(eng *sim.Engine, net *Network, rec func() func()) {
			a, b := links(net)
			fan := []*Channel{a[0], b[0]}
			for i := 0; i < 7; i++ {
				net.StartEphemeral(fan, size, rec())
			}
			net.StartEphemeral(a, size, rec())
		}},
		// The handle flow neither joins the entry before it nor is joined
		// by the one after it; the last two ephemerals start a new group.
		{"handle-flow", 1, func(eng *sim.Engine, net *Network, rec func() func()) {
			a, _ := links(net)
			net.StartEphemeral(a, size, rec())
			net.StartFlow(a, size, rec())
			net.StartEphemeral(a, size, rec())
			net.StartEphemeral(a, size, rec())
		}},
		// An admission over another path breaks the run: only the last
		// transfer, which repeats the one right before it, joins.
		{"foreign-between", 1, func(eng *sim.Engine, net *Network, rec func() func()) {
			a, b := links(net)
			net.StartEphemeral(a, size, rec())
			net.StartEphemeral(b, size, rec())
			net.StartEphemeral(a, size, rec())
			net.StartEphemeral(a, size, rec())
		}},
		// A transfer of another size over the same path starts a group
		// of its own.
		{"other-size", 1, func(eng *sim.Engine, net *Network, rec func() func()) {
			a, _ := links(net)
			net.StartEphemeral(a, size, rec())
			net.StartEphemeral(a, size/2, rec())
			net.StartEphemeral(a, size/2, rec())
		}},
		// A repeat one nanosecond later is admitted on its own; two
		// repeats at that later instant fold with each other.
		{"later-instant", 1, func(eng *sim.Engine, net *Network, rec func() func()) {
			a, _ := links(net)
			net.StartEphemeral(a, size, rec())
			eng.Schedule(1, func() {
				net.StartEphemeral(a, size, rec())
				net.StartEphemeral(a, size, rec())
			})
		}},
		// Equal routes fold whatever slices carry them: each transfer
		// passes a fresh slice of the same channels.
		{"equal-slices", 1, func(eng *sim.Engine, net *Network, rec func() func()) {
			a, b := links(net)
			net.StartEphemeral([]*Channel{a[0], b[0]}, size, rec())
			net.StartEphemeral([]*Channel{a[0], b[0]}, size, rec())
		}},
		// Two independent callers, each emitting one transfer from its
		// own event at the same instant, back to back.
		{"two-callers", 1, func(eng *sim.Engine, net *Network, rec func() func()) {
			a, b := links(net)
			fan := []*Channel{a[0], b[0]}
			net.StartEphemeral(a, size/2, rec())
			eng.Schedule(0, func() { net.StartEphemeral(fan, size, rec()) })
			eng.Schedule(0, func() { net.StartEphemeral(fan, size, rec()) })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			refDone, refBytes, refFolded := runAgg(t, false, tc.script)
			onDone, onBytes, folded := runAgg(t, true, tc.script)
			if refFolded != 0 {
				t.Errorf("the reference pass folded %d transfers, want 0", refFolded)
			}
			if folded != tc.folded {
				t.Errorf("%d transfers folded into a group, want %d", folded, tc.folded)
			}
			if len(onDone) != len(refDone) {
				t.Fatalf("%d transfers, reference %d", len(onDone), len(refDone))
			}
			for i := range refDone {
				if refDone[i] < 0 || onDone[i] != refDone[i] {
					t.Errorf("transfer %d: finish %v aggregated vs %v independent", i, onDone[i], refDone[i])
				}
			}
			for i := range refBytes {
				if math.Float64bits(onBytes[i]) != math.Float64bits(refBytes[i]) {
					t.Errorf("channel %d: integrated bytes %v aggregated vs %v independent", i, onBytes[i], refBytes[i])
				}
			}
		})
	}
}

// TestCallerRouteNotKept: the fabric copies a route's channels before
// StartFlow or StartEphemeral returns, so a caller may reuse its slice
// at once. A script that passes one buffer to every call and
// overwrites it with another link's channel right after each must
// finish every transfer when the same script with a fresh slice per
// call does, leave the same bytes on every channel and none on the
// scribbled link, and see the same handle-flow rates.
func TestCallerRouteNotKept(t *testing.T) {
	const size = 3 * gib
	var done [2][]sim.Time
	var bytes, rates [2][]float64
	for pass, reuse := range []bool{false, true} {
		done[pass], bytes[pass], _ = runAgg(t, true, func(eng *sim.Engine, net *Network, rec func() func()) {
			a := net.NewLink("a", 10*gib, 10*gib, 100).Fwd()
			b := net.NewLink("b", 40*gib, 40*gib, 30).Fwd()
			spare := net.NewLink("spare", gib, gib, 7).Fwd()
			var buf []*Channel
			route := func(hops ...*Channel) []*Channel {
				if !reuse {
					return hops
				}
				buf = append(buf[:0], hops...)
				return buf
			}
			scribble := func() {
				for i := range buf {
					buf[i] = spare
				}
			}
			f := net.StartFlow(route(a, b), size, rec())
			scribble()
			net.StartEphemeral(route(a), size, rec())
			scribble()
			net.StartEphemeral(route(a), size, rec())
			scribble()
			eng.Schedule(200, func() {
				net.StartEphemeral(route(b), size/2, rec())
				scribble()
				rates[pass] = append(rates[pass], f.Rate())
			})
			eng.Schedule(sim.Seconds(0.1), func() { rates[pass] = append(rates[pass], f.Rate()) })
		})
	}
	if !slices.Equal(done[1], done[0]) {
		t.Errorf("completion times %v with a reused, overwritten slice, %v with fresh slices", done[1], done[0])
	}
	if !slices.Equal(rates[1], rates[0]) {
		t.Errorf("handle flow rates %v with a reused, overwritten slice, %v with fresh slices", rates[1], rates[0])
	}
	if !slices.Equal(bytes[1], bytes[0]) {
		t.Errorf("channel bytes %v with a reused, overwritten slice, %v with fresh slices", bytes[1], bytes[0])
	}
	if spare := bytes[1][4]; spare != 0 {
		t.Errorf("the scribbled link carried %v bytes, want 0", spare)
	}
}
