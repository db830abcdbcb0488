package fabric

import (
	"fmt"
	"strings"
	"testing"

	"coarse/internal/sim"
)

// tieOrderScript runs one network through the same-instant cases the
// completion bookkeeping must order exactly, and returns the dispatch
// log: the virtual time and label of every onDone and of every foreign
// event, in dispatch order. Each phase starts at its own second:
//
//   - 0s: three flows due at the same nanosecond, beside a foreign
//     event scheduled before their admission, one scheduled after it,
//     and one scheduled from inside the first completion's onDone;
//   - 2s: an aggregated group of four fanning out at the same
//     nanosecond as a plain flow, with a foreign event from inside the
//     first member's onDone;
//   - 4s: three flows due at one nanosecond, the middle one short of
//     its last byte by float dust, so it alone is parked;
//   - 5s: a foreign admission landing at the nanosecond two dusty flows
//     are due, parking every due entry at once;
//   - 6s: every live flow stalled by a denormal capacity, then revived.
func tieOrderScript() []string {
	eng, net := newNet()
	var log []string
	note := func(label string) func() {
		return func() { log = append(log, fmt.Sprintf("%d %s", eng.Now(), label)) }
	}
	foreign := func(at sim.Time, label string) { eng.At(at, note(label)) }
	path := func(name string, capacity float64, latency sim.Time) []*Channel {
		return []*Channel{net.NewLink(name, capacity, capacity, latency).Fwd()}
	}
	s := sim.Seconds

	// Phase 0s.
	foreign(s(1), "pre1")
	pa, pb, pc := path("a", gib, 0), path("b", gib, 0), path("c", gib, 0)
	net.Transfer(pa, gib, func() {
		note("a")()
		foreign(eng.Now(), "a.onDone")
	})
	net.Transfer(pb, gib, note("b"))
	net.Transfer(pc, gib, note("c"))
	eng.At(s(0.5), func() { foreign(s(1), "mid1") })

	// Phase 2s.
	foreign(s(2.5), "pre2")
	pd, pe := path("d", gib, 0), path("e", gib, 0)
	eng.At(s(2), func() {
		for i := 0; i < 4; i++ {
			label := fmt.Sprintf("g%d", i)
			done := note(label)
			if i == 0 {
				done = func() {
					note(label)()
					foreign(eng.Now(), "g0.onDone")
				}
			}
			net.StartEphemeral(pd, gib/8, done)
		}
		net.Transfer(pe, gib/2, note("e"))
	})

	// Phase 4s: 2009 B at 2e9 B/s and 4019 B at 4e9 B/s are delivered
	// within 1005 ns of admission; 1005 B at 1e9 B/s is due then too, but
	// the settle leaves dust, so it fires one nanosecond later.
	foreign(s(4)+1005, "pre4")
	pf, pg, ph := path("f", 2e9, 0), path("g", 1e9, 0), path("h", 4e9, 0)
	eng.At(s(4), func() {
		net.Transfer(pf, 2009, func() {
			note("f")()
			foreign(eng.Now(), "f.onDone")
		})
		net.Transfer(pg, 1005, note("g.dust"))
		net.Transfer(ph, 4019, note("h"))
		foreign(s(4)+1005, "post4")
	})

	// Phase 5s: the latency-delayed admission on "lat" fires at 5s+1005,
	// ahead of both dusty completions due then.
	pl, pi, pj := path("lat", gib, 1005), path("i", 1e9, 0), path("j", 1e9, 0)
	eng.At(s(5), func() {
		net.Transfer(pl, 1<<20, note("lat"))
		net.Transfer(pi, 1005, note("i.dust"))
		net.Transfer(pj, 1005, note("j.dust"))
	})

	// Phase 6s: 5e-324 B/s halves to zero, so both flows stall.
	foreign(s(7.5), "pre6")
	ps := path("s", gib, 0)
	eng.At(s(6), func() {
		net.Transfer(ps, gib/2, note("s1"))
		net.Transfer(ps, gib/2, note("s2"))
	})
	eng.At(s(6.5), func() {
		net.SetLinkCapacity(net.Links()[len(net.Links())-1], 5e-324, 5e-324)
	})
	eng.At(s(6.75), func() {
		note(fmt.Sprintf("stalled live=%d rate=%v", net.ActiveFlows(), ps[0].CurrentRate()))()
	})
	eng.At(s(7), func() {
		net.SetLinkCapacity(net.Links()[len(net.Links())-1], gib, gib)
	})

	eng.Run()
	return append(log, fmt.Sprintf("dispatched %d at %d", eng.Dispatched(), eng.Now()))
}

// TestTieOrderPinned checks the full dispatch log of tieOrderScript
// against a literal captured before completions left the event heap
// (when every flow held its own completion event), so the
// one-event-per-network bookkeeping is held to the per-flow ordering
// of every same-nanosecond tie it reaches.
func TestTieOrderPinned(t *testing.T) {
	want := []string{
		"1000000000 pre1",
		"1000000000 a",
		"1000000000 mid1",
		"1000000000 b",
		"1000000000 a.onDone",
		"1000000000 c",
		"2500000000 pre2",
		"2500000000 g0",
		"2500000000 g1",
		"2500000000 g2",
		"2500000000 g3",
		"2500000000 g0.onDone",
		"2500000000 e",
		"4000001005 pre4",
		"4000001005 post4",
		"4000001005 f",
		"4000001005 h",
		"4000001005 f.onDone",
		"4000001006 g.dust",
		"5000001006 i.dust",
		"5000001006 j.dust",
		"5000977568 lat",
		"6750000000 stalled live=2 rate=0",
		"7500000000 pre6",
		"7500000000 s1",
		"7500000000 s2",
		"dispatched 49 at 7500000000",
	}
	got := tieOrderScript()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("dispatch log changed:\n got:\n\t%s\nwant:\n\t%s",
			strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}
