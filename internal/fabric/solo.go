package fabric

import (
	"math"

	"coarse/internal/sim"
)

// A lone transfer on an idle network has a closed form. Admitted once
// its latency phase ends, it is the only entry on its channels, so the
// admission's pass rates it alone at its route's smallest capacity
// (loneShare with m = 1) and its completion lands at deadline's
// instant; the completion's pass folds its channels back to idle. A
// caller that starts such transfers one at a time from an idle engine
// and network (the profiler's probes) simulates one between MarkSolo
// and RecordSolo, which checks the simulation against the closed form
// and returns the counters it added, and replays every repeat over a
// route of the same hops with ReplaySolo.

// soloHops is the longest route a lone transfer is recorded or
// replayed over.
const soloHops = 16

// Idle reports whether a transfer started now would run alone: no live
// entry, no pass or completion settlement owed, no stalled rating and
// no completion event held, and the freeze bookkeeping of the last pass
// valid, so the transfer's own passes are partial ones.
func (n *Network) Idle() bool {
	return n.liveFlows == 0 && !n.ratesDirty && !n.eventsDirty && n.ffValid && n.stalled == 0 && n.doneEv == nil
}

// tally is a snapshot of the network's counters.
type tally struct {
	requests, passes, ffPasses, compPasses, rescheduled, skipped uint64
}

func (n *Network) tally() tally {
	return tally{n.requests, n.passes, n.ffPasses, n.compPasses, n.rescheduled, n.skipped}
}

// SoloMark is the state a recorded stretch starts from (see MarkSolo).
type SoloMark struct {
	route            []*Channel
	idle             bool
	dispatched, seqs uint64
	tally            tally
	chans            [soloHops]struct {
		busy, bytes float64
		last        sim.Time
	}
}

// Solo is what a recorded stretch added to the engine's and the
// network's counters. The transfer's timing and its channels'
// accounting follow from the closed form (soloForm).
type Solo struct {
	dispatched, seqs uint64
	tally            tally
}

// MarkSolo snapshots the engine and network, and the accounting of
// route's channels, before a stretch that will start one transfer over
// route is simulated.
func (n *Network) MarkSolo(route []*Channel) SoloMark {
	m := SoloMark{
		route: route, idle: n.Idle() && n.eng.Pending() == 0,
		dispatched: n.eng.Dispatched(), seqs: n.eng.SeqMark(), tally: n.tally(),
	}
	for i, c := range route[:min(len(route), soloHops)] {
		m.chans[i].busy, m.chans[i].bytes, m.chans[i].last = c.busyIntegral, c.bytesCarried, c.lastAccount
	}
	return m
}

// soloForm is the closed form of a lone transfer of size bytes over
// route that enters the idle network at start: its rate, the route's
// smallest capacity (loneShare with m = 1), its admission once the
// route's latency has passed, and its completion deadline.
func (n *Network) soloForm(route []*Channel, size float64, start sim.Time) (rate float64, admit, end sim.Time) {
	if len(route) > soloHops {
		panic("fabric: a lone transfer's route is longer than soloHops")
	}
	var buf [soloHops]int32
	ids := buf[:len(route)]
	admit = start
	for i, c := range route {
		ids[i] = c.id
		admit += c.latency
	}
	rate, _, ok := n.loneShare(ids, 1, 0)
	if !ok {
		panic("fabric: a lone transfer's route carries a live flow")
	}
	return rate, admit, deadline(admit, size, rate)
}

// RecordSolo returns the counters the stretch simulated since mark
// added, and reports whether the stretch left what ReplaySolo writes.
// The stretch started one transfer of size bytes over mark's route,
// entering the network at start, and ran the engine dry. It must have
// started from an idle engine and network and ended at the closed
// form's completion instant with both idle again, each route channel's
// busy integral, bytes carried and accounting state bitwise what
// ReplaySolo's two folds write, and the rank and settle bookkeeping
// what ReplaySolo sets. Otherwise the caller keeps simulating such
// transfers.
func (n *Network) RecordSolo(mark SoloMark, size float64, start sim.Time) (Solo, bool) {
	route := mark.route
	if !mark.idle || !n.Idle() || len(route) == 0 || len(route) > soloHops {
		return Solo{}, false
	}
	rate, admit, end := n.soloForm(route, size, start)
	if n.eng.Now() != end || n.seqMark != n.eng.SeqMark() || n.rankBase != n.seqMark || n.rankReserved != 1 ||
		n.lastSettle != end || n.dueInstant != end || n.dueFloor != farFuture || n.lastAdmitAt != admit {
		return Solo{}, false
	}
	for i, c := range route {
		want := Channel{busyIntegral: mark.chans[i].busy, lastAccount: mark.chans[i].last}
		want.account(admit, rate)
		want.account(end, 0)
		if math.Float64bits(c.busyIntegral) != math.Float64bits(want.busyIntegral) || c.lastAccount != end ||
			c.currentRate != 0 || math.Float64bits(c.bytesCarried) != math.Float64bits(mark.chans[i].bytes+size) {
			return Solo{}, false
		}
	}
	t, t0 := n.tally(), mark.tally
	return Solo{
		dispatched: n.eng.Dispatched() - mark.dispatched,
		seqs:       n.eng.SeqMark() - mark.seqs,
		tally: tally{
			t.requests - t0.requests, t.passes - t0.passes, t.ffPasses - t0.ffPasses, t.compPasses - t0.compPasses,
			t.rescheduled - t0.rescheduled, t.skipped - t0.skipped,
		},
	}, true
}

// ReplaySolo stands in for simulating a recorded stretch again: one
// transfer of size bytes over route, entering the idle network at
// start, whose simulation RecordSolo found to match the closed form
// for a route of the same hops and the same size. It moves the
// engine's clock to the completion instant, which it returns, and adds
// the recorded engine counts (sim.Engine.Replay); it runs each route
// channel's two accounting folds, at admission and at completion, and
// adds the bytes carried; it adds the recorded network counters; and it
// leaves the rank and settle bookkeeping as the transfer's completion
// does. It panics on a busy network.
func (n *Network) ReplaySolo(route []*Channel, size float64, start sim.Time, s Solo) sim.Time {
	if !n.Idle() {
		panic("fabric: ReplaySolo on a busy network")
	}
	rate, admit, end := n.soloForm(route, size, start)
	n.eng.Replay(end, s.dispatched, s.seqs)
	for _, c := range route {
		c.account(admit, rate)
		c.account(end, 0)
		c.bytesCarried += size
	}
	n.requests += s.tally.requests
	n.passes += s.tally.passes
	n.ffPasses += s.tally.ffPasses
	n.compPasses += s.tally.compPasses
	n.rescheduled += s.tally.rescheduled
	n.skipped += s.tally.skipped
	// What the transfer's admission and completion leave: the one rank
	// its admission reserved, last of the stretch's, and the settle and
	// due-list scans of its completion instant.
	n.seqMark = n.eng.SeqMark()
	n.rankBase, n.rankReserved = n.seqMark, 1
	n.lastSettle, n.dueInstant, n.dueFloor = end, end, farFuture
	n.lastAdmitted, n.lastAdmitAt = nil, admit
	return end
}
