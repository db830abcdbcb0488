package fabric

// Property-based regression for the max-min allocator: a few hundred
// seeded random networks and flow schedules, with three invariants
// checked after every allocation pass (admissions, completions and
// capacity changes each get a checkpoint that flushes the pending pass
// before reading rates):
//
//	(a) capacity: no channel's summed flow rates exceed its capacity
//	    (beyond float roundoff);
//	(b) progress + bottleneck witness: every admitted unfinished flow
//	    has a positive rate, and its rate is frozen by some saturated
//	    channel on its path — the defining shape of a max-min fair
//	    allocation (a flow whose path had slack everywhere could be
//	    raised, so the pass was not max-min);
//	(c) conservation: when the schedule drains, every channel's
//	    carried-byte counter equals the summed sizes of the flows
//	    routed through it, and the rate integral agrees with it up to
//	    nanosecond completion-rounding;
//	(d) oracle: every admitted unfinished flow's rate equals, bit for
//	    bit, what refMaxMin — a textbook solver written independently
//	    of the fabric's pass — computes for the callers' paths and the
//	    capacities;
//	(e) bookkeeping: the freeze counts the partial passes rely on
//	    agree with a recount over the live flows;
//	(f) entries: every live entry's rate bits and freezing channel
//	    equal refMaxMin's over the live entries, each expanded into its
//	    members, so every shortcut pass and every tie-break matches a
//	    fresh fill bit for bit, and folding members into a group entry
//	    changes no rate;
//	(g) fold: every channel's folded rate equals, bit for bit, what
//	    refChannelRate — a re-sum of the channel's whole active list —
//	    derives, so every pass re-summed each channel whose rate could
//	    have moved, and each channel's head cursor sits at or before
//	    its first live entry.
//
// Clustered cases split the channels into disjoint groups and keep each
// flow's path inside one group, so the flow graph has several
// components and the fabric serves passes by refilling only the
// triggered ones; each such case also runs on the reference pass and
// must match it bit for bit.
//
// The unit tests pin exact scenarios; this layer pins the algebra on
// shapes nobody hand-wrote, including multi-hop contention patterns and
// mid-flight capacity changes.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"coarse/internal/sim"
)

// propCase is one random scenario: links, flows with start offsets,
// and optional capacity changes.
type propCase struct {
	eng   *sim.Engine
	net   *Network
	chans []*Channel
	flows []*propFlow
}

type propFlow struct {
	f    *Flow
	path []*Channel
	size float64
}

// buildPropCase generates the scenario for one seed; onEvent fires
// after every admission, completion and capacity change. Everything —
// link count, capacities, latencies, paths, sizes, offsets, capacity
// changes — derives from the seeded rng, so a failure report's seed
// reproduces the exact case. clusters < 2 draws paths over all
// channels; otherwise the links split into that many disjoint groups
// and every path stays inside one group. With burst set (clustered
// cases only), every flow of a group is admitted at the group's one
// instant, as the steps of a collective are.
func buildPropCase(rng *rand.Rand, clusters int, burst bool, onEvent func(where string)) *propCase {
	eng := sim.NewEngine()
	pc := &propCase{eng: eng, net: NewNetwork(eng)}
	nLinks := 1 + rng.Intn(8)
	nFlows := 1 + rng.Intn(30)
	if clusters >= 2 {
		// Enough links and flows that no channel carries a large share
		// of the live flows, which is when a component search proceeds.
		nLinks = clusters * (4 + rng.Intn(5))
		nFlows = 40 + rng.Intn(80)
	}
	links := make([]*Link, nLinks)
	for i := range links {
		// Capacities log-uniform over 1 MB/s .. 1 GB/s, possibly
		// asymmetric; latency up to 10 us (never zero, so "admitted"
		// is cleanly observable as StartTime > 0).
		fwd := math.Pow(10, 6+3*rng.Float64())
		rev := fwd
		if rng.Intn(3) == 0 {
			rev = math.Pow(10, 6+3*rng.Float64())
		}
		if clusters >= 2 {
			// Few distinct capacities, so fair shares tie and the tie
			// rule decides which channel freezes a flow.
			fwd = 1e8 * float64(int(1)<<rng.Intn(3))
			rev = 1e8 * float64(int(1)<<rng.Intn(3))
		}
		links[i] = pc.net.NewLink(fmt.Sprintf("l%d", i), fwd, rev, sim.Time(1+rng.Intn(10000)))
		pc.chans = append(pc.chans, links[i].Fwd(), links[i].Rev())
	}
	// A group's admission instant leaves room for the longest path
	// latency (4 hops of at most 10 us) before it.
	var admitAt []sim.Time
	if burst {
		for g := 0; g < clusters; g++ {
			admitAt = append(admitAt, sim.Time(40_000+rng.Intn(5_000_000)))
		}
	}
	for i := 0; i < nFlows; i++ {
		// Path: 1..4 distinct channels in random order. Distinctness
		// matters: a flow crossing the same channel twice would double
		// its own contribution to the channel rate.
		group := pc.chans
		g := 0
		if clusters >= 2 {
			// Link i belongs to group i mod clusters.
			g = rng.Intn(clusters)
			group = nil
			for l := g; l < nLinks; l += clusters {
				group = append(group, links[l].Fwd(), links[l].Rev())
			}
		}
		perm := rng.Perm(len(group))
		hops := 1 + rng.Intn(4)
		if hops > len(group) {
			hops = len(group)
		}
		path := make([]*Channel, hops)
		for h := 0; h < hops; h++ {
			path[h] = group[perm[h]]
		}
		pf := &propFlow{path: path, size: math.Pow(10, 3+5*rng.Float64())}
		pc.flows = append(pc.flows, pf)
		var start sim.Time
		if burst {
			start = admitAt[g] - PathLatency(path)
		} else {
			start = sim.Time(rng.Intn(5_000_000))
		}
		eng.Schedule(start, func() {
			pf.f = pc.net.StartFlow(pf.path, pf.size, func() { onEvent("completion") })
		})
		// The admission itself happens one path latency after the
		// start; check just past that instant.
		eng.Schedule(start+PathLatency(path)+1, func() { onEvent("admission") })
	}
	// A third of the cases change link capacities mid-flight: the
	// invariants must hold across reallocation under new constraints.
	if rng.Intn(3) == 0 {
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			l := links[rng.Intn(len(links))]
			factor := 0.25 + 1.25*rng.Float64()
			at := sim.Time(rng.Intn(8_000_000))
			eng.Schedule(at, func() {
				pc.net.SetLinkCapacity(l, l.Fwd().Capacity()*factor, l.Rev().Capacity()*factor)
				onEvent("capacity-change")
			})
		}
	}
	return pc
}

// refMaxMin is a textbook progressive-filling solver, written
// independently of the fabric's pass: until every flow is frozen, find
// the channel with the smallest fair share (residual capacity over the
// unfrozen flows crossing it), freeze every unfrozen flow crossing it
// at that share, and charge the share to each channel on those flows'
// paths. An exact tie goes to the lowest channel id, the fabric's rule,
// so the rates are comparable bit for bit. A residual is clamped at 0
// only where it is read: once negative it stays negative under further
// charges, so the shares are those of clamping every charge, as the
// fabric does. It returns each flow's rate and freezing channel; a
// flow whose rate is 0 reports channel -1, as the fabric's freeze
// bookkeeping records a stalled entry.
func refMaxMin(paths [][]*Channel) (rates []float64, bnecks []int32) {
	nch := 0
	for _, p := range paths {
		for _, c := range p {
			nch = max(nch, int(c.id)+1)
		}
	}
	residual := make([]float64, nch)
	for _, p := range paths {
		for _, c := range p {
			residual[c.id] = c.Capacity()
		}
	}
	rates = make([]float64, len(paths))
	bnecks = make([]int32, len(paths))
	frozen := make([]bool, len(paths))
	for left := len(paths); left > 0; {
		count := make([]int, nch)
		for i, p := range paths {
			if !frozen[i] {
				for _, c := range p {
					count[c.id]++
				}
			}
		}
		// Scanning ids upward with a strict < keeps the lowest id of a tie.
		bneck := int32(-1)
		share := math.Inf(1)
		for id, k := range count {
			if k == 0 {
				continue
			}
			if s := math.Max(residual[id], 0) / float64(k); s < share {
				bneck, share = int32(id), s
			}
		}
		for i, p := range paths {
			if frozen[i] || !slices.ContainsFunc(p, func(c *Channel) bool { return c.id == bneck }) {
				continue
			}
			frozen[i] = true
			rates[i], bnecks[i] = share, bneck
			if share <= 0 {
				bnecks[i] = -1
			}
			left--
			for _, c := range p {
				residual[c.id] -= share
			}
		}
	}
	return rates, bnecks
}

// checkRefOracle asserts invariant (f): after the pending pass, every
// live entry carries refMaxMin's rate, bit for bit, and its freezing
// channel, where refMaxMin sees each entry as mult separate members.
func checkRefOracle(t *testing.T, n *Network, label string) {
	t.Helper()
	n.Flush()
	var ents []*Flow
	var paths [][]*Channel
	for _, f := range n.flows {
		if f.finished {
			continue
		}
		ents = append(ents, f)
		path := make([]*Channel, len(f.pathIDs))
		for i, id := range f.pathIDs {
			path[i] = n.channels[id]
		}
		for j := 0; j < f.mult; j++ {
			paths = append(paths, path)
		}
	}
	rates, bnecks := refMaxMin(paths)
	i := 0
	for k, f := range ents {
		for j := 0; j < f.mult; j, i = j+1, i+1 {
			if math.Float64bits(f.rate) != math.Float64bits(rates[i]) || f.bneck != bnecks[i] {
				t.Errorf("%s t=%v: entry %d member %d/%d rate %.17g frozen on %d; reference solver %.17g on %d",
					label, n.eng.Now(), k, j, f.mult, f.rate, f.bneck, rates[i], bnecks[i])
			}
		}
	}
}

// refChannelRate is the utilization fold's per-channel sum as it was
// before channels kept a head cursor, kept as a read-only oracle: it
// walks the channel's whole active list in admission order and adds
// each live entry's positive rate once per member.
func refChannelRate(c *Channel) float64 {
	rate := 0.0
	for _, f := range c.active {
		if f.finished || f.rate <= 0 {
			continue
		}
		for j := 0; j < f.mult; j++ {
			rate += f.rate
		}
	}
	return rate
}

// checkFold asserts invariant (g): after the pending pass, every
// channel's folded rate is refChannelRate's, bit for bit, and only
// finished entries lie before its head cursor.
func checkFold(t *testing.T, n *Network, label string) {
	t.Helper()
	n.Flush()
	for _, c := range n.channels {
		if want := refChannelRate(c); math.Float64bits(c.currentRate) != math.Float64bits(want) {
			t.Errorf("%s t=%v: channel %s folded rate %.17g, whole-list re-sum %.17g",
				label, n.eng.Now(), c.Name(), c.currentRate, want)
		}
		for i, f := range c.active[:c.head] {
			if !f.finished {
				t.Errorf("%s t=%v: channel %s head %d passes the live entry at index %d",
					label, n.eng.Now(), c.Name(), c.head, i)
				break
			}
		}
	}
}

// checkAllocation flushes the pending pass and asserts invariants (a),
// (b), (d), (e), (f) and (g) on the settled allocation.
func (pc *propCase) checkAllocation(t *testing.T, seed int, where string) {
	t.Helper()
	pc.net.Flush()
	// (a) capacity.
	for _, c := range pc.chans {
		if rate := c.CurrentRate(); rate > c.Capacity()*(1+1e-9)+1e-9 {
			t.Errorf("seed %d %s t=%v: channel %s rate %.6g exceeds capacity %.6g",
				seed, where, pc.eng.Now(), c.Name(), rate, c.Capacity())
		}
	}
	// (b) progress and bottleneck witness.
	for fi, pf := range pc.flows {
		f := pf.f
		if f == nil || f.Finished() || f.StartTime() == 0 {
			continue // not yet started, still in latency phase, or done
		}
		saturated := false
		for _, c := range pf.path {
			if c.CurrentRate() >= c.Capacity()*(1-1e-6) {
				saturated = true
				break
			}
		}
		if f.Rate() <= 0 {
			t.Errorf("seed %d %s t=%v: unfinished flow %d has rate %.6g",
				seed, where, pc.eng.Now(), fi, f.Rate())
		} else if !saturated {
			t.Errorf("seed %d %s t=%v: flow %d rate %.6g has slack on every path channel (not max-min)",
				seed, where, pc.eng.Now(), fi, f.Rate())
		}
	}
	// (d) oracle.
	var live []*propFlow
	var paths [][]*Channel
	for _, pf := range pc.flows {
		if pf.f != nil && pf.f.started && !pf.f.finished {
			live = append(live, pf)
			paths = append(paths, pf.path)
		}
	}
	want, _ := refMaxMin(paths)
	for i, pf := range live {
		if got := pf.f.Rate(); math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Errorf("seed %d %s t=%v: flow rate %.17g, reference solver %.17g",
				seed, where, pc.eng.Now(), got, want[i])
		}
	}
	// (e) freeze bookkeeping: the per-channel freeze counts and the
	// stalled count that partial passes trust match a recount over the
	// live entries.
	if n := pc.net; n.ffValid {
		frozen := make([]int32, len(n.frozenCount))
		stalled := 0
		for _, f := range n.flows {
			switch {
			case f.finished:
			case f.bneck >= 0:
				frozen[f.bneck]++
			default:
				stalled++
			}
		}
		if !slices.Equal(frozen, n.frozenCount) || stalled != n.stalled {
			t.Errorf("seed %d %s t=%v: freeze counts %v, %d stalled; recount %v, %d stalled",
				seed, where, pc.eng.Now(), n.frozenCount, n.stalled, frozen, stalled)
		}
	}
	// (f) entries and (g) fold.
	label := fmt.Sprintf("seed %d %s", seed, where)
	checkRefOracle(t, pc.net, label)
	checkFold(t, pc.net, label)
}

// checkConservation asserts invariant (c) after the schedule drained.
func (pc *propCase) checkConservation(t *testing.T, seed int) {
	t.Helper()
	end := pc.eng.Now()
	expected := make(map[*Channel]float64)
	count := make(map[*Channel]int)
	for fi, pf := range pc.flows {
		if pf.f == nil || !pf.f.Finished() {
			t.Fatalf("seed %d: flow %d never finished", seed, fi)
		}
		if pf.f.Remaining() != 0 {
			t.Errorf("seed %d: finished flow %d has %g bytes remaining", seed, fi, pf.f.Remaining())
		}
		if pf.f.FinishTime() < pf.f.StartTime() {
			t.Errorf("seed %d: flow %d finished at %v before starting at %v",
				seed, fi, pf.f.FinishTime(), pf.f.StartTime())
		}
		for _, c := range pf.path {
			expected[c] += pf.size
			count[c]++
		}
	}
	for _, c := range pc.chans {
		want := expected[c]
		if got := c.BytesCarried(); math.Abs(got-want) > 1e-6*want+1e-6 {
			t.Errorf("seed %d: channel %s carried %.6g bytes, flows routed %.6g",
				seed, c.Name(), got, want)
		}
		// The rate integral may differ from the carried bytes by up to
		// ~1 byte per completion (deadlines round up to whole
		// nanoseconds at <= 1 GB/s) plus float roundoff.
		tol := 1e-6*want + 16*float64(count[c]) + 1e-6
		if got := c.IntegratedBytes(end); math.Abs(got-want) > tol {
			t.Errorf("seed %d: channel %s integrated %.6g bytes, flows routed %.6g (tol %.3g)",
				seed, c.Name(), got, want, tol)
		}
	}
}

// TestMaxMinProperties drives ~200 seeded random scenarios and checks
// the allocator invariants at every admission, completion and capacity
// change, at eight random probe instants per scenario, and once after
// the schedule drains (followed by the conservation check).
func TestMaxMinProperties(t *testing.T) {
	for seed := 0; seed < 200; seed++ {
		var pc *propCase
		pc = buildPropCase(rand.New(rand.NewSource(int64(seed)+1)), 0, false, func(where string) {
			pc.checkAllocation(t, seed, where)
		})
		rng := rand.New(rand.NewSource(int64(seed) * 977))
		for i := 0; i < 8; i++ {
			at := sim.Time(rng.Intn(20_000_000))
			pc.eng.Schedule(at, func() { pc.checkAllocation(t, seed, "probe") })
		}
		pc.eng.Run()
		pc.checkAllocation(t, seed, "drained")
		pc.checkConservation(t, seed)
		if t.Failed() {
			t.Fatalf("seed %d: stopping at first failing scenario", seed)
		}
	}
}

// TestMaxMinClusteredMatchesReference runs clustered cases — two to
// four disjoint channel groups, so the flow graph has several
// components — on the default fabric and again on the reference pass.
// Every checkpoint of both runs checks the invariants and the oracle;
// the two runs must then agree bit for bit on every rate at every
// checkpoint, every flow's finish time and every channel's carried and
// integrated bytes. The test fails if no case served a pass by
// refilling only the triggered components, so it cannot pass
// vacuously.
func TestMaxMinClusteredMatchesReference(t *testing.T) {
	checkClusteredMatchesReference(t, 7919, false)
}

// TestMaxMinClusteredBurstMatchesReference is the clustered check with
// every group admitting all its flows at one instant: the passes that
// admit a group fill only new entries, often in several components at
// once, and their many tied fair shares leave the tie rule to decide
// every freeze.
func TestMaxMinClusteredBurstMatchesReference(t *testing.T) {
	checkClusteredMatchesReference(t, 104729, true)
}

// checkClusteredMatchesReference runs 60 clustered cases seeded from
// seedBase on the default fabric and on the reference pass and
// requires bitwise agreement (see TestMaxMinClusteredMatchesReference).
func checkClusteredMatchesReference(t *testing.T, seedBase int64, burst bool) {
	t.Helper()
	type outcome struct {
		rates               []float64 // every live flow's rate at every checkpoint
		finish              []sim.Time
		carried, integrated []float64
		componentPasses     uint64
	}
	run := func(seed int, reference bool) outcome {
		defer SetReferenceFillingForTest(reference)()
		var o outcome
		var pc *propCase
		pc = buildPropCase(rand.New(rand.NewSource(int64(seed)+seedBase)), 2+seed%3, burst, func(where string) {
			pc.checkAllocation(t, seed, where)
			for _, pf := range pc.flows {
				if pf.f != nil && pf.f.started && !pf.f.finished {
					o.rates = append(o.rates, pf.f.rate)
				}
			}
		})
		pc.eng.Run()
		pc.checkConservation(t, seed)
		o.componentPasses = pc.net.ComponentPasses()
		for _, pf := range pc.flows {
			o.finish = append(o.finish, pf.f.FinishTime())
		}
		for _, c := range pc.chans {
			o.carried = append(o.carried, c.BytesCarried())
			o.integrated = append(o.integrated, c.IntegratedBytes(pc.eng.Now()))
		}
		return o
	}
	var componentPasses uint64
	for seed := 0; seed < 60; seed++ {
		acc, ref := run(seed, false), run(seed, true)
		componentPasses += acc.componentPasses
		if ref.componentPasses != 0 {
			t.Fatalf("seed %d: reference run served %d component passes", seed, ref.componentPasses)
		}
		if !slices.Equal(acc.rates, ref.rates) {
			t.Errorf("seed %d: checkpoint rates differ from the reference pass's", seed)
		}
		for i := range acc.finish {
			if acc.finish[i] != ref.finish[i] {
				t.Errorf("seed %d: flow %d finished at %v, reference pass %v", seed, i, acc.finish[i], ref.finish[i])
			}
		}
		for i := range acc.carried {
			if acc.carried[i] != ref.carried[i] || acc.integrated[i] != ref.integrated[i] {
				t.Errorf("seed %d: channel %d carried/integrated %v/%v bytes, reference pass %v/%v",
					seed, i, acc.carried[i], acc.integrated[i], ref.carried[i], ref.integrated[i])
			}
		}
		if t.Failed() {
			t.Fatalf("seed %d: stopping at first failing scenario", seed)
		}
	}
	t.Logf("component passes over all clustered cases: %d", componentPasses)
	if componentPasses == 0 {
		t.Error("no clustered case ran a component pass; the identity check is vacuous")
	}
}

// TestWorklistOracleRandomFans checks invariants (f) and (g) on seeded
// random schedules of fans: checkRefOracle compares every live entry,
// expanded into its mult members, against refMaxMin bit for bit (the
// name predates that oracle), and checkFold checks the folding. The
// schedules are runs of identical ephemeral transfers over
// one route, which the fabric folds into multiplicity-counted
// group entries, interleaved with fans of handle flows, which it never
// folds. Every admission instant and every member completion — fan-outs
// included — is a checkpoint, so group entries are filled whole, partly
// drained and mid-fan-out. The test fails if nothing folded, so it
// cannot pass vacuously.
func TestWorklistOracleRandomFans(t *testing.T) {
	var folded uint64
	for seed := 0; seed < 60; seed++ {
		rng := rand.New(rand.NewSource(int64(seed) + 15485863))
		eng := sim.NewEngine()
		net := NewNetwork(eng)
		var chans []*Channel
		for i := 0; i < 3+rng.Intn(5); i++ {
			// Few distinct capacities, so fair shares tie.
			l := net.NewLink(fmt.Sprintf("l%d", i), 1e8*float64(int(1)<<rng.Intn(3)), 1e8, sim.Time(1+rng.Intn(1000)))
			chans = append(chans, l.Fwd(), l.Rev())
		}
		label := fmt.Sprintf("seed %d", seed)
		check := func() {
			checkRefOracle(t, net, label)
			checkFold(t, net, label)
		}
		for i := 0; i < 10+rng.Intn(20); i++ {
			perm := rng.Perm(len(chans))
			path := make([]*Channel, 1+rng.Intn(3))
			for h := range path {
				path[h] = chans[perm[h]]
			}
			size := float64((1 + rng.Intn(8)) * mib)
			members := 1 + rng.Intn(6)
			ephemeral := rng.Intn(4) != 0
			at := sim.Time(rng.Intn(2_000_000))
			eng.Schedule(at, func() {
				for j := 0; j < members; j++ {
					if ephemeral {
						net.StartEphemeral(path, size, check)
					} else {
						net.StartFlow(path, size, check)
					}
				}
			})
			eng.Schedule(at+PathLatency(path)+1, check)
		}
		eng.Run()
		folded += net.FlowsAggregated()
		if t.Failed() {
			t.Fatalf("seed %d: stopping at first failing scenario", seed)
		}
	}
	if folded == 0 {
		t.Error("no member folded into a group entry; the oracle check is vacuous")
	}
}

// TestFillTieGoesToLowestChannelID pins the tie-break rule on a case
// where it decides a freeze. Channels C, X and Y carry 1, 3 and 4 GB/s
// and are created in that order, so X has the lower id of X and Y; F1
// crosses C then X, F2 crosses Y, and F3 crosses X then Y. Round one
// freezes F1 on C at 1 GB/s. In round two X and Y tie at 2 GB/s, and
// X, the lower id, freezes F3; F2 then freezes on Y. The three flows
// are admitted in all six orders, and each order must give that
// outcome with the same rate bits.
func TestFillTieGoesToLowestChannelID(t *testing.T) {
	for _, order := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		eng, net := newNet()
		c := net.NewLink("c", 1e9, 1e9, 0).Fwd()
		x := net.NewLink("x", 3e9, 3e9, 0).Fwd()
		y := net.NewLink("y", 4e9, 4e9, 0).Fwd()
		paths := [3][]*Channel{{c, x}, {y}, {x, y}}
		var fs [3]*Flow
		for _, i := range order {
			fs[i] = net.StartFlow(paths[i], gib, nil)
		}
		eng.RunUntil(0)
		net.Flush()
		for i, w := range []struct {
			rate  float64
			bneck *Channel
		}{{1e9, c}, {2e9, y}, {2e9, x}} {
			if f := fs[i]; math.Float64bits(f.Rate()) != math.Float64bits(w.rate) || f.bneck != w.bneck.id {
				t.Errorf("order %v: F%d rate %g frozen on channel %d, want %g on %s (channel %d)",
					order, i+1, f.Rate(), f.bneck, w.rate, w.bneck.Name(), w.bneck.id)
			}
		}
		checkRefOracle(t, net, fmt.Sprintf("order %v", order))
	}
}

// TestFillIgnoresAdmissionOrder admits one multiset of handle flows at
// one instant in three shuffled orders, on the clustered cases'
// tie-prone graphs: few distinct capacities, so fair shares tie and
// the tie rule decides freezes. Every flow must get the same rate bits
// and freezing channel in every order.
func TestFillIgnoresAdmissionOrder(t *testing.T) {
	for seed := 0; seed < 60; seed++ {
		rng := rand.New(rand.NewSource(int64(seed) + 32452843))
		nLinks := 2 + rng.Intn(7)
		caps := make([][2]float64, nLinks)
		for i := range caps {
			caps[i] = [2]float64{1e8 * float64(int(1)<<rng.Intn(3)), 1e8 * float64(int(1)<<rng.Intn(3))}
		}
		// Paths as channel indices; some repeat, so the multiset has
		// several flows per path.
		var paths [][]int
		for i, n := 0, 5+rng.Intn(40); i < n; i++ {
			if len(paths) > 0 && rng.Intn(4) == 0 {
				paths = append(paths, paths[rng.Intn(len(paths))])
				continue
			}
			perm := rng.Perm(2 * nLinks)
			paths = append(paths, perm[:1+rng.Intn(min(4, len(perm)))])
		}
		type outcome struct {
			rate  uint64
			bneck int32
		}
		var want []outcome
		for run := 0; run < 3; run++ {
			eng, net := newNet()
			var chans []*Channel
			for i, c := range caps {
				l := net.NewLink(fmt.Sprintf("l%d", i), c[0], c[1], 0)
				chans = append(chans, l.Fwd(), l.Rev())
			}
			fs := make([]*Flow, len(paths))
			for _, i := range rng.Perm(len(paths)) {
				path := make([]*Channel, len(paths[i]))
				for h, ci := range paths[i] {
					path[h] = chans[ci]
				}
				fs[i] = net.StartFlow(path, gib, nil)
			}
			eng.RunUntil(0)
			net.Flush()
			for i, f := range fs {
				got := outcome{math.Float64bits(f.rate), f.bneck}
				if run == 0 {
					want = append(want, got)
				} else if got != want[i] {
					t.Errorf("seed %d order %d: flow %d on %v rate %.17g frozen on %d; first order %.17g on %d",
						seed, run, i, paths[i], f.rate, f.bneck, math.Float64frombits(want[i].rate), want[i].bneck)
				}
			}
			checkRefOracle(t, net, fmt.Sprintf("seed %d order %d", seed, run))
		}
		if t.Failed() {
			t.Fatalf("seed %d: stopping at first failing scenario", seed)
		}
	}
}
