package fabric

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"coarse/internal/sim"
)

const (
	gib = 1024 * 1024 * 1024
	mib = 1024 * 1024
)

func newNet() (*sim.Engine, *Network) {
	eng := sim.NewEngine()
	return eng, NewNetwork(eng)
}

func TestSingleFlowFullBandwidth(t *testing.T) {
	eng, net := newNet()
	l := net.NewLink("pcie", 10*gib, 10*gib, 0)
	done := sim.Time(-1)
	net.Transfer([]*Channel{l.Fwd()}, 10*gib, func() { done = eng.Now() })
	eng.Run()
	if done != sim.Seconds(1) {
		t.Fatalf("10GiB over 10GiB/s link finished at %v, want 1s", done)
	}
}

func TestLatencyAddsOnce(t *testing.T) {
	eng, net := newNet()
	l := net.NewLink("pcie", 1*gib, 1*gib, sim.Seconds(0.5))
	done := sim.Time(-1)
	net.Transfer([]*Channel{l.Fwd()}, 1*gib, func() { done = eng.Now() })
	eng.Run()
	if done != sim.Seconds(1.5) {
		t.Fatalf("finish = %v, want 1.5s (0.5 latency + 1.0 transfer)", done)
	}
}

func TestZeroByteFlowCompletesAfterLatency(t *testing.T) {
	eng, net := newNet()
	l := net.NewLink("pcie", 1*gib, 1*gib, sim.Seconds(0.25))
	done := sim.Time(-1)
	net.Transfer([]*Channel{l.Fwd()}, 0, func() { done = eng.Now() })
	eng.Run()
	if done != sim.Seconds(0.25) {
		t.Fatalf("finish = %v, want 0.25s", done)
	}
}

func TestTwoFlowsShareChannelFairly(t *testing.T) {
	eng, net := newNet()
	l := net.NewLink("pcie", 10*gib, 10*gib, 0)
	var done []sim.Time
	for i := 0; i < 2; i++ {
		net.Transfer([]*Channel{l.Fwd()}, 5*gib, func() { done = append(done, eng.Now()) })
	}
	eng.Run()
	// Each flow gets 5 GiB/s, so both 5 GiB flows finish at t=1s.
	for _, d := range done {
		if d != sim.Seconds(1) {
			t.Fatalf("finish times = %v, want both at 1s", done)
		}
	}
}

func TestBidirectionalFlowsDoNotContend(t *testing.T) {
	eng, net := newNet()
	l := net.NewLink("pcie", 10*gib, 10*gib, 0)
	var done []sim.Time
	net.Transfer([]*Channel{l.Fwd()}, 10*gib, func() { done = append(done, eng.Now()) })
	net.Transfer([]*Channel{l.Rev()}, 10*gib, func() { done = append(done, eng.Now()) })
	eng.Run()
	// Opposite directions are independent channels: both finish at 1s,
	// delivering 2x aggregate bandwidth (the paper's bidirectional effect).
	for _, d := range done {
		if d != sim.Seconds(1) {
			t.Fatalf("finish times = %v, want both at 1s", done)
		}
	}
}

func TestRateReallocatedWhenFlowFinishes(t *testing.T) {
	eng, net := newNet()
	l := net.NewLink("pcie", 10*gib, 10*gib, 0)
	var shortDone, longDone sim.Time
	net.Transfer([]*Channel{l.Fwd()}, 5*gib, func() { shortDone = eng.Now() })
	net.Transfer([]*Channel{l.Fwd()}, 10*gib, func() { longDone = eng.Now() })
	eng.Run()
	// Both run at 5 GiB/s until t=1s when the short one finishes; the long
	// one then has 5 GiB left at 10 GiB/s -> finishes at 1.5s.
	if shortDone != sim.Seconds(1) {
		t.Fatalf("short finish = %v, want 1s", shortDone)
	}
	if longDone != sim.Seconds(1.5) {
		t.Fatalf("long finish = %v, want 1.5s", longDone)
	}
}

func TestLateArrivalSlowsExistingFlow(t *testing.T) {
	eng, net := newNet()
	l := net.NewLink("pcie", 10*gib, 10*gib, 0)
	var firstDone sim.Time
	net.Transfer([]*Channel{l.Fwd()}, 10*gib, func() { firstDone = eng.Now() })
	eng.Schedule(sim.Seconds(0.5), func() {
		net.Transfer([]*Channel{l.Fwd()}, 10*gib, nil)
	})
	eng.Run()
	// First flow: 5 GiB at full rate by 0.5s, then shares -> 5 GiB at
	// 5 GiB/s = 1s more. Finish at 1.5s.
	if firstDone != sim.Seconds(1.5) {
		t.Fatalf("first finish = %v, want 1.5s", firstDone)
	}
}

func TestMultiHopBottleneck(t *testing.T) {
	eng, net := newNet()
	fast := net.NewLink("gpu-sw", 16*gib, 16*gib, 0)
	slow := net.NewLink("sw-cpu", 4*gib, 4*gib, 0)
	var done sim.Time
	net.Transfer([]*Channel{fast.Fwd(), slow.Fwd()}, 4*gib, func() { done = eng.Now() })
	eng.Run()
	if done != sim.Seconds(1) {
		t.Fatalf("finish = %v, want 1s (bottlenecked at 4GiB/s)", done)
	}
}

func TestMaxMinUnevenPaths(t *testing.T) {
	// Flow A crosses only the big link; flow B crosses big and small.
	// Max-min: B is capped at 2 by the small link, A picks up the
	// leftover 8 on the big link.
	eng, net := newNet()
	big := net.NewLink("big", 10, 10, 0)
	small := net.NewLink("small", 2, 2, 0)
	fa := net.StartFlow([]*Channel{big.Fwd()}, 1000, nil)
	fb := net.StartFlow([]*Channel{big.Fwd(), small.Fwd()}, 1000, nil)
	eng.RunUntil(1) // let admissions at t=0 fire
	if math.Abs(fb.Rate()-2) > 1e-9 {
		t.Fatalf("constrained flow rate = %v, want 2", fb.Rate())
	}
	if math.Abs(fa.Rate()-8) > 1e-9 {
		t.Fatalf("unconstrained flow rate = %v, want 8", fa.Rate())
	}
}

func TestAsymmetricLinkCapacities(t *testing.T) {
	eng, net := newNet()
	l := net.NewLink("fpga", 8*gib, 2*gib, 0) // reads fast, writes slow
	var readDone, writeDone sim.Time
	net.Transfer([]*Channel{l.Fwd()}, 8*gib, func() { readDone = eng.Now() })
	net.Transfer([]*Channel{l.Rev()}, 8*gib, func() { writeDone = eng.Now() })
	eng.Run()
	if readDone != sim.Seconds(1) {
		t.Fatalf("read finish = %v, want 1s", readDone)
	}
	if writeDone != sim.Seconds(4) {
		t.Fatalf("write finish = %v, want 4s", writeDone)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	eng, net := newNet()
	l := net.NewLink("pcie", 10*gib, 10*gib, 0)
	net.Transfer([]*Channel{l.Fwd()}, 5*gib, nil)
	eng.Run()
	end := eng.RunUntil(sim.Seconds(1)) // idle second half
	if end != sim.Seconds(1) {
		t.Fatalf("end = %v", end)
	}
	u := l.Fwd().Utilization(eng.Now())
	if math.Abs(u-0.5) > 1e-6 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	if got := l.Fwd().BytesCarried(); got != 5*gib {
		t.Fatalf("bytes carried = %v, want 5GiB", got)
	}
}

func TestPanicsOnBadInputs(t *testing.T) {
	eng, net := newNet()
	_ = eng
	for name, fn := range map[string]func(){
		"zero capacity":  func() { net.NewLink("x", 0, 1, 0) },
		"neg latency":    func() { net.NewLink("x", 1, 1, -1) },
		"empty path":     func() { net.StartFlow(nil, 1, nil) },
		"negative bytes": func() { net.StartFlow([]*Channel{net.NewLink("y", 1, 1, 0).Fwd()}, -1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: with N equal flows on one channel, every flow gets exactly
// capacity/N and all finish simultaneously.
func TestPropertyEqualSharing(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%16) + 1
		eng, net := newNet()
		l := net.NewLink("c", 1*gib, 1*gib, 0)
		finishes := make([]sim.Time, 0, n)
		for i := 0; i < n; i++ {
			net.Transfer([]*Channel{l.Fwd()}, mib, func() { finishes = append(finishes, eng.Now()) })
		}
		eng.Run()
		if len(finishes) != n {
			return false
		}
		want := finishes[0]
		for _, ft := range finishes {
			if ft != want {
				return false
			}
		}
		// n MiB total over 1 GiB/s = n/1024 seconds.
		expect := sim.Time(math.Ceil(float64(n*mib) / gib * 1e9))
		return absTime(want-expect) <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: allocated rates never exceed any channel capacity and the
// allocation is max-min (every flow is bottlenecked somewhere).
func TestPropertyMaxMinFeasibleAndSaturated(t *testing.T) {
	f := func(sizes []uint16, pathBits []bool) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 12 {
			sizes = sizes[:12]
		}
		eng, net := newNet()
		l1 := net.NewLink("l1", 100, 100, 0)
		l2 := net.NewLink("l2", 37, 37, 0)
		var flows []*Flow
		for i, s := range sizes {
			path := []*Channel{l1.Fwd()}
			if i < len(pathBits) && pathBits[i] {
				path = append(path, l2.Fwd())
			}
			flows = append(flows, net.StartFlow(path, float64(s)+1e6, nil))
		}
		eng.RunUntil(0) // fire admissions at t=0
		// Feasibility per channel.
		for _, ch := range []*Channel{l1.Fwd(), l2.Fwd()} {
			sum := 0.0
			for _, fl := range ch.active {
				sum += fl.rate
			}
			if sum > ch.capacity*(1+1e-9) {
				return false
			}
		}
		// Max-min: every flow crosses at least one saturated channel.
		for _, fl := range flows {
			bottlenecked := false
			for _, id := range fl.pathIDs {
				ch := net.channels[id]
				sum := 0.0
				for _, g := range ch.active {
					sum += g.rate
				}
				if sum >= ch.capacity*(1-1e-9) {
					bottlenecked = true
				}
			}
			if !bottlenecked {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: total bytes carried equals total bytes sent, regardless of
// arrival pattern.
func TestPropertyConservationOfBytes(t *testing.T) {
	f := func(sizes []uint16, delays []uint16) bool {
		eng, net := newNet()
		l := net.NewLink("c", 1e6, 1e6, 0)
		var total float64
		for i, s := range sizes {
			var d sim.Time
			if i < len(delays) {
				d = sim.Time(delays[i]) * 1000
			}
			size := float64(s)
			total += size
			eng.Schedule(d, func() {
				net.StartFlow([]*Channel{l.Fwd()}, size, nil)
			})
		}
		eng.Run()
		return math.Abs(l.Fwd().BytesCarried()-total) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func absTime(t sim.Time) sim.Time {
	if t < 0 {
		return -t
	}
	return t
}

func BenchmarkReallocate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng, net := newNet()
		links := make([]*Link, 8)
		for j := range links {
			links[j] = net.NewLink("l", 16*gib, 16*gib, 0)
		}
		for j := 0; j < 64; j++ {
			path := []*Channel{links[j%8].Fwd(), links[(j+1)%8].Fwd()}
			net.StartFlow(path, 64*mib, nil)
		}
		eng.Run()
	}
}

func TestSetLinkCapacityMidFlow(t *testing.T) {
	eng, net := newNet()
	l := net.NewLink("pcie", 10*gib, 10*gib, 0)
	var done sim.Time
	net.Transfer([]*Channel{l.Fwd()}, 10*gib, func() { done = eng.Now() })
	// Halve the capacity at t=0.5s: 5 GiB moved, 5 GiB left at 5 GiB/s.
	eng.Schedule(sim.Seconds(0.5), func() {
		net.SetLinkCapacity(l, 5*gib, 5*gib)
	})
	eng.Run()
	if done != sim.Seconds(1.5) {
		t.Fatalf("finish = %v, want 1.5s", done)
	}
}

func TestSetLinkCapacityIncrease(t *testing.T) {
	eng, net := newNet()
	l := net.NewLink("pcie", 5*gib, 5*gib, 0)
	var done sim.Time
	net.Transfer([]*Channel{l.Fwd()}, 10*gib, func() { done = eng.Now() })
	eng.Schedule(sim.Seconds(1), func() {
		net.SetLinkCapacity(l, 10*gib, 10*gib)
	})
	eng.Run()
	// 5 GiB in the first second, 5 GiB in the next 0.5s.
	if done != sim.Seconds(1.5) {
		t.Fatalf("finish = %v, want 1.5s", done)
	}
}

func TestSetLinkCapacityRejectsNonPositive(t *testing.T) {
	eng, net := newNet()
	_ = eng
	l := net.NewLink("pcie", gib, gib, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.SetLinkCapacity(l, 0, gib)
}

func TestUtilizationExactUnderZeroDurationReshares(t *testing.T) {
	// Several flows admitted at the *same* timestamp trigger several
	// reallocations (and account() folds) with dt == 0 between them.
	// The busy integral must not double-count or drop rate across those
	// zero-duration folds: at the end, IntegratedBytes equals the bytes
	// actually carried, exactly.
	eng, net := newNet()
	l := net.NewLink("pcie", 10*gib, 10*gib, 0)
	// Three same-instant admissions at t=0 (three reshares at t=0), then
	// two more same-instant admissions mid-flight.
	for i := 0; i < 3; i++ {
		net.Transfer([]*Channel{l.Fwd()}, 1*gib, nil)
	}
	eng.At(sim.Seconds(0.1), func() {
		net.Transfer([]*Channel{l.Fwd()}, 1*gib, nil)
		net.Transfer([]*Channel{l.Fwd()}, 1*gib, nil)
	})
	eng.Run()
	now := eng.Now()
	carried := l.Fwd().BytesCarried()
	if carried != 5*gib {
		t.Fatalf("bytes carried = %v, want 5GiB", carried)
	}
	integ := l.Fwd().IntegratedBytes(now)
	if math.Abs(integ-carried) > 1e-6*carried {
		t.Fatalf("integrated bytes %v != carried %v under zero-duration reshares", integ, carried)
	}
	// The link is rate-saturated whenever any flow is active, so the
	// whole-run mean utilization is 1 up to integer-ns completion
	// rounding.
	if u := l.Fwd().Utilization(now); math.Abs(u-1.0) > 1e-6 {
		t.Fatalf("utilization = %v, want ~1.0 (saturated throughout)", u)
	}
	// And Utilization must be exactly the normalized integral.
	want := integ / (10 * gib * now.ToSeconds())
	if u := l.Fwd().Utilization(now); u != want {
		t.Fatalf("utilization %v != normalized integral %v", u, want)
	}
}

func TestIntegratedBytesExtrapolatesMidFlight(t *testing.T) {
	// Between reshares, IntegratedBytes must extrapolate the current
	// piecewise-constant rate from the last accounting fold to now, so a
	// telemetry sample taken mid-flow sees the exact partial integral.
	eng, net := newNet()
	l := net.NewLink("pcie", 4*gib, 4*gib, 0)
	net.Transfer([]*Channel{l.Fwd()}, 4*gib, nil) // 1s at full rate
	end := eng.RunUntil(sim.Seconds(0.25))
	if end != sim.Seconds(0.25) {
		t.Fatalf("paused at %v", end)
	}
	integ := l.Fwd().IntegratedBytes(eng.Now())
	if math.Abs(integ-1*gib) > 1 { // within a byte
		t.Fatalf("mid-flight integral = %v, want 1GiB", integ)
	}
	if u := l.Fwd().Utilization(eng.Now()); math.Abs(u-1.0) > 1e-9 {
		t.Fatalf("mid-flight utilization = %v, want 1.0 (link saturated so far)", u)
	}
	eng.Run()
	if got := l.Fwd().IntegratedBytes(eng.Now()); math.Abs(got-4*gib) > 1e-6*4*gib {
		t.Fatalf("final integral = %v, want 4GiB", got)
	}
}

func TestAccountSameTimestampRateSwap(t *testing.T) {
	// Direct unit test of account(): repeated folds at one timestamp
	// must keep the integral fixed while tracking the latest rate, and a
	// later fold must integrate only the most recent rate.
	eng, net := newNet()
	l := net.NewLink("x", 8*gib, 8*gib, 0)
	c := l.Fwd()
	c.account(0, 2*gib)
	c.account(0, 8*gib) // zero-duration reshare: replaces, not accumulates
	c.account(0, 4*gib)
	if got := c.IntegratedBytes(0); got != 0 {
		t.Fatalf("integral after zero-duration folds = %v, want 0", got)
	}
	if got := c.CurrentRate(); got != 4*gib {
		t.Fatalf("current rate = %v, want 4GiB/s", got)
	}
	c.account(sim.Seconds(1), 0)
	if got := c.IntegratedBytes(sim.Seconds(1)); math.Abs(got-4*gib) > 1e-6 {
		t.Fatalf("integral after 1s at 4GiB/s = %v, want 4GiB", got)
	}
	if u := c.Utilization(sim.Seconds(1)); math.Abs(u-0.5) > 1e-12 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	_ = eng
}

// TestFreezeScratchBoundedBetweenFullPasses streams back-to-back
// transfers over one idle link, each started when the previous one
// completes and admitted one latency later, so every admission and
// every completion is a pass of its own and only the first is a full
// pass. The freeze bookkeeping must stay bounded by the channel count
// however long the stream runs without a full pass.
func TestFreezeScratchBoundedBetweenFullPasses(t *testing.T) {
	eng, net := newNet()
	l := net.NewLink("pcie", gib, gib, 1)
	path := []*Channel{l.Fwd()}
	const transfers = 100_000
	left := transfers
	var next func()
	next = func() {
		if left > 0 {
			left--
			net.TransferEphemeral(path, mib, next)
		}
	}
	next()
	eng.Run()
	if got := net.Reshares(); got != 2*transfers {
		t.Fatalf("Reshares = %d, want %d (one pass per admission and per completion)", got, 2*transfers)
	}
	if full := net.Reshares() - net.FastForwardPasses(); full != 1 {
		t.Fatalf("%d full passes, want 1", full)
	}
	chans := len(net.channels)
	for name, c := range map[string]int{
		"frozenCount": cap(net.frozenCount),
		"ffPaths":     cap(net.ffPaths),
		"compQueue":   cap(net.compQueue),
	} {
		if c > chans {
			t.Errorf("%s holds %d slots after %d passes, want at most the %d channels", name, c, net.Reshares(), chans)
		}
	}
}

// TestEphemeralStreamAllocsZero: once the flow and event free lists and
// the pass scratch have grown, a stream of ephemeral transfers — latency
// phase, admission, reallocation, completion — allocates nothing.
func TestEphemeralStreamAllocsZero(t *testing.T) {
	eng, net := newNet()
	a := net.NewLink("a", gib, gib, 3)
	b := net.NewLink("b", gib/2, gib, 5)
	paths := [][]*Channel{{a.Fwd()}, {a.Fwd(), b.Fwd()}, {b.Rev()}, {a.Rev(), b.Fwd()}}
	done := 0
	onDone := func() { done++ }
	burst := func() {
		for i, p := range paths {
			net.TransferEphemeral(p, int64((i+1)*mib), onDone)
		}
		net.TransferEphemeral(paths[0], 0, onDone)
		eng.Run()
	}
	// Finished flows return to the free list in batches, as the active
	// lists compact away their tombstones; warm up past the peak.
	const warm = 100
	for i := 0; i < warm; i++ {
		burst()
	}
	if got := testing.AllocsPerRun(50, burst); got != 0 {
		t.Errorf("a burst of ephemeral transfers allocates %.1f objects, want 0", got)
	}
	if want := (warm + 51) * (len(paths) + 1); done != want {
		t.Fatalf("%d transfers completed, want %d", done, want)
	}
}

// TestFlowSizeClass: Flow must fit the allocator's 192-byte size class.
// At 256 bytes the repo benchmark's heap_live_mb rose about 5% on
// paper-fig16 and layouts-3d, which keep thousands of flows in their
// pools. The 16 bytes a record saves below the 208-byte class pay for
// its path-id buffer's minPathIDs floor.
func TestFlowSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Flow{}); got > 192 {
		t.Fatalf("Flow is %d bytes, want at most 192", got)
	}
}

// TestChannelSizeClass: Channel must stay within 128 bytes. Each Link
// holds two, so TestLinkSizeClass is the tighter bound: two channels
// and the link's name fit 256 bytes only while a channel is at most
// 120.
func TestChannelSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Channel{}); got > 128 {
		t.Fatalf("Channel is %d bytes, want at most 128", got)
	}
}

// TestLinkSizeClass: Link, which holds both its channels by value,
// must fit the allocator's 256-byte size class, so a link costs one
// 256-byte object instead of a link, two channels and two name strings.
func TestLinkSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Link{}); got > 256 {
		t.Fatalf("Link is %d bytes, want at most 256", got)
	}
}

// TestNewLinkOneAllocation: once the network's link and channel slices
// have room, NewLink allocates exactly one object, the Link itself.
func TestNewLinkOneAllocation(t *testing.T) {
	const runs = 100
	_, net := newNet()
	net.links = make([]*Link, 0, runs+1)
	net.channels = make([]*Channel, 0, 2*(runs+1))
	if got := testing.AllocsPerRun(runs, func() {
		net.NewLink("pcie", gib, gib, 0)
	}); got != 1 {
		t.Fatalf("NewLink allocates %v objects, want 1", got)
	}
}

// TestChannelNames pins the names channels report, their dense ids and
// their order in the network to what they were when each channel
// stored its own name: routes are compared by these names.
func TestChannelNames(t *testing.T) {
	_, net := newNet()
	names := []string{"n0/gpu0<->n0/port0", "n0/port0<->n0/sw-peer0", "x"}
	for _, name := range names {
		net.NewLink(name, gib, 2*gib, 0)
	}
	for i, l := range net.Links() {
		if l.Name() != names[i] {
			t.Errorf("link %d named %q, want %q", i, l.Name(), names[i])
		}
		for j, want := range []struct {
			c     *Channel
			name  string
			bytes float64
		}{{l.Fwd(), names[i] + "/fwd", gib}, {l.Rev(), names[i] + "/rev", 2 * gib}} {
			id := 2*i + j
			if got := want.c.Name(); got != want.name {
				t.Errorf("channel %d named %q, want %q", id, got, want.name)
			}
			if int(want.c.id) != id || net.channels[id] != want.c || want.c.Capacity() != want.bytes {
				t.Errorf("channel %q has id %d, capacity %g, want id %d, capacity %g",
					want.name, want.c.id, want.c.Capacity(), id, want.bytes)
			}
		}
	}
}

// TestEventSizeClass: sim.Event must fit the allocator's 32-byte size
// class. Every admission, group fan-out member and foreign callback
// takes one from the engine's free list, and the list keeps up to 4096
// of them live, each counting toward heap_live_mb; at 40 bytes an
// event takes a 48-byte slot.
func TestEventSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(sim.Event{}); got > 32 {
		t.Fatalf("sim.Event is %d bytes, want at most 32", got)
	}
}

// TestDisjointBurstComponentPass: windows that admit and complete
// flows at one instant are served by the pass kind the seeded partial
// rule names for them, and every channel's folded rate and rate
// integral at every checkpoint, and every completion instant, are
// bitwise what the reference pass produces. A case's setup calls
// window at the instant its triggers land, before any of them.
func TestDisjointBurstComponentPass(t *testing.T) {
	type kinds struct{ full, foldOnly, rated uint64 } // passes by kind
	type outcome struct {
		bits   []uint64 // channel rates and integrals at checkpoints, then completion instants
		window kinds    // passes that served the window's instant
	}
	cases := []struct {
		name  string
		want  kinds
		setup func(t *testing.T, eng *sim.Engine, net *Network, window, done func())
	}{
		// After a warm-up flow has come and gone, a burst of flows on
		// pairwise-disjoint links, one step of a ring collective, is
		// rated entrant by entrant although it admits every live entry.
		{"disjoint-burst", kinds{rated: 1}, func(t *testing.T, eng *sim.Engine, net *Network, window, done func()) {
			const burst = 16
			warm := net.NewLink("warm", 10*gib, 10*gib, 0)
			paths := make([][]*Channel, burst)
			for i := range paths {
				a := net.NewLink("a", float64(1+i%3)*gib, gib, 0)
				b := net.NewLink("b", float64(2+i%4)*gib/2, gib, 0)
				paths[i] = []*Channel{a.Fwd(), b.Fwd()}
			}
			net.StartFlow([]*Channel{warm.Fwd()}, 1024, done) // done by t=1000
			flows := make([]*Flow, burst)
			eng.Schedule(1000, func() {
				window()
				for i, p := range paths {
					flows[i] = net.StartFlow(p, float64(1+i)*mib, done)
				}
			})
			eng.Schedule(1001, func() {
				for i, f := range flows {
					if want := math.Min(float64(1+i%3)*gib, float64(2+i%4)*gib/2); f.Rate() != want {
						t.Errorf("flow %d: rate %v, want its bottleneck capacity %v", i, f.Rate(), want)
					}
				}
			})
		}},
		// A departure frees x, where survivor s was frozen, so it seeds a
		// walk. Three lone entrants arrive with it, groups of 8 members
		// whose channels each carry more than an eighth of the live
		// members; one crosses z, a channel of the departed path the
		// walk must not enter. Each is rated alone.
		{"lone-entrants-hot-departure", kinds{rated: 1}, func(t *testing.T, eng *sim.Engine, net *Network, window, done func()) {
			x := net.NewLink("x", gib, gib, 0).Fwd()
			y := net.NewLink("y", 0.75*gib, gib, 0).Fwd()
			z := net.NewLink("z", 4*gib, gib, 0).Fwd()
			net.StartFlow([]*Channel{x, y}, 2*gib, done)
			groups := [][]*Channel{{z, net.NewLink("w", 3*gib, gib, 0).Fwd()}}
			for i := 0; i < 2; i++ {
				groups = append(groups, []*Channel{net.NewLink("g", float64(2+i)*gib, gib, 0).Fwd()})
			}
			net.StartFlow([]*Channel{x, z}, gib/4, func() { // done at 0.5 s
				window()
				for i, p := range groups {
					for m := 0; m < 8; m++ {
						net.TransferEphemeral(p, int64(1+i)*gib/8, done)
					}
				}
				done()
			})
		}},
		// A departure from q, where no survivor was frozen, seeds
		// nothing, though q carries more than an eighth of the live
		// members; an entrant joining survivor a on p seeds the one
		// walk. The fold must still re-sum q and d.
		{"walked-entrant-cold-departure", kinds{rated: 1}, func(t *testing.T, eng *sim.Engine, net *Network, window, done func()) {
			q := net.NewLink("q", 100*gib, gib, 0).Fwd()
			p := net.NewLink("p", 2*gib, gib, 0).Fwd()
			for i := 0; i < 4; i++ {
				net.StartFlow([]*Channel{net.NewLink("s", float64(1+i%2)*gib, gib, 0).Fwd(), q}, 2*gib, done)
			}
			for i := 0; i < 12; i++ {
				net.StartFlow([]*Channel{net.NewLink("bg", float64(1+i%3)*gib, gib, 0).Fwd()}, 3*gib, done)
			}
			net.StartFlow([]*Channel{p}, 2*gib, done)
			d := net.NewLink("d", 2*gib, gib, 0).Fwd()
			net.StartFlow([]*Channel{d, q}, gib/2, func() { // done at 0.25 s
				window()
				net.StartFlow([]*Channel{p}, gib, done)
				done()
			})
		}},
		// As in the second case, but on a fabric of four live members:
		// the walk from x gives up at once, after both lone entrants were
		// rated, and the full pass rebuilds the freeze bookkeeping.
		{"lone-entrants-walk-gives-up", kinds{full: 1}, func(t *testing.T, eng *sim.Engine, net *Network, window, done func()) {
			x := net.NewLink("x", gib, gib, 0).Fwd()
			y := net.NewLink("y", 0.75*gib, gib, 0).Fwd()
			z := net.NewLink("z", 4*gib, gib, 0).Fwd()
			net.StartFlow([]*Channel{x, y}, 2*gib, done)
			lone := [][]*Channel{{z, net.NewLink("w", 3*gib, gib, 0).Fwd()}, {net.NewLink("g", 2*gib, gib, 0).Fwd()}}
			net.StartFlow([]*Channel{x, z}, gib/4, func() { // done at 0.5 s
				window()
				for i, p := range lone {
					net.StartFlow(p, float64(1+i)*gib/2, done)
				}
				done()
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(reference bool) outcome {
				defer SetReferenceFillingForTest(reference)()
				eng, net := newNet()
				var o outcome
				count := func() kinds {
					ff, rated := net.FastForwardPasses(), net.ComponentPasses()
					return kinds{net.Reshares() - ff, ff - rated, rated}
				}
				window := func() {
					before := count()
					eng.Schedule(1, func() {
						after := count()
						o.window = kinds{after.full - before.full, after.foldOnly - before.foldOnly, after.rated - before.rated}
					})
				}
				var finish []uint64
				done := func() { finish = append(finish, uint64(eng.Now())) }
				tc.setup(t, eng, net, window, done)
				record := func() {
					now := eng.Now()
					for _, l := range net.Links() {
						for _, c := range []*Channel{l.Fwd(), l.Rev()} {
							o.bits = append(o.bits, math.Float64bits(c.CurrentRate()), math.Float64bits(c.IntegratedBytes(now)))
						}
					}
				}
				for i := 1; i <= 40; i++ {
					eng.Schedule(sim.Seconds(0.0625*float64(i))+7, record)
				}
				eng.Run()
				record()
				o.bits = append(o.bits, finish...)
				return o
			}
			acc, ref := run(false), run(true)
			if acc.window != tc.want || ref.window != (kinds{full: 1}) {
				t.Errorf("window served by %+v passes (reference %+v), want %+v ({full:1})", acc.window, ref.window, tc.want)
			}
			if len(acc.bits) != len(ref.bits) {
				t.Fatalf("%d recorded values, reference pass %d", len(acc.bits), len(ref.bits))
			}
			for i := range acc.bits {
				if acc.bits[i] != ref.bits[i] {
					t.Errorf("value %d: %#x, reference pass %#x", i, acc.bits[i], ref.bits[i])
				}
			}
		})
	}
}

// TestRareTriggerFoldMatchesReference: the two triggers that force a
// full pass outside the usual admit/complete cascade — a capacity
// change and a member joining a group a mid-instant pass already rated
// — must leave every channel's folded rate and rate integral bitwise
// equal to the reference pass's, including channels the trigger did
// not touch, whose cached folded rate the full pass keeps.
func TestRareTriggerFoldMatchesReference(t *testing.T) {
	type outcome struct {
		bits      []uint64 // every channel's folded rate and integral at every checkpoint
		fullPass  bool     // the trigger's instant ran a full pass
		lateJoins int      // checkpoints that saw a late group join pending
	}
	record := func(o *outcome, net *Network) {
		now := net.Engine().Now()
		for _, l := range net.Links() {
			for _, c := range []*Channel{l.Fwd(), l.Rev()} {
				o.bits = append(o.bits, math.Float64bits(c.CurrentRate()), math.Float64bits(c.IntegratedBytes(now)))
			}
		}
	}
	fullPasses := func(net *Network) uint64 { return net.Reshares() - net.FastForwardPasses() }
	cases := []struct {
		name  string
		setup func(eng *sim.Engine, net *Network, o *outcome)
	}{
		{"capacity", func(eng *sim.Engine, net *Network, o *outcome) {
			x := net.NewLink("x", 2*gib, 2*gib, 0)
			y := net.NewLink("y", 1*gib, 1*gib, 0)
			z := net.NewLink("z", 3*gib, 3*gib, 0)
			w := net.NewLink("w", 1*gib, 1*gib, 0)
			net.Transfer([]*Channel{x.Fwd(), y.Fwd()}, 4*gib, nil)
			net.Transfer([]*Channel{x.Fwd()}, 4*gib, nil)
			net.Transfer([]*Channel{z.Fwd()}, 8*gib, nil)
			net.Transfer([]*Channel{w.Fwd(), z.Rev()}, 2*gib, nil)
			eng.Schedule(sim.Seconds(0.5), func() {
				net.Flush()
				before := fullPasses(net)
				net.SetLinkCapacity(y, gib/4, gib/4)
				record(o, net)
				o.fullPass = fullPasses(net) == before+1
			})
		}},
		{"late-join", func(eng *sim.Engine, net *Network, o *outcome) {
			a := net.NewLink("a", 1*gib, 1*gib, 0)
			b := net.NewLink("b", 2*gib, 2*gib, 0)
			c := net.NewLink("c", 1*gib, 1*gib, 0)
			net.Transfer([]*Channel{a.Fwd(), b.Fwd()}, 2*gib, nil)
			net.Transfer([]*Channel{c.Fwd()}, 4*gib, nil)
			group := []*Channel{b.Fwd()}
			eng.Schedule(sim.Seconds(0.25), func() {
				// Zero latency: each member is admitted at this instant,
				// after the events already queued for it.
				net.TransferEphemeral(group, gib, nil)
				eng.Schedule(0, func() { record(o, net) }) // rates the first member
				net.TransferEphemeral(group, gib, nil)
				eng.Schedule(0, func() {
					if net.joinedLate {
						o.lateJoins++
					}
					before := fullPasses(net)
					record(o, net)
					o.fullPass = fullPasses(net) == before+1
				})
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(reference bool) outcome {
				defer SetReferenceFillingForTest(reference)()
				eng, net := newNet()
				var o outcome
				tc.setup(eng, net, &o)
				for i := 1; i <= 40; i++ {
					eng.Schedule(sim.Seconds(0.125*float64(i)), func() { record(&o, net) })
				}
				eng.Run()
				record(&o, net)
				return o
			}
			acc, ref := run(false), run(true)
			if !acc.fullPass {
				t.Error("the trigger's instant did not run a full pass")
			}
			if tc.name == "late-join" && acc.lateJoins != 1 {
				t.Errorf("%d checkpoints saw a late group join, want 1", acc.lateJoins)
			}
			if len(acc.bits) != len(ref.bits) {
				t.Fatalf("%d recorded values, reference pass %d", len(acc.bits), len(ref.bits))
			}
			for i := range acc.bits {
				if acc.bits[i] != ref.bits[i] {
					t.Errorf("value %d: %v, reference pass %v",
						i, math.Float64frombits(acc.bits[i]), math.Float64frombits(ref.bits[i]))
				}
			}
		})
	}
}
