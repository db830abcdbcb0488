package collective

import (
	"testing"

	"coarse/internal/sim"
	"coarse/internal/topology"
)

// instantSend completes transfers immediately (zero virtual time).
func instantSend(eng *sim.Engine) SendFunc {
	return func(i int, reverse bool, size int64, onDone func()) {
		eng.Schedule(0, onDone)
	}
}

// timedSend completes transfers at a fixed bytes/sec rate, one hop at a
// time, without contention (analytic check of the ring's step count).
func timedSend(eng *sim.Engine, bw float64) SendFunc {
	return func(i int, reverse bool, size int64, onDone func()) {
		eng.Schedule(sim.Seconds(float64(size)/bw), onDone)
	}
}

// hop is one ring send as the SendFunc sees it.
type hop struct {
	i       int
	reverse bool
	size    int64
}

// recordHops runs one AllReduceBytes of bytes over p instant-send
// participants and returns its sends in issue order: every round issues
// one send per participant, in participant order, so hops[k*p+i] is
// participant i's send in round k.
func recordHops(t *testing.T, p int, bytes int64, reverse bool) []hop {
	t.Helper()
	eng := sim.NewEngine()
	var hops []hop
	r := NewRing(eng, p, func(i int, reverse bool, size int64, onDone func()) {
		hops = append(hops, hop{i, reverse, size})
		eng.Schedule(0, onDone)
	})
	done := false
	r.AllReduceBytes(bytes, reverse, func() { done = true })
	eng.Run()
	if !done {
		t.Fatalf("p=%d bytes=%d reverse=%v: never completed", p, bytes, reverse)
	}
	if len(hops) != 2*(p-1)*p {
		t.Fatalf("p=%d: %d sends, want 2(p-1)p = %d", p, len(hops), 2*(p-1)*p)
	}
	return hops
}

// segZeroSender returns the participant that sends segment 0 in round
// k of a payload of p·n+1 bytes: the only segment of n+1 bytes.
func segZeroSender(t *testing.T, hops []hop, p, n, k int) int {
	t.Helper()
	sender := -1
	for i := 0; i < p; i++ {
		h := hops[k*p+i]
		if h.i != i {
			t.Fatalf("round %d send %d came from participant %d", k, i, h.i)
		}
		if h.size == int64(n+1) {
			if sender >= 0 {
				t.Fatalf("round %d: participants %d and %d both send segment 0", k, sender, i)
			}
			sender = i
		}
	}
	if sender < 0 {
		t.Fatalf("round %d: nobody sends segment 0", k)
	}
	return sender
}

func TestAllReduceReverseDirection(t *testing.T) {
	// A reverse ring sends every hop to the i-1 neighbor and rotates
	// segments the other way round: the receiver forwards what it just
	// got, so segment 0 moves from participant 0 to p-1, p-2, ...
	const p, n = 5, 40
	hops := recordHops(t, p, p*n+1, true)
	for k := 0; k < 2*(p-1); k++ {
		for i := 0; i < p; i++ {
			if !hops[k*p+i].reverse {
				t.Fatalf("round %d participant %d sent forward on a reverse ring", k, i)
			}
		}
		if got, want := segZeroSender(t, hops, p, n, k), (p-k%p)%p; got != want {
			t.Fatalf("round %d: participant %d forwards segment 0, want %d", k, got, want)
		}
	}
}

func TestReduceScatterOwnership(t *testing.T) {
	// After the p-1 reduce-scatter rounds, participant i holds the fully
	// reduced segment (i+1) mod p forward, (i-1) mod p reverse, and the
	// first all-gather round sends exactly that segment.
	const p, n = 4, 10
	for _, reverse := range []bool{false, true} {
		hops := recordHops(t, p, p*n+1, reverse)
		want := p - 1 // owns segment 0 = (p-1+1) mod p forward
		if reverse {
			want = 1 // owns segment 0 = (1-1) mod p reverse
		}
		if got := segZeroSender(t, hops, p, n, p-1); got != want {
			t.Fatalf("reverse=%v: participant %d owns segment 0 after reduce-scatter, want %d", reverse, got, want)
		}
	}
}

func TestAllReduceTiming(t *testing.T) {
	// With per-hop rate B and equal segments, a ring allreduce of n bytes
	// takes 2(p-1) rounds of (n/p)/B each.
	eng := sim.NewEngine()
	const p, bytes = 4, 4096
	bw := 1024.0 // bytes/sec
	r := NewRing(eng, p, timedSend(eng, bw))
	var done sim.Time
	r.AllReduceBytes(bytes, false, func() { done = eng.Now() })
	eng.Run()
	want := sim.Seconds(float64(2*(p-1)) * float64(bytes/p) / bw)
	if done != want {
		t.Fatalf("allreduce took %v, want %v", done, want)
	}
}

func TestALUThroughputAddsTime(t *testing.T) {
	// A finite ALU adds (p-1) segment reductions to the call, so a
	// slower ALU adds proportionally more time; a zero rate (free
	// reductions) adds none.
	const p, bytes = 4, 4096
	run := func(alu float64) sim.Time {
		eng := sim.NewEngine()
		r := NewRing(eng, p, timedSend(eng, 1024))
		r.ALUBytesPerSec = alu
		var done sim.Time
		r.AllReduceBytes(bytes, false, func() { done = eng.Now() })
		eng.Run()
		return done
	}
	base := run(0)
	for _, alu := range []float64{4096, 1024, 256} {
		added := run(alu) - base
		want := sim.Time(p-1) * sim.Seconds(float64(bytes/p)/alu)
		if added != want {
			t.Errorf("ALU %v B/s added %v, want %v", alu, added, want)
		}
	}
}

func TestRingOverRealFabric(t *testing.T) {
	// Wire the ring over the V100 machine's CCI links between memory
	// devices: the allreduce completes under real contention, with
	// 2(p-1) sends per participant.
	eng := sim.NewEngine()
	m := topology.Build(eng, topology.AWSV100())
	devs := m.Devs
	p := len(devs)
	sends := 0
	send := func(i int, reverse bool, size int64, onDone func()) {
		j := (i + 1) % p
		if reverse {
			j = (i - 1 + p) % p
		}
		sends++
		m.Transfer(devs[i], devs[j], size, onDone)
	}
	r := NewRing(eng, p, send)
	var done sim.Time
	r.AllReduceBytes(1<<18, false, func() { done = eng.Now() })
	eng.Run()
	if done == 0 {
		t.Fatal("allreduce never completed")
	}
	if sends != 2*(p-1)*p {
		t.Fatalf("%d sends, want %d", sends, 2*(p-1)*p)
	}
}

func TestDualDirectionRingsShareLinks(t *testing.T) {
	// Two rings in opposite directions over the same full-duplex links
	// (paper Figure 11b) should take the same time as one ring alone,
	// because they use disjoint channel directions.
	run := func(both bool) sim.Time {
		eng := sim.NewEngine()
		m := topology.Build(eng, topology.AWSV100())
		devs := m.Devs
		p := len(devs)
		send := func(i int, reverse bool, size int64, onDone func()) {
			j := (i + 1) % p
			if reverse {
				j = (i - 1 + p) % p
			}
			m.Transfer(devs[i], devs[j], size, onDone)
		}
		var last sim.Time
		const bytes = 1 << 20
		r1 := NewRing(eng, p, send)
		r1.AllReduceBytes(bytes, false, func() { last = eng.Now() })
		if both {
			r2 := NewRing(eng, p, send)
			r2.AllReduceBytes(bytes, true, func() {
				if eng.Now() > last {
					last = eng.Now()
				}
			})
		}
		eng.Run()
		return last
	}
	alone := run(false)
	together := run(true)
	if together != alone {
		t.Fatalf("dual rings took %v, single ring %v — opposite directions must not contend", together, alone)
	}
}

func TestRingBytesPerParticipant(t *testing.T) {
	if got := RingBytesPerParticipant(1000, 4); got != 1500 {
		t.Fatalf("got %d, want 1500 (=2*3/4*1000)", got)
	}
	if got := RingBytesPerParticipant(1000, 1); got != 0 {
		t.Fatalf("single participant sends %d, want 0", got)
	}
}

func TestValidatePanics(t *testing.T) {
	eng := sim.NewEngine()
	for name, fn := range map[string]func(){
		"zero ring":     func() { NewRing(eng, 0, instantSend(eng)) },
		"negative ring": func() { NewRing(eng, -1, instantSend(eng)) },
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

func BenchmarkRingAllReduce(b *testing.B) {
	eng := sim.NewEngine()
	r := NewRing(eng, 8, instantSend(eng))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.AllReduceBytes(1<<16, false, nil)
		eng.Run()
	}
}
