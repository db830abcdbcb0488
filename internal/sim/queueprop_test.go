package sim

import (
	"math/rand"
	"strings"
	"testing"
)

// TestDefaultQueueKindRejectsUnknown: a misspelled COARSE_EVENT_QUEUE
// must surface as an error naming the value, not as a quiet heap run.
func TestDefaultQueueKindRejectsUnknown(t *testing.T) {
	for _, tc := range []struct {
		env  string
		want QueueKind
		bad  bool
	}{
		{"", QueueHeap, false},
		{"heap", QueueHeap, false},
		{"wheel", QueueWheel, false},
		{"wheeel", QueueHeap, true},
		{"Wheel", QueueHeap, true},
	} {
		t.Setenv("COARSE_EVENT_QUEUE", tc.env)
		got, err := DefaultQueueKind()
		if got != tc.want {
			t.Errorf("%q: kind %q, want %q", tc.env, got, tc.want)
		}
		if tc.bad != (err != nil) {
			t.Errorf("%q: err %v, want error %v", tc.env, err, tc.bad)
		}
		if err != nil && !strings.Contains(err.Error(), `"`+tc.env+`"`) {
			t.Errorf("%q: error %q does not name the value", tc.env, err)
		}
	}
}

// TestQueuePropertyHeapVsWheel drives the heap and timing-wheel queues
// through identical randomized op sequences — schedules (dense
// same-instant ties included), lazy cancels, revives, retimes to and
// from the far-future park sentinel, reserved-rank placement, pool
// recycling, engine-owned events mixed with caller-owned ones (some
// scheduling follow-ups from inside their callbacks, onto storage a
// caller may just have recycled), and interleaved partial runs — and
// asserts the two engines dispatch byte-identically: same event order,
// same clocks, same counters. This is the contract that lets the wheel replace the
// heap under every experiment without moving a golden.
func TestQueuePropertyHeapVsWheel(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		runQueueProperty(t, seed)
	}
}

type propState struct {
	engines [2]*Engine
	handles [2][]*Event
	logs    [2][]int

	// Driver-side views, identical for both engines by construction.
	cancelled []bool
	fired     []bool
	recycled  []bool
	wantRec   []bool // recycle inside the callback when it fires
	owned     []bool // engine-owned: no handle to touch
}

// newEvent schedules one event on both engines: engine-owned one time
// in three (half of those schedule an engine-owned follow-up, logged as
// -1-id, when they fire), otherwise caller-owned.
func (p *propState) newEvent(rng *rand.Rand, at Time, daemon bool) {
	id := len(p.cancelled)
	owned := rng.Intn(3) == 0
	follow := Time(-1)
	if owned && rng.Intn(2) == 0 {
		follow = Time(rng.Int63n(64))
	}
	p.cancelled = append(p.cancelled, false)
	p.fired = append(p.fired, false)
	p.recycled = append(p.recycled, false)
	p.wantRec = append(p.wantRec, !owned && rng.Intn(4) == 0)
	p.owned = append(p.owned, owned)
	for i, e := range p.engines {
		i, e := i, e
		var ev *Event
		fn := func() {
			p.logs[i] = append(p.logs[i], id)
			if i == 0 {
				p.fired[id] = true
			}
			if p.wantRec[id] {
				if i == 0 {
					p.recycled[id] = true
				}
				e.Recycle(ev)
			}
			if follow >= 0 {
				e.Schedule(follow, func() { p.logs[i] = append(p.logs[i], -1-id) })
			}
		}
		switch {
		case owned && daemon:
			e.AtDaemon(at, fn)
		case owned:
			e.At(at, fn)
		case daemon:
			ev = e.AtDaemonHandle(at, fn)
		default:
			ev = atHandle(e, at, fn)
		}
		p.handles[i] = append(p.handles[i], ev)
	}
}

// pick returns a random target event id that is safe to touch (caller
// owned, never recycled), or -1.
func (p *propState) pick(rng *rand.Rand) int {
	if len(p.cancelled) == 0 {
		return -1
	}
	for try := 0; try < 8; try++ {
		id := rng.Intn(len(p.cancelled))
		if !p.recycled[id] && !p.owned[id] {
			return id
		}
	}
	return -1
}

func (p *propState) check(t *testing.T, seed int64, op int) {
	t.Helper()
	e0, e1 := p.engines[0], p.engines[1]
	if e0.Now() != e1.Now() {
		t.Fatalf("seed %d op %d: now diverged: heap %v wheel %v", seed, op, e0.Now(), e1.Now())
	}
	if len(p.logs[0]) != len(p.logs[1]) {
		t.Fatalf("seed %d op %d: dispatch count diverged: heap %d wheel %d",
			seed, op, len(p.logs[0]), len(p.logs[1]))
	}
	for i := range p.logs[0] {
		if p.logs[0][i] != p.logs[1][i] {
			t.Fatalf("seed %d op %d: dispatch order diverged at %d: heap %d wheel %d",
				seed, op, i, p.logs[0][i], p.logs[1][i])
		}
	}
	if e0.Pending() != e1.Pending() || e0.PendingForeground() != e1.PendingForeground() {
		t.Fatalf("seed %d op %d: pending diverged: heap %d/%d wheel %d/%d",
			seed, op, e0.Pending(), e0.PendingForeground(), e1.Pending(), e1.PendingForeground())
	}
	if e0.Dispatched() != e1.Dispatched() || e0.DaemonsFired() != e1.DaemonsFired() ||
		e0.EventsTombstoned() != e1.EventsTombstoned() || e0.Compactions() != e1.Compactions() {
		t.Fatalf("seed %d op %d: counters diverged: heap d=%d dm=%d ts=%d c=%d wheel d=%d dm=%d ts=%d c=%d",
			seed, op,
			e0.Dispatched(), e0.DaemonsFired(), e0.EventsTombstoned(), e0.Compactions(),
			e1.Dispatched(), e1.DaemonsFired(), e1.EventsTombstoned(), e1.Compactions())
	}
	if e0.NextEventTime() != e1.NextEventTime() {
		t.Fatalf("seed %d op %d: next event time diverged: heap %v wheel %v",
			seed, op, e0.NextEventTime(), e1.NextEventTime())
	}
}

func (p *propState) randTime(rng *rand.Rand) Time {
	now := p.engines[0].Now()
	switch rng.Intn(10) {
	case 0:
		return now // same-instant tie
	case 1:
		return now + Time(rng.Int63n(1<<30)) // beyond the level-0 window
	case 2:
		return now + Time(rng.Int63n(1<<45)) // outside every wheel level
	default:
		return now + Time(rng.Int63n(4096))
	}
}

func runQueueProperty(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	p := &propState{engines: [2]*Engine{NewEngineQueue(QueueHeap), NewEngineQueue(QueueWheel)}}
	if p.engines[1].QueueKindUsed() != QueueWheel {
		t.Fatal("wheel engine not using wheel queue")
	}
	const farFuture = Infinity - 1
	for op := 0; op < 400; op++ {
		switch r := rng.Intn(100); {
		case r < 30: // schedule
			at := p.randTime(rng)
			p.newEvent(rng, at, rng.Intn(10) == 0)
		case r < 40: // lazy cancel (cancelling fired or cancelled is a no-op)
			if id := p.pick(rng); id >= 0 {
				for i := range p.engines {
					p.engines[i].Cancel(p.handles[i][id])
				}
				p.cancelled[id] = true
			}
		case r < 55: // reschedule: revives cancelled, re-arms fired
			if id := p.pick(rng); id >= 0 {
				at := p.randTime(rng)
				for i := range p.engines {
					p.engines[i].Reschedule(p.handles[i][id], at)
				}
				p.cancelled[id] = false
				p.fired[id] = false
			}
		case r < 65: // retime: park far or settle near, rank preserved
			if id := p.pick(rng); id >= 0 && !p.cancelled[id] && !p.fired[id] {
				at := p.randTime(rng)
				if rng.Intn(3) == 0 {
					at = farFuture
				}
				for i := range p.engines {
					p.engines[i].Retime(p.handles[i][id], at)
				}
			}
		case r < 75: // reserved-rank block placed in shuffled order
			k := 1 + rng.Intn(6)
			at := p.randTime(rng)
			order := rng.Perm(k)
			base0 := p.engines[0].ReserveSeq(k)
			base1 := p.engines[1].ReserveSeq(k)
			if base0 != base1 {
				t.Fatalf("seed %d op %d: reserved ranks diverged: %d vs %d", seed, op, base0, base1)
			}
			for _, j := range order {
				id := len(p.cancelled)
				p.cancelled = append(p.cancelled, false)
				p.fired = append(p.fired, false)
				p.recycled = append(p.recycled, false)
				p.wantRec = append(p.wantRec, false)
				p.owned = append(p.owned, false)
				for i, e := range p.engines {
					i := i
					ev := e.AtRanked(at, base0+uint64(j), func() {
						p.logs[i] = append(p.logs[i], id)
						if i == 0 {
							p.fired[id] = true
						}
					})
					p.handles[i] = append(p.handles[i], ev)
				}
			}
		case r < 80: // place a still-queued event onto a reserved rank
			if id := p.pick(rng); id >= 0 && !p.fired[id] {
				at := p.randTime(rng)
				s0 := p.engines[0].ReserveSeq(1)
				s1 := p.engines[1].ReserveSeq(1)
				if s0 != s1 {
					t.Fatalf("seed %d op %d: reserved rank diverged", seed, op)
				}
				for i := range p.engines {
					p.engines[i].PlaceRanked(p.handles[i][id], at, s0)
				}
				p.cancelled[id] = false
			}
		case r < 95: // partial run
			d := Time(rng.Int63n(3000))
			for i := range p.engines {
				p.engines[i].RunFor(d)
			}
		default: // single step
			for i := range p.engines {
				p.engines[i].Step()
			}
		}
		p.check(t, seed, op)
	}
	for i := range p.engines {
		p.engines[i].Run()
	}
	p.check(t, seed, -1)
	if len(p.logs[0]) == 0 {
		t.Fatalf("seed %d: degenerate sequence dispatched nothing", seed)
	}
}
