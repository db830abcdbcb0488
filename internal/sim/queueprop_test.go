package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestQueuePropertyVsReference drives the engine through randomized op
// sequences — schedules (dense same-instant ties included), lazy
// cancels (storms of them, so the queue compacts), revives of queued and
// compacted tombstones, placements to and from the far-future park
// sentinel on an event's own rank or a fresh reserved one, reserved-rank
// blocks, pool recycling, engine-owned events mixed
// with caller-owned ones (some scheduling follow-ups from inside their
// callbacks, onto storage a caller may just have recycled), and
// interleaved partial runs — and mirrors every op on refQueue, a
// sorted-slice model of the (time, rank) order kept here in test code.
// Every dispatch must be the model's minimum at the model's clock, each
// run must stop exactly where the model says, and the engine's pending
// and dispatch counters must equal the model's after every op. The
// model learns each assigned rank from SeqMark right after the call,
// so it checks the queue's order, not the engine's rank arithmetic.
func TestQueuePropertyVsReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		runQueueProperty(t, seed)
	}
}

// refEvent is the model's view of one event.
type refEvent struct {
	at     Time
	seq    uint64
	daemon bool
	queued bool // pending and live: in refQueue.q
	fired  bool
}

// dispatch is one entry of a dispatch log: which event fired, and when.
type dispatch struct {
	id int
	at Time
}

// refQueue is the reference model: the pending live events as a slice
// kept sorted by (at, seq), and the counters the engine exposes.
// Cancelled events leave the slice at once; tombstones and compaction
// are the engine's business and must be invisible here.
type refQueue struct {
	now        Time
	evs        []refEvent
	q          []int // ids of queued events, sorted by (at, seq)
	dispatched uint64
	daemons    uint64
	tombstoned uint64

	// mode and deadline describe the run in progress, so each dispatch
	// can check the engine was still allowed to fire.
	mode     string // "run", "until" or "step"
	deadline Time
	// want and got are the model's and the engine's dispatch logs.
	want, got []dispatch
	err       string
}

func (m *refQueue) less(a, b int) bool {
	ea, eb := &m.evs[a], &m.evs[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// add registers a new event id (not yet queued).
func (m *refQueue) add(daemon bool) int {
	m.evs = append(m.evs, refEvent{daemon: daemon})
	return len(m.evs) - 1
}

// place queues id at (at, seq), taking it out of the queue first if it
// is there: schedules and PlaceRanked both end here.
func (m *refQueue) place(id int, at Time, seq uint64) {
	m.remove(id)
	ev := &m.evs[id]
	ev.at, ev.seq, ev.queued, ev.fired = at, seq, true, false
	i := sort.Search(len(m.q), func(i int) bool { return m.less(id, m.q[i]) })
	m.q = append(m.q, 0)
	copy(m.q[i+1:], m.q[i:])
	m.q[i] = id
}

// remove takes id out of the queue, reporting whether it was there.
func (m *refQueue) remove(id int) bool {
	if !m.evs[id].queued {
		return false
	}
	m.evs[id].queued = false
	for i, q := range m.q {
		if q == id {
			m.q = append(m.q[:i], m.q[i+1:]...)
			return true
		}
	}
	panic("refQueue: queued event missing from the queue")
}

// cancel mirrors Engine.Cancel: only a pending live event becomes a
// tombstone; anything else is a no-op.
func (m *refQueue) cancel(id int) {
	if m.remove(id) {
		m.tombstoned++
	}
}

func (m *refQueue) foreground() int {
	n := 0
	for _, id := range m.q {
		if !m.evs[id].daemon {
			n++
		}
	}
	return n
}

func (m *refQueue) fail(format string, args ...any) {
	if m.err == "" {
		m.err = fmt.Sprintf(format, args...)
	}
}

// fire is called from every event callback with the engine's view of
// the dispatch. It checks the current run may still dispatch, pops the
// model's minimum and logs both sides.
func (m *refQueue) fire(id int, now Time) {
	m.got = append(m.got, dispatch{id, now})
	if len(m.q) == 0 {
		m.fail("engine fired %d at %v from an empty model queue", id, now)
		return
	}
	next := m.q[0]
	ev := &m.evs[next]
	switch {
	case m.mode == "run" && m.foreground() == 0:
		m.fail("Run fired %d with no foreground event pending", id)
	case m.mode == "until" && ev.at > m.deadline:
		m.fail("RunUntil(%v) fired past its deadline", m.deadline)
	}
	m.q = m.q[1:]
	ev.queued, ev.fired = false, true
	m.now = ev.at
	if ev.daemon {
		m.daemons++
	} else {
		m.dispatched++
	}
	m.want = append(m.want, dispatch{next, ev.at})
}

type propState struct {
	e *Engine
	m *refQueue

	// Driver-side views, indexed like m.evs.
	handles  []*Event // nil for engine-owned events
	recycled []bool
	wantRec  []bool // recycle inside the callback when it fires
}

// callback returns event id's callback: it reports the dispatch to the
// model, recycles its own handle when asked, and, when follow >= 0,
// schedules an engine-owned follow-up that far ahead.
func (p *propState) callback(id int, follow Time) func() {
	return func() {
		p.m.fire(id, p.e.Now())
		if p.wantRec[id] {
			p.recycled[id] = true
			p.e.Recycle(p.handles[id])
		}
		if follow >= 0 {
			fid := p.track(false, nil, false)
			p.e.Schedule(follow, p.callback(fid, -1))
			p.m.place(fid, p.e.Now()+follow, p.e.SeqMark())
		}
	}
}

// track registers a new event with the model and the driver.
func (p *propState) track(daemon bool, h *Event, wantRec bool) int {
	id := p.m.add(daemon)
	p.handles = append(p.handles, h)
	p.recycled = append(p.recycled, false)
	p.wantRec = append(p.wantRec, wantRec)
	return id
}

// newEvent schedules one event: engine-owned one time in three (half of
// those schedule an engine-owned follow-up when they fire), otherwise
// caller-owned.
func (p *propState) newEvent(rng *rand.Rand, at Time, daemon bool) {
	owned := rng.Intn(3) == 0
	follow := Time(-1)
	if owned && rng.Intn(2) == 0 {
		follow = Time(rng.Int63n(64))
	}
	id := p.track(daemon, nil, !owned && rng.Intn(4) == 0)
	fn := p.callback(id, follow)
	switch {
	case owned && daemon:
		p.e.AtDaemon(at, fn)
	case owned:
		p.e.At(at, fn)
	case daemon:
		p.handles[id] = p.e.AtDaemonHandle(at, fn)
	default:
		p.handles[id] = atHandle(p.e, at, fn)
	}
	p.m.place(id, at, p.e.SeqMark())
}

// pick returns a random target event id that is safe to touch (caller
// owned, never recycled), or -1.
func (p *propState) pick(rng *rand.Rand) int {
	if len(p.handles) == 0 {
		return -1
	}
	for try := 0; try < 8; try++ {
		id := rng.Intn(len(p.handles))
		if p.handles[id] != nil && !p.recycled[id] {
			return id
		}
	}
	return -1
}

// run performs one run op on the engine with the model watching, then
// checks the run stopped where the model says it must.
func (p *propState) run(mode string, deadline Time) {
	m, e := p.m, p.e
	m.mode, m.deadline = mode, deadline
	before := len(m.got)
	switch mode {
	case "run":
		e.Run()
		if n := m.foreground(); n > 0 {
			m.fail("Run returned with %d foreground events pending", n)
		}
	case "until":
		e.RunUntil(deadline)
		if len(m.q) > 0 && m.evs[m.q[0]].at <= deadline {
			m.fail("RunUntil(%v) left event %d at %v", deadline, m.q[0], m.evs[m.q[0]].at)
		}
		if m.now < deadline {
			m.now = deadline
		}
	case "step":
		wantOne := len(m.q) > 0
		if fired := e.Step(); fired != wantOne {
			m.fail("Step reported %v, model queue non-empty %v", fired, wantOne)
		}
		if n := len(m.got) - before; n > 1 || (n == 1) != wantOne {
			m.fail("Step dispatched %d events", n)
		}
	}
	m.mode = ""
}

func (p *propState) check(t *testing.T, seed int64, op int) {
	t.Helper()
	e, m := p.e, p.m
	if m.err != "" {
		t.Fatalf("seed %d op %d: %s", seed, op, m.err)
	}
	if len(m.got) != len(m.want) {
		t.Fatalf("seed %d op %d: engine dispatched %d events, model %d", seed, op, len(m.got), len(m.want))
	}
	for i := range m.got {
		if m.got[i] != m.want[i] {
			t.Fatalf("seed %d op %d: dispatch %d is %d at %v, model says %d at %v",
				seed, op, i, m.got[i].id, m.got[i].at, m.want[i].id, m.want[i].at)
		}
	}
	if e.Now() != m.now {
		t.Fatalf("seed %d op %d: clock %v, model %v", seed, op, e.Now(), m.now)
	}
	if e.Pending() != len(m.q) || e.PendingForeground() != m.foreground() {
		t.Fatalf("seed %d op %d: pending %d/%d, model %d/%d",
			seed, op, e.Pending(), e.PendingForeground(), len(m.q), m.foreground())
	}
	if e.Dispatched() != m.dispatched || e.DaemonsFired() != m.daemons || e.EventsTombstoned() != m.tombstoned {
		t.Fatalf("seed %d op %d: dispatched/daemons/tombstoned %d/%d/%d, model %d/%d/%d", seed, op,
			e.Dispatched(), e.DaemonsFired(), e.EventsTombstoned(), m.dispatched, m.daemons, m.tombstoned)
	}
	next := Infinity
	if len(m.q) > 0 {
		next = m.evs[m.q[0]].at
	}
	if got := e.NextEventTime(); got != next {
		t.Fatalf("seed %d op %d: next event time %v, model %v", seed, op, got, next)
	}
}

func (p *propState) randTime(rng *rand.Rand) Time {
	now := p.e.Now()
	switch rng.Intn(10) {
	case 0:
		return now // same-instant tie
	case 1:
		return now + Time(rng.Int63n(1<<30)) // far past the partial runs
	case 2:
		return now + Time(rng.Int63n(1<<45))
	default:
		return now + Time(rng.Int63n(4096))
	}
}

func runQueueProperty(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	p := &propState{e: NewEngine(), m: &refQueue{}}
	e, m := p.e, p.m
	const farFuture = Infinity - 1
	for op := 0; op < 400; op++ {
		switch r := rng.Intn(100); {
		case r < 28: // schedule
			at := p.randTime(rng)
			p.newEvent(rng, at, rng.Intn(10) == 0)
		case r < 30: // burst of schedules, feeding the cancel storms
			for n := 64 + rng.Intn(96); n > 0; n-- {
				p.newEvent(rng, p.randTime(rng), rng.Intn(10) == 0)
			}
		case r < 38: // lazy cancel (cancelling fired or cancelled is a no-op)
			if id := p.pick(rng); id >= 0 {
				e.Cancel(p.handles[id])
				m.cancel(id)
			}
		case r < 40: // cancel storm: enough tombstones to compact the queue
			for id, h := range p.handles {
				if h != nil && !p.recycled[id] && rng.Intn(8) != 0 {
					e.Cancel(h)
					m.cancel(id)
				}
			}
		case r < 55: // reserved-rank block placed in shuffled order
			k := 1 + rng.Intn(6)
			at := p.randTime(rng)
			base := e.ReserveSeq(k)
			for _, j := range rng.Perm(k) {
				id := p.track(false, nil, false)
				p.handles[id] = e.AtRanked(at, base+uint64(j), p.callback(id, -1))
				m.place(id, at, base+uint64(j))
			}
		case r < 80: // place a queued or cancelled event: onto a fresh
			// reserved rank, or parked far / settled near on its own rank
			if id := p.pick(rng); id >= 0 && !m.evs[id].fired {
				at := p.randTime(rng)
				s := m.evs[id].seq
				switch rng.Intn(4) {
				case 0:
					at = farFuture
				case 1:
					if m.evs[id].queued {
						at = m.evs[id].at // re-rank at the same deadline
					}
					s = e.ReserveSeq(1)
				case 2:
					s = e.ReserveSeq(1)
				}
				e.PlaceRanked(p.handles[id], at, s)
				m.place(id, at, s)
			}
		case r < 95: // partial run
			p.run("until", e.Now()+Time(rng.Int63n(3000)))
		default: // single step, short of the park sentinel: a clock
			// there would leave no room for later ops (the final Run
			// drains parked events)
			if len(m.q) == 0 || m.evs[m.q[0]].at < farFuture {
				p.run("step", 0)
			}
		}
		p.check(t, seed, op)
	}
	p.run("run", 0)
	p.check(t, seed, -1)
	if len(m.got) == 0 || e.Compactions() == 0 {
		t.Fatalf("seed %d: degenerate sequence: %d dispatches, %d compactions", seed, len(m.got), e.Compactions())
	}
}
