// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps virtual time as int64 nanoseconds and dispatches events
// in (time, sequence) order, so two events scheduled for the same instant
// fire in the order they were scheduled. Nothing in the engine consults the
// wall clock or any other source of nondeterminism: running the same event
// program twice yields the same trace, which the experiment harness relies
// on to make figures reproducible.
//
// # Event ownership
//
// Schedule, At and AtDaemon return nothing: the engine owns those
// events and returns each one to its free list as it is dispatched, so
// a steady stream of fire-and-forget events allocates nothing. A caller
// that must cancel, move or recycle an event schedules it through
// AtRanked instead (AtRanked(t, ReserveSeq(1), fn) ranks it exactly as
// At would), or AtDaemonHandle for a daemon, and owns the returned
// *Event: the engine never recycles it. The owner
// may hand it back with Recycle once it has fired, or was cancelled and
// compacted away, and must not touch it after that; dropping it instead
// is always safe. ReleasePool drops the free list of a finished
// simulation that stays referenced.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is a distinct type so call sites cannot confuse virtual
// timestamps with durations or wall-clock values.
type Time int64

// Infinity is a time later than any event the engine will ever dispatch.
const Infinity Time = math.MaxInt64

// Duration converts a standard library duration to virtual nanoseconds.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds converts a floating point number of seconds into virtual time,
// rounding to the nearest nanosecond.
func Seconds(s float64) Time { return Time(math.Round(s * 1e9)) }

// ToSeconds converts a virtual time or duration to floating point seconds.
func (t Time) ToSeconds() float64 { return float64(t) / 1e9 }

// String formats the time as a duration for human-readable traces.
func (t Time) String() string {
	if t == Infinity {
		return "inf"
	}
	return time.Duration(t).String()
}

// Event is a scheduled callback. The zero Event is invalid; events are
// created through Engine.Schedule and friends.
type Event struct {
	at     Time
	seq    uint64
	fn     func()
	index  int32 // position within the queue's heap, -1 once removed
	cancel bool
	daemon bool
	owned  bool // engine-owned: recycled by Step as it is dispatched
}

// Time returns the virtual instant the event is (or was) scheduled for.
func (e *Event) Time() Time { return e.at }

// Engine is a discrete-event simulator. It is not safe for concurrent use;
// the whole simulation runs single-threaded for determinism.
type Engine struct {
	now        Time
	seq        uint64
	queue      heapQueue
	dispatched uint64
	daemons    uint64 // daemon events fired (excluded from Dispatched)
	foreground int    // pending non-daemon events
	running    bool

	// Lazy cancellation: Cancel marks an event as a tombstone and
	// leaves it in the heap (skip-on-pop) instead of paying an
	// O(log n) removal. tombstones counts the markers still
	// queued; when they outnumber live events the queue is compacted.
	tombstones  int
	tombstoned  uint64 // cumulative tombstoned cancels (telemetry)
	compactions uint64 // cumulative queue compactions (telemetry)

	// instantEnd holds end-of-instant hooks: callbacks that run after
	// every queued event at the current virtual instant has fired,
	// before the clock advances (or the run loop returns). The fabric
	// uses this to coalesce same-instant reshare triggers into one
	// reallocation pass.
	instantEnd []func()
	// instantSpare is the hook slice the last batch ran from, emptied:
	// runInstantEnd alternates the two so hooks cost no allocation.
	instantSpare []func()

	// pool is the free list of events: engine-owned events return to it
	// as they are dispatched, caller-owned ones through Recycle.
	pool []*Event
	// freeLists are the record free lists made by NewFreeList on this
	// engine; ReleasePool empties them with the event free list.
	freeLists []releaser
}

// maxPool bounds the engine's event free list. A FreeList keeps every
// record put back; see FreeList.
const maxPool = 4096

// compactMinTombstones is the floor below which compaction is never
// triggered; small queues just dispatch through their tombstones.
const compactMinTombstones = 64

// NewEngine returns an engine with virtual time zero and an empty
// queue.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events waiting to fire, daemons
// included. Tombstoned (cancelled but not yet compacted) events are
// excluded: they occupy queue slots but will never fire.
func (e *Engine) Pending() int { return e.queue.Len() - e.tombstones }

// EventsTombstoned returns the cumulative number of cancels that were
// recorded as lazy tombstones (every Cancel of a still-queued event).
func (e *Engine) EventsTombstoned() uint64 { return e.tombstoned }

// Compactions returns how many times the event queue was rebuilt to
// shed tombstones.
func (e *Engine) Compactions() uint64 { return e.compactions }

// PendingForeground returns the number of non-daemon events waiting to
// fire; the engine is idle for simulation purposes when it is zero.
func (e *Engine) PendingForeground() int { return e.foreground }

// Dispatched returns the total number of non-daemon events fired so
// far. Daemon events (telemetry sampler ticks) are excluded, so the
// count stays a pure fingerprint of the simulated workload: enabling
// observability does not change it.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// Replay moves an idle engine's clock to t and counts dispatched
// events and consumed ranks as a recorded stretch of simulation did:
// the caller simulated the same stretch once from an idle engine,
// measured its Dispatched and SeqMark deltas, and stands in for a
// repeat of it (the profiler's probe memo). Idle means what the
// recorded stretch started from: no event pending, daemons included,
// no end-of-instant hook registered, and no run in progress; Replay
// panics on a busy engine or a t before Now. The tombstones still
// queued at or before t are dropped, as the stretch's dispatch loop
// pops them on its way to t: they all rank before its events, which
// took their ranks later.
func (e *Engine) Replay(t Time, dispatched, seqs uint64) {
	if e.Pending() != 0 || len(e.instantEnd) != 0 || e.running {
		panic("sim: Replay on a busy engine")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: Replay to %v before now %v", t, e.now))
	}
	for ev := e.queue.Peek(); ev != nil && ev.at <= t; ev = e.queue.Peek() {
		e.queue.Pop()
		e.tombstones--
	}
	e.now = t
	e.dispatched += dispatched
	e.seq += seqs
}

// DaemonsFired returns the number of daemon events fired so far.
func (e *Engine) DaemonsFired() uint64 { return e.daemons }

// Schedule registers fn to run after delay. A negative delay panics:
// scheduling into the past would silently reorder causality. The event
// is engine-owned (see the package comment): it cannot be cancelled or
// moved, and it returns to the engine's free list as it is dispatched.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: schedule with negative delay %d", delay))
	}
	e.At(e.now+delay, fn)
}

// At registers fn to run at absolute virtual time t, which must not be in
// the past. Like Schedule, the event is engine-owned.
func (e *Engine) At(t Time, fn func()) {
	e.at(t, e.nextSeq(), fn, false).owned = true
	e.foreground++
}

// AtDaemon registers fn to run at absolute virtual time t as a daemon
// event. Daemon events fire in timestamp order like any other event,
// but they do not keep Run alive: once only daemon events remain
// queued, Run returns without firing them, and they are excluded from
// Dispatched. Observability machinery (the telemetry sampler) uses
// daemon events so that enabling it perturbs neither the simulation's
// end time nor its event-count fingerprint. The event is engine-owned,
// like Schedule's.
func (e *Engine) AtDaemon(t Time, fn func()) {
	e.at(t, e.nextSeq(), fn, true).owned = true
}

// AtDaemonHandle is AtDaemon for a caller that needs to cancel, move or
// recycle the event; the caller owns the returned event.
func (e *Engine) AtDaemonHandle(t Time, fn func()) *Event {
	return e.at(t, e.nextSeq(), fn, true)
}

// nextSeq consumes and returns the next tie-break rank.
func (e *Engine) nextSeq() uint64 {
	e.seq++
	return e.seq
}

// at queues an event, taking its storage from the free list when it
// can. The event is caller-owned until the caller sets owned; the
// caller also counts it when it is a foreground event.
func (e *Engine) at(t Time, seq uint64, fn func(), daemon bool) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	var ev *Event
	if n := len(e.pool); n > 0 {
		ev = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		*ev = Event{at: t, seq: seq, fn: fn, daemon: daemon}
	} else {
		ev = &Event{at: t, seq: seq, fn: fn, daemon: daemon}
	}
	e.queue.Push(ev)
	return ev
}

// Recycle returns a caller-owned event (AtRanked, AtDaemonHandle)
// that has fired, or was cancelled and compacted away, to the
// engine's free list so the next schedule can reuse it. Engine-owned
// events are recycled by the engine and never reach a caller. The
// caller must be the event's sole remaining owner: after Recycle the
// object may be rearmed as an unrelated event at any moment, even an
// engine-owned one, so keeping (or later Cancelling) the pointer
// corrupts the queue. It is legal to call Recycle from inside the
// event's own callback — by then the event has left the queue.
// Recycling a still-queued event panics. Recycle(nil) is a no-op.
// Recycle drops the event's callback, so whatever the callback
// captured is not kept alive by the free list.
func (e *Engine) Recycle(ev *Event) {
	if ev == nil {
		return
	}
	if ev.index >= 0 {
		panic("sim: Recycle of a still-queued event")
	}
	e.free(ev)
}

// free puts a dequeued event on the free list, dropping its callback.
func (e *Engine) free(ev *Event) {
	ev.fn = nil
	if len(e.pool) < maxPool {
		e.pool = append(e.pool, ev)
	}
}

// ReleasePool drops the engine's event free list and empties every
// record FreeList made on the engine. A finished simulation that stays
// referenced — a trainer whose results are still being read — calls it
// after its last Run, so the events and records its peak left on the
// free lists do not stay live with it. Later schedules allocate afresh.
func (e *Engine) ReleasePool() {
	e.pool = nil
	for _, l := range e.freeLists {
		l.release()
	}
}

// Pooled reports the records the engine's free lists hold: its event
// free list plus every FreeList made on it. ReleasePool brings it to
// zero.
func (e *Engine) Pooled() int {
	n := len(e.pool)
	for _, l := range e.freeLists {
		n += l.size()
	}
	return n
}

// Cancel marks a pending event so it never fires. Cancelling an event
// that already fired (or was already cancelled) is a no-op.
//
// Cancellation is lazy: the event stays queued as a tombstone that is
// skipped when popped, so Cancel is O(1) instead of an O(log n)
// removal. When tombstones outnumber live events the queue is
// compacted in one pass, keeping memory bounded by the live event
// population.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.cancel || ev.index < 0 {
		if ev != nil {
			ev.cancel = true
		}
		return
	}
	ev.cancel = true
	e.tombstones++
	e.tombstoned++
	if !ev.daemon {
		e.foreground--
	}
	e.maybeCompact()
}

// maybeCompact rebuilds the queue without tombstones once they
// outnumber live events (and exceed a small floor). Queue order is
// re-established from (time, seq), so compaction is invisible to
// dispatch order.
func (e *Engine) maybeCompact() {
	if e.tombstones < compactMinTombstones || e.tombstones*2 <= e.queue.Len() {
		return
	}
	e.tombstones -= e.queue.Compact()
	e.compactions++
}

// SeqMark returns the most recently consumed sequence number. A caller
// that snapshots the mark and later observes it unchanged knows no
// event anywhere acquired a tie-break rank in between, so ranks it
// assigned earlier are still exactly ordered against the rest of the
// queue. The fabric's incremental reshare uses this to skip rank
// refreshes on quiet triggers.
func (e *Engine) SeqMark() uint64 { return e.seq }

// ReserveSeq consumes k sequence numbers without scheduling anything
// and returns the first reserved value. The caller may later attach
// the reserved ranks to events via AtRanked or PlaceRanked; until it
// does, the reserved range simply never dispatches. Reserving a block
// at a known point in virtual causality is how a batch of events can
// be ranked "as of" that point while their deadlines are derived
// later: events scheduled after the reservation always outrank the
// block. Consecutive reservations with no intervening rank
// consumption return adjacent ranges, so a block can be extended.
func (e *Engine) ReserveSeq(k int) uint64 {
	if k < 0 {
		panic("sim: negative sequence reservation")
	}
	e.seq += uint64(k)
	return e.seq - uint64(k) + 1
}

// AtRanked schedules fn at absolute time t with a caller-assigned
// sequence number previously obtained from ReserveSeq. The caller owns
// rank uniqueness: attaching the same reserved rank to two pending
// events leaves their mutual tie order undefined.
func (e *Engine) AtRanked(t Time, seq uint64, fn func()) *Event {
	ev := e.at(t, seq, fn, false)
	e.foreground++
	return ev
}

// PlaceRanked moves an event to absolute time t with a caller-assigned
// sequence number from ReserveSeq, reviving it if it was cancelled. It
// consumes no fresh rank: the event's tie order is wholly determined by
// the reserved rank, so PlaceRanked(ev, t, ReserveSeq(1)) ranks the
// event as if it were newly scheduled. The event must still be queued
// or be a cancelled one (compacted away or not); placing an event that
// fired panics.
func (e *Engine) PlaceRanked(ev *Event, t Time, seq uint64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: place at %v before now %v", t, e.now))
	}
	if ev.index < 0 {
		if !ev.cancel {
			panic("sim: place of a fired event")
		}
		// Tombstone evicted by a queue compaction: re-arm from scratch.
		ev.cancel = false
		ev.at = t
		ev.seq = seq
		e.queue.Push(ev)
		if !ev.daemon {
			e.foreground++
		}
		return
	}
	if ev.cancel {
		ev.cancel = false
		e.tombstones--
		if !ev.daemon {
			e.foreground++
		}
	} else if ev.at == t && ev.seq == seq {
		// Already queued at exactly this (time, rank): the sift could
		// only put it back where it sits.
		return
	}
	ev.at = t
	ev.seq = seq
	e.queue.Fix(ev)
}

// AtInstantEnd registers fn to run once the current virtual instant is
// exhausted: after every queued event with timestamp Now() has fired,
// before the clock advances to the next timestamp (or the run loop
// returns). Hooks run in registration order; a hook may schedule new
// events — including at the current instant, which re-opens it — and
// may register further hooks, which run when the instant next drains.
//
// This is the coalescing primitive: N same-instant triggers register
// one hook between them and pay for one recomputation, while anything
// that must observe intermediate state mid-instant can force it
// eagerly (fabric.Network.Flush) without perturbing the schedule.
func (e *Engine) AtInstantEnd(fn func()) {
	if fn == nil {
		panic("sim: AtInstantEnd with nil callback")
	}
	e.instantEnd = append(e.instantEnd, fn)
}

// runInstantEnd runs one batch of end-of-instant hooks, reporting
// whether any ran. Hooks registered during the batch are deferred to
// the next drain of the (possibly re-opened) instant. The batch and the
// slice that collects hooks registered during it trade places each time,
// so a steady hook stream allocates nothing.
func (e *Engine) runInstantEnd() bool {
	if len(e.instantEnd) == 0 {
		return false
	}
	fns := e.instantEnd
	e.instantEnd = e.instantSpare
	for _, fn := range fns {
		fn()
	}
	clear(fns)
	e.instantSpare = fns[:0]
	return true
}

// Step fires the earliest pending event and advances the clock to its
// timestamp, running any end-of-instant hooks first when the earliest
// event would move the clock forward. It reports whether an event was
// fired. An engine-owned event goes back to the free list before its
// callback runs: the engine has read all it needs from it, and the
// callback may reuse its storage for the next schedule at once.
func (e *Engine) Step() bool {
	for {
		ev := e.peek()
		if (ev == nil || ev.at > e.now) && e.runInstantEnd() {
			continue // hooks may have re-opened the current instant
		}
		if ev == nil {
			return false
		}
		e.queue.Pop()
		e.now = ev.at
		if ev.daemon {
			e.daemons++
		} else {
			e.dispatched++
			e.foreground--
		}
		fn := ev.fn
		if ev.owned {
			e.free(ev)
		}
		fn()
		return true
	}
}

// enterRun guards against re-entrant dispatch: calling Run or RunUntil
// from inside an event callback would nest dispatch loops and reorder
// causality, so it panics loudly instead of corrupting the trace.
func (e *Engine) enterRun(what string) {
	if e.running {
		panic("sim: re-entrant " + what + " (called from inside an event callback)")
	}
	e.running = true
}

// Run dispatches events until no foreground events remain, then returns
// the final virtual time. Daemon events with timestamps before the last
// foreground event fire in order; daemon events scheduled past it stay
// queued and never fire, so a self-rescheduling daemon (the telemetry
// sampler) cannot extend the simulation or keep Run alive.
// End-of-instant hooks pending when the last foreground event fires
// still run (they may schedule new foreground work, which extends the
// run).
func (e *Engine) Run() Time {
	e.enterRun("Run")
	defer func() { e.running = false }()
	for {
		if e.foreground == 0 {
			if e.runInstantEnd() && e.foreground > 0 {
				continue
			}
			break
		}
		if !e.Step() {
			break
		}
	}
	return e.now
}

// RunUntil dispatches events with timestamps at or before deadline, then
// advances the clock exactly to deadline and returns it. Events scheduled
// after deadline remain queued; end-of-instant hooks for the last
// dispatched instant run before the clock jumps to the deadline.
func (e *Engine) RunUntil(deadline Time) Time {
	e.enterRun("RunUntil")
	defer func() { e.running = false }()
	for {
		next := e.peek()
		if next == nil || next.at > deadline {
			if e.runInstantEnd() {
				continue // hooks may add events at or before the deadline
			}
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// peek returns the earliest live event, popping tombstones off the
// head of the queue until a live event (or nothing) surfaces.
func (e *Engine) peek() *Event {
	for {
		ev := e.queue.Peek()
		if ev == nil || !ev.cancel {
			return ev
		}
		e.queue.Pop()
		e.tombstones--
	}
}
