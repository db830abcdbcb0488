package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestCancelIsTombstone verifies that Cancel no longer removes the
// event from the queue eagerly: Pending drops immediately (live view),
// the tombstone counter rises, and the event never fires.
func TestCancelIsTombstone(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := atHandle(e, 10, func() { fired = true })
	keep := 0
	e.Schedule(20, func() { keep++ })
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending before cancel = %d, want 2", got)
	}
	e.Cancel(ev)
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending after cancel = %d, want 1 (tombstones excluded)", got)
	}
	if got := e.EventsTombstoned(); got != 1 {
		t.Fatalf("EventsTombstoned = %d, want 1", got)
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if keep != 1 {
		t.Fatal("live event did not fire")
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after run = %d, want 0", got)
	}
}

// TestQueueCompactionBoundsTombstones drives enough cancels that the
// queue must compact, and checks the heap still dispatches the
// survivors in order.
func TestQueueCompactionBoundsTombstones(t *testing.T) {
	e := NewEngine()
	const n = 1024
	events := make([]*Event, n)
	var order []int
	for i := 0; i < n; i++ {
		i := i
		events[i] = atHandle(e, Time(i), func() { order = append(order, i) })
	}
	// Cancel two of every three events: tombstones cross the
	// strictly-more-than-half compaction threshold partway through.
	live := 0
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			live++
			continue
		}
		e.Cancel(events[i])
	}
	if e.Compactions() == 0 {
		t.Fatal("expected at least one queue compaction")
	}
	if got := e.Pending(); got != live {
		t.Fatalf("Pending = %d, want %d", got, live)
	}
	e.Run()
	if len(order) != live {
		t.Fatalf("dispatched %d events, want %d", len(order), live)
	}
	for k, v := range order {
		if v != 3*k {
			t.Fatalf("order[%d] = %d, want %d", k, v, 3*k)
		}
	}
}

// TestAtInstantEndRunsAfterInstantDrains checks the flush hook fires
// only once every event at the current timestamp has dispatched, and
// before the clock advances.
func TestAtInstantEndRunsAfterInstantDrains(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(10, func() {
		e.AtInstantEnd(func() { order = append(order, "flush@"+e.Now().String()) })
		order = append(order, "first")
		e.Schedule(0, func() { order = append(order, "second") })
	})
	e.Schedule(20, func() { order = append(order, "later") })
	e.Run()
	want := []string{"first", "second", "flush@10ns", "later"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestAtInstantEndHookMayReopenInstant verifies that a hook scheduling
// an event at the current instant re-opens it, and the new event runs
// before time advances.
func TestAtInstantEndHookMayReopenInstant(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(10, func() {
		e.AtInstantEnd(func() {
			order = append(order, "flush1")
			e.Schedule(0, func() { order = append(order, "reopened") })
			e.AtInstantEnd(func() { order = append(order, "flush2") })
		})
		order = append(order, "event")
	})
	e.Run()
	want := []string{"event", "flush1", "reopened", "flush2"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 10 {
		t.Fatalf("now = %v, want 10", e.Now())
	}
}

// TestAtInstantEndRunsBeforeRunUntilReturns pins that a pending hook
// executes even when the run stops at a deadline before the next
// event.
func TestAtInstantEndRunsBeforeRunUntilReturns(t *testing.T) {
	e := NewEngine()
	flushed := false
	e.Schedule(10, func() {
		e.AtInstantEnd(func() { flushed = true })
	})
	e.RunUntil(15)
	if !flushed {
		t.Fatal("instant-end hook did not run before RunUntil returned")
	}
	if e.Now() != 15 {
		t.Fatalf("now = %v, want 15", e.Now())
	}
}

// TestRecycleReusesEvents checks the event free-list: a recycled
// event's storage backs a later Schedule call.
func TestRecycleReusesEvents(t *testing.T) {
	e := NewEngine()
	var first *Event
	first = atHandle(e, 1, func() { e.Recycle(first) })
	e.Run()
	second := atHandle(e, e.Now()+2, func() {})
	if first != second {
		t.Fatal("expected the recycled event to be reused by the next Schedule")
	}
	e.Run()
}

// TestRecyclePendingPanics pins that recycling a still-queued event is
// a bug, not a silent corruption.
func TestRecyclePendingPanics(t *testing.T) {
	e := NewEngine()
	ev := atHandle(e, 1, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic recycling a pending event")
		}
	}()
	e.Recycle(ev)
}

// TestTombstoneExcludedFromForeground verifies Run terminates when only
// tombstones remain (a cancelled foreground event must not hold the
// run loop open).
func TestTombstoneExcludedFromForeground(t *testing.T) {
	e := NewEngine()
	ev := atHandle(e, 100, func() { t.Fatal("cancelled event fired") })
	e.Schedule(1, func() { e.Cancel(ev) })
	e.Run()
	if e.Now() != 1 {
		t.Fatalf("now = %v, want 1 (run must stop once only tombstones remain)", e.Now())
	}
}

// TestRecycledHandleReusedInOwnCallback: a caller-owned event recycled
// inside its own callback and reused there at once by an engine-owned
// schedule must fire exactly once, and so must the new event. The
// engine decides whether it owns an event before running the callback;
// deciding afterwards would see the reused storage as engine-owned and
// put a queued event on the free list.
func TestRecycledHandleReusedInOwnCallback(t *testing.T) {
	e := NewEngine()
	first, second := 0, 0
	var ev *Event
	ev = atHandle(e, 1, func() {
		first++
		e.Recycle(ev)
		e.Schedule(5, func() { second++ })
		if ev.Time() != 6 {
			t.Fatal("the engine-owned schedule did not reuse the recycled event")
		}
	})
	e.Run()
	if first != 1 || second != 1 {
		t.Fatalf("fired %d and %d times, want 1 and 1", first, second)
	}
	seen := map[*Event]bool{}
	for _, p := range e.pool {
		if seen[p] {
			t.Fatal("the free list holds one event twice")
		}
		seen[p] = true
	}
	// Two more events must be two distinct live events.
	a, b := 0, 0
	e.Schedule(1, func() { a++ })
	e.Schedule(2, func() { b++ })
	e.Run()
	if a != 1 || b != 1 || e.Dispatched() != 4 {
		t.Fatalf("later events fired %d and %d times (dispatched %d), want 1, 1 (4)", a, b, e.Dispatched())
	}
}

// TestScheduleFireAllocsZero: once the free list, the queue and the
// end-of-instant hook slices have grown to the program's peak, a
// schedule-and-fire loop with engine-owned events and instant-end
// hooks allocates nothing.
func TestScheduleFireAllocsZero(t *testing.T) {
	e := NewEngine()
	hook := func() {}
	fn := func() { e.AtInstantEnd(hook) }
	loop := func() {
		for j := 0; j < 64; j++ {
			e.Schedule(Time(j%7), fn)
		}
		e.ScheduleDaemon(3, fn)
		e.Run()
	}
	loop() // grow the free list, the heap and the hook slices to the peak
	if got := testing.AllocsPerRun(100, loop); got != 0 {
		t.Errorf("%v allocations per schedule-and-fire loop, want 0", got)
	}
}

// TestFreeListDropsCallbacks: an event on the free list must not keep
// its old callback, or whatever the callback captured, reachable.
// Both ways onto the list are checked: Recycle of a caller-owned event,
// and the engine's own recycling of an engine-owned one.
func TestFreeListDropsCallbacks(t *testing.T) {
	for _, owned := range []bool{false, true} {
		e := NewEngine()
		collected := make(chan struct{})
		func() {
			obj := new([1024]byte)
			runtime.SetFinalizer(obj, func(*[1024]byte) { close(collected) })
			fn := func() { obj[0]++ }
			if owned {
				e.Schedule(1, fn)
				e.Run()
				return
			}
			ev := atHandle(e, 1, fn)
			e.Run()
			e.Recycle(ev)
		}()
		if len(e.pool) != 1 {
			t.Fatalf("owned=%v: free list holds %d events, want 1", owned, len(e.pool))
		}
		ok := false
		for i := 0; i < 20 && !ok; i++ {
			runtime.GC()
			select {
			case <-collected:
				ok = true
			case <-time.After(10 * time.Millisecond):
			}
		}
		if !ok {
			t.Errorf("owned=%v: the recycled event keeps its callback's captures alive", owned)
		}
		runtime.KeepAlive(e)
	}
}

// TestReleasePoolDropsFreeList: a FreeList keeps every record put
// back, even beyond the event free list's maxPool cap, so Gets return
// recycled records until the list runs dry; ReleasePool empties the
// event free list and every FreeList made on the engine; and the engine
// keeps scheduling afterwards.
func TestReleasePoolDropsFreeList(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if len(e.pool) != 10 {
		t.Fatalf("free list holds %d events after the run, want 10", len(e.pool))
	}
	type rec struct{ n int }
	const puts = 5000 // more than maxPool
	lists := []*FreeList[rec]{NewFreeList[rec](e), NewFreeList[rec](e)}
	for _, l := range lists {
		for i := 0; i < puts; i++ {
			l.Put(&rec{n: i})
		}
		if l.Len() != puts {
			t.Fatalf("FreeList holds %d records after %d Puts, want all of them", l.Len(), puts)
		}
	}
	// A caller builds a record only when Get finds none: puts Gets, last
	// in first out, must build nothing.
	built := 0
	taken := make([]*rec, 0, puts)
	for i := puts - 1; i >= 0; i-- {
		r := lists[0].Get()
		if r == nil {
			built++
			continue
		}
		if r.n != i {
			t.Fatalf("Get returned record %d, want %d (last put, first out)", r.n, i)
		}
		taken = append(taken, r)
	}
	if built != 0 {
		t.Fatalf("%d of %d Gets after %d Puts found no recycled record", built, puts, puts)
	}
	if r := lists[0].Get(); r != nil || lists[0].Len() != 0 {
		t.Fatalf("FreeList returned %v and holds %d records after %d Gets, want nil and 0", r, lists[0].Len(), puts)
	}
	for _, r := range taken {
		lists[0].Put(r)
	}
	e.ReleasePool()
	if e.pool != nil {
		t.Fatal("ReleasePool kept the free list")
	}
	for i, l := range lists {
		if l.Len() != 0 {
			t.Fatalf("FreeList %d holds %d records after ReleasePool, want 0", i, l.Len())
		}
		if r := l.Get(); r != nil {
			t.Fatalf("FreeList %d returned a record after ReleasePool", i)
		}
	}
	lists[0].Put(&rec{})
	if lists[0].Len() != 1 {
		t.Fatal("FreeList does not refill after ReleasePool")
	}
	fired := false
	e.Schedule(1, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("event scheduled after ReleasePool did not fire")
	}
}
