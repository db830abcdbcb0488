package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// atHandle schedules a caller-owned foreground event at t, ranked
// exactly as At would rank it.
func atHandle(e *Engine, t Time, fn func()) *Event {
	return e.AtRanked(t, e.ReserveSeq(1), fn)
}

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAndRunOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("Run() = %v, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated at %d: got %d", i, v)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Schedule(10, func() {
		times = append(times, e.Now())
		e.Schedule(5, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times = %v, want [10 15]", times)
	}
}

func TestScheduleZeroDelayFiresAtNow(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(7, func() {
		e.Schedule(0, func() {
			fired = true
			if e.Now() != 7 {
				t.Errorf("zero-delay event at %v, want 7", e.Now())
			}
		})
	})
	e.Run()
	if !fired {
		t.Fatal("zero-delay event never fired")
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestAtInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling into the past")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil callback")
		}
	}()
	NewEngine().Schedule(1, nil)
}

func TestCancelPreventsDispatch(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := atHandle(e, 10, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	e := NewEngine()
	ev := atHandle(e, 10, func() {})
	e.Cancel(ev)
	e.Cancel(ev)
	e.Cancel(nil) // must not panic
	e.Run()
}

func TestCancelDuringDispatch(t *testing.T) {
	e := NewEngine()
	fired := false
	var victim *Event
	e.Schedule(5, func() { e.Cancel(victim) })
	victim = atHandle(e, 10, func() { fired = true })
	e.Run()
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	now := e.RunUntil(12)
	if now != 12 {
		t.Fatalf("RunUntil = %v, want 12", now)
	}
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want exactly the events at 5 and 10", fired)
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("after Run fired = %v, want 4 events", fired)
	}
}

func TestRunUntilAdvancesClockWithNoEvents(t *testing.T) {
	e := NewEngine()
	if got := e.RunUntil(100); got != 100 {
		t.Fatalf("RunUntil = %v, want 100", got)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
}

func TestRunFor(t *testing.T) {
	e := NewEngine()
	e.RunUntil(10)
	if got := e.RunFor(5); got != 15 {
		t.Fatalf("RunFor = %v, want 15", got)
	}
}

func TestNextEventTime(t *testing.T) {
	e := NewEngine()
	if e.NextEventTime() != Infinity {
		t.Fatal("NextEventTime on empty queue should be Infinity")
	}
	ev := atHandle(e, 42, func() {})
	if e.NextEventTime() != 42 {
		t.Fatalf("NextEventTime = %v, want 42", e.NextEventTime())
	}
	e.Cancel(ev)
	if e.NextEventTime() != Infinity {
		t.Fatal("NextEventTime should skip cancelled events")
	}
}

func TestDispatchedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Dispatched() != 10 {
		t.Fatalf("Dispatched = %d, want 10", e.Dispatched())
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	for _, s := range []float64{0, 1e-9, 0.5, 1, 3.25, 1e3} {
		if got := Seconds(s).ToSeconds(); got != s {
			t.Fatalf("Seconds(%v).ToSeconds() = %v", s, got)
		}
	}
}

func TestDurationConversion(t *testing.T) {
	if Duration(3*time.Millisecond) != 3_000_000 {
		t.Fatal("Duration(3ms) != 3e6 ns")
	}
}

func TestTimeString(t *testing.T) {
	if Infinity.String() != "inf" {
		t.Fatalf("Infinity.String() = %q", Infinity.String())
	}
	if Time(1500).String() != "1.5µs" {
		t.Fatalf("Time(1500).String() = %q", Time(1500).String())
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the engine ends at the max delay.
func TestPropertyEventsFireInOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		var max Time
		for _, d := range delays {
			d := Time(d)
			if d > max {
				max = d
			}
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		end := e.Run()
		if len(delays) > 0 && end != max {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset leaves exactly the complement
// to fire.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(delays []uint16, mask []bool) bool {
		e := NewEngine()
		fired := 0
		var events []*Event
		for _, d := range delays {
			events = append(events, atHandle(e, Time(d), func() { fired++ }))
		}
		cancelled := 0
		for i, ev := range events {
			if i < len(mask) && mask[i] {
				e.Cancel(ev)
				cancelled++
			}
		}
		e.Run()
		return fired == len(delays)-cancelled
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j%97), func() {})
		}
		e.Run()
	}
}

func TestReentrantRunPanics(t *testing.T) {
	mustPanic := func(name string, fn func(e *Engine)) {
		e := NewEngine()
		panicked := false
		e.Schedule(1, func() {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			fn(e)
		})
		e.Run()
		if !panicked {
			t.Fatalf("%s from inside an event callback did not panic", name)
		}
	}
	mustPanic("Run", func(e *Engine) { e.Run() })
	mustPanic("RunUntil", func(e *Engine) { e.RunUntil(e.Now() + 10) })
	mustPanic("RunFor", func(e *Engine) { e.RunFor(10) })
}

func TestRunReusableAfterCompletion(t *testing.T) {
	// The guard must only reject nesting: sequential Run calls on the
	// same engine stay legal, including after a re-entrancy panic.
	e := NewEngine()
	fired := 0
	e.Schedule(1, func() { fired++ })
	e.Run()
	e.Schedule(1, func() { fired++ })
	e.Run()
	if fired != 2 {
		t.Fatalf("sequential Runs fired %d events, want 2", fired)
	}
	e.Schedule(1, func() {
		defer func() { _ = recover() }()
		e.Run()
	})
	e.Run()
	e.Schedule(1, func() { fired++ })
	e.Run()
	if fired != 3 {
		t.Fatalf("engine unusable after recovered re-entrancy panic: fired %d", fired)
	}
}

// --- daemon events --------------------------------------------------

func TestDaemonDoesNotKeepRunAlive(t *testing.T) {
	eng := NewEngine()
	fired := 0
	eng.ScheduleDaemon(50, func() { fired++ })
	eng.Schedule(10, func() {})
	end := eng.Run()
	if end != 10 {
		t.Fatalf("Run ended at %v, want 10 (daemon past last foreground event must not extend it)", end)
	}
	if fired != 0 {
		t.Fatal("daemon past the last foreground event fired")
	}
	if eng.Pending() != 1 || eng.PendingForeground() != 0 {
		t.Fatalf("pending=%d foreground=%d, want 1/0", eng.Pending(), eng.PendingForeground())
	}
}

func TestDaemonFiresInTimestampOrder(t *testing.T) {
	eng := NewEngine()
	var order []int
	eng.Schedule(10, func() { order = append(order, 1) })
	eng.ScheduleDaemon(20, func() { order = append(order, 2) })
	eng.Schedule(30, func() { order = append(order, 3) })
	eng.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestDaemonExcludedFromDispatchedFingerprint(t *testing.T) {
	eng := NewEngine()
	eng.Schedule(10, func() {})
	eng.ScheduleDaemon(5, func() {})
	eng.Schedule(20, func() {})
	eng.Run()
	if got := eng.Dispatched(); got != 2 {
		t.Fatalf("Dispatched = %d, want 2 (daemons excluded)", got)
	}
	if got := eng.DaemonsFired(); got != 1 {
		t.Fatalf("DaemonsFired = %d, want 1", got)
	}
}

func TestSelfReschedulingDaemonBoundedByForeground(t *testing.T) {
	// A telemetry-sampler-style daemon that re-arms itself every tick
	// must fire only for timestamps covered by foreground activity.
	eng := NewEngine()
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		eng.ScheduleDaemon(10, tick)
	}
	eng.ScheduleDaemon(10, tick)
	eng.Schedule(45, func() {})
	end := eng.Run()
	if end != 45 {
		t.Fatalf("end = %v, want 45", end)
	}
	if ticks != 4 { // t=10,20,30,40
		t.Fatalf("daemon ticks = %d, want 4", ticks)
	}
}

func TestCancelDaemonLeavesForegroundCount(t *testing.T) {
	eng := NewEngine()
	ev := eng.AtDaemonHandle(10, func() { t.Fatal("cancelled daemon fired") })
	eng.Schedule(20, func() {})
	if eng.PendingForeground() != 1 {
		t.Fatalf("foreground = %d, want 1", eng.PendingForeground())
	}
	eng.Cancel(ev)
	if eng.PendingForeground() != 1 {
		t.Fatalf("foreground after daemon cancel = %d, want 1 (unchanged)", eng.PendingForeground())
	}
	eng.Run()
	if eng.DaemonsFired() != 0 {
		t.Fatalf("DaemonsFired = %d, want 0", eng.DaemonsFired())
	}
}

func TestRunUntilFiresDaemonsWithNoForeground(t *testing.T) {
	// RunUntil drains by deadline, not by foreground count, so pure
	// daemon ticks do fire under it (used by tests that pause mid-run).
	eng := NewEngine()
	fired := 0
	eng.ScheduleDaemon(10, func() { fired++ })
	eng.ScheduleDaemon(30, func() { fired++ })
	end := eng.RunUntil(20)
	if end != 20 || fired != 1 {
		t.Fatalf("end=%v fired=%d, want 20/1", end, fired)
	}
}

func TestNegativeDaemonDelayPanics(t *testing.T) {
	eng := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	eng.ScheduleDaemon(-1, func() {})
}

// TestReplayMatchesSimulatedStretch: Replay leaves an idle engine as
// simulating the recorded stretch does — the clock, the dispatch count,
// the ranks, and the tombstones the stretch's dispatch loop pops on its
// way, with later tombstones kept — and panics on a busy engine or a
// time in the past.
func TestReplayMatchesSimulatedStretch(t *testing.T) {
	setup := func() *Engine {
		e := NewEngine()
		e.Schedule(5, func() {})
		e.Run()
		e.Cancel(e.AtRanked(20, e.ReserveSeq(1), func() {}))
		e.Cancel(e.AtRanked(500, e.ReserveSeq(1), func() {}))
		return e
	}
	sim, rep := setup(), setup()
	var step func()
	left := 3
	step = func() {
		if left--; left > 0 {
			sim.Schedule(10, step)
		}
	}
	d0, s0 := sim.Dispatched(), sim.SeqMark()
	sim.Schedule(10, step)
	sim.Run()
	rep.Replay(sim.Now(), sim.Dispatched()-d0, sim.SeqMark()-s0)
	if rep.Now() != sim.Now() || rep.Dispatched() != sim.Dispatched() || rep.SeqMark() != sim.SeqMark() ||
		rep.tombstones != sim.tombstones || rep.queue.Len() != sim.queue.Len() {
		t.Fatalf("replayed now %v dispatched %d seq %d tombstones %d queued %d; simulated %v %d %d %d %d",
			rep.Now(), rep.Dispatched(), rep.SeqMark(), rep.tombstones, rep.queue.Len(),
			sim.Now(), sim.Dispatched(), sim.SeqMark(), sim.tombstones, sim.queue.Len())
	}
	mustPanic := func(name string, fn func(e *Engine)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn(NewEngine())
	}
	mustPanic("Replay on a busy engine", func(e *Engine) { e.Schedule(1, func() {}); e.Replay(10, 1, 1) })
	mustPanic("Replay into the past", func(e *Engine) { e.Schedule(5, func() {}); e.Run(); e.Replay(4, 0, 0) })
}
