package train

import (
	"testing"
	"unsafe"
)

func TestLatchWaitAfterOpenRunsImmediately(t *testing.T) {
	var l Latch
	l.Open()
	ran := false
	l.Wait(func() { ran = true })
	if !ran {
		t.Fatal("waiter registered after Open did not run immediately")
	}
	if !l.IsOpen() {
		t.Fatal("latch should report open")
	}
}

func TestLatchReleasesAllWaitersInOrder(t *testing.T) {
	var l Latch
	var order []int
	for i := 0; i < 5; i++ {
		l.Wait(func() { order = append(order, i) })
	}
	if len(order) != 0 {
		t.Fatalf("waiters ran before Open: %v", order)
	}
	if l.IsOpen() {
		t.Fatal("latch open before Open()")
	}
	l.Open()
	if len(order) != 5 {
		t.Fatalf("Open released %d of 5 waiters", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("waiters ran out of registration order: %v", order)
		}
	}
}

func TestLatchOpenIsIdempotent(t *testing.T) {
	var l Latch
	runs := 0
	l.Wait(func() { runs++ })
	l.Open()
	l.Open()
	l.Open()
	if runs != 1 {
		t.Fatalf("waiter ran %d times across repeated Opens, want 1", runs)
	}
	// A waiter added between Opens runs exactly once, immediately.
	l.Wait(func() { runs++ })
	l.Open()
	if runs != 2 {
		t.Fatalf("late waiter ran %d-1 times, want once", runs-1)
	}
}

func TestLatchWaiterMayReenter(t *testing.T) {
	// A waiter that registers another waiter on the same (now open)
	// latch must see it run immediately — this is the pattern the
	// trainer's forward pass relies on when layers gate in sequence.
	var l Latch
	inner := false
	l.Wait(func() {
		l.Wait(func() { inner = true })
	})
	l.Open()
	if !inner {
		t.Fatal("nested waiter did not run")
	}
}

// TestLatchRingIndependentOfIterations: the trainer keeps forward
// latches for two iterations, not for every iteration of the run, and
// a latch stays 16 B. Reclaiming a slot that still has a parked
// waiter, or asking for an iteration whose slot already serves a later
// one, panics. TestLatchRingGatesEveryLayer runs every strategy over
// the ring.
func TestLatchRingIndependentOfIterations(t *testing.T) {
	for _, iters := range []int{4, 4096} {
		cfg := mlpConfig(iters)
		tr, err := New(cfg, &instant{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(tr.latches), len(tr.ctx.Workers)*2*len(cfg.Model.Layers); got != want {
			t.Errorf("%d iterations: %d latches, want workers x 2 x layers = %d", iters, got, want)
		}
	}
	if size := unsafe.Sizeof(Latch{}); size != 16 {
		t.Errorf("a latch takes %d B, want 16", size)
	}

	tr, err := New(mlpConfig(4), &instant{})
	if err != nil {
		t.Fatal(err)
	}
	tr.latch(1, 0, 0).Wait(func() {})
	if !panics(func() { tr.latch(3, 0, 0) }) {
		t.Error("reclaiming a latch slot with a parked waiter did not panic")
	}
	tr.latch(2, 0, 1)
	if !panics(func() { tr.latch(0, 0, 1) }) {
		t.Error("asking for an iteration whose slot serves a later one did not panic")
	}
}

func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}
