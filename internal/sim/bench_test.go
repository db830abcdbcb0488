package sim

import "testing"

// BenchmarkEngineCancelChurn cycles a standing population of 4096
// caller-owned events through the queue's move paths: tombstone the
// stale deadline, revive the event at the far-future sentinel on a
// fresh rank, then settle it back onto a fresh deadline (PlaceRanked
// throughout). Cancellation is a lazy tombstone; each
// park or settle costs a full-depth sift, and the partial drain
// between rounds a full-depth pop per dispatch.
func BenchmarkEngineCancelChurn(b *testing.B) {
	const population = 4096
	const window = 1 << 17 // deadlines jump anywhere in a ~130us window
	const farFuture = Infinity - 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		events := make([]*Event, population)
		fn := func() {}
		for j := range events {
			events[j] = atHandle(e, Time(1000+(j*7919)%window), fn)
		}
		for round := 0; round < 32; round++ {
			for j := range events {
				e.Cancel(events[j])
				e.PlaceRanked(events[j], farFuture, e.ReserveSeq(1))
			}
			base := e.Now()
			for j := range events {
				e.PlaceRanked(events[j], base+Time(1000+((j+round)*392917)%window), e.ReserveSeq(1))
			}
			e.RunUntil(base + window + 2000)
		}
		e.Run()
	}
}

// BenchmarkEngineScheduleRun is the plain schedule/dispatch path with
// no cancellations, the floor the other benches are compared against.
func BenchmarkEngineScheduleRun(b *testing.B) {
	const n = 8192
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		fn := func() {}
		for j := 0; j < n; j++ {
			e.Schedule(Time(j%509), fn)
		}
		e.Run()
	}
}
