package sim

import "testing"

// BenchmarkEngineCancelChurn models the fabric reshare pattern the
// event queue pays for most: a standing population of pending
// completion events — one per worker of a 4096-worker cell — cycled
// the way an incremental reshare cycles them: tombstone the stale
// deadline, park the event at the far-future sentinel, then settle it
// back onto a fresh deadline. Cancellation is a lazy tombstone; each
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
				e.Reschedule(events[j], farFuture)
			}
			base := e.Now()
			for j := range events {
				e.Reschedule(events[j], base+Time(1000+((j+round)*392917)%window))
			}
			e.RunUntil(base + window + 2000)
		}
		e.Run()
	}
}

// BenchmarkEngineRetimeParkChurn is the post-incremental-reshare hot
// pattern: completion events parked at a far-future sentinel and later
// settled back onto near deadlines with their reserved rank (Retime /
// PlaceRanked). Each park or settle is a full-depth sift.
func BenchmarkEngineRetimeParkChurn(b *testing.B) {
	const population = 4096
	const farFuture = Infinity - 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		events := make([]*Event, population)
		fn := func() {}
		for j := range events {
			events[j] = atHandle(e, Time(1000+j), fn)
		}
		for round := 0; round < 16; round++ {
			for j := range events {
				e.Retime(events[j], farFuture)
			}
			for j := range events {
				e.Retime(events[j], Time(2000+round*100+j))
			}
		}
		e.Run()
	}
}

// BenchmarkEngineReschedule measures moving a standing population of
// pending events to new deadlines, the "completion time changed"
// reshare path.
func BenchmarkEngineReschedule(b *testing.B) {
	const population = 512
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		events := make([]*Event, population)
		fn := func() {}
		for j := range events {
			events[j] = atHandle(e, Time(1000+j), fn)
		}
		for round := 0; round < 16; round++ {
			for j := range events {
				e.Reschedule(events[j], Time(2000+round*100+j))
			}
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
