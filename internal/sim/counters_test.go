package sim

import "testing"

// TestCounterPinningCancelHeavy pins the exact Pending / tombstone /
// compaction counter trajectory of a cancel-heavy sequence on the
// engine's binary-heap event queue. The numbers below are the contract: the
// compaction trigger is tombstones >= 64 AND tombstones*2 > queue
// length, compaction evicts every tombstone, cumulative
// EventsTombstoned never decreases, and revivals (PlaceRanked of a
// compacted event, PlaceRanked of a still-queued tombstone) adjust
// Pending without touching the cumulative count. Any drift here is a
// behavior change in the engine's bookkeeping, not noise.
func TestCounterPinningCancelHeavy(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		assert := func(stage string, pending, fg, tombstoned, compactions int) {
			t.Helper()
			if e.Pending() != pending {
				t.Fatalf("%s: Pending = %d, want %d", stage, e.Pending(), pending)
			}
			if e.PendingForeground() != fg {
				t.Fatalf("%s: PendingForeground = %d, want %d", stage, e.PendingForeground(), fg)
			}
			if e.EventsTombstoned() != uint64(tombstoned) {
				t.Fatalf("%s: EventsTombstoned = %d, want %d", stage, e.EventsTombstoned(), tombstoned)
			}
			if e.Compactions() != uint64(compactions) {
				t.Fatalf("%s: Compactions = %d, want %d", stage, e.Compactions(), compactions)
			}
		}

		events := make([]*Event, 200)
		for j := range events {
			events[j] = atHandle(e, Time(1000+j), func() {})
		}
		assert("after schedule", 200, 200, 0, 0)

		// Cancel 0..99: tombstones reach 100 but 2*100 <= 200 queued,
		// so no compaction yet.
		for j := 0; j < 100; j++ {
			e.Cancel(events[j])
		}
		assert("100 tombstones, below trigger", 100, 100, 100, 0)

		// The 101st cancel tips the balance (2*101 > 200): one
		// compaction evicts all 101 tombstones.
		e.Cancel(events[100])
		assert("first compaction", 99, 99, 101, 1)

		// Cancel 101..149: 49 tombstones, under the 64 floor.
		for j := 101; j < 150; j++ {
			e.Cancel(events[j])
		}
		assert("49 tombstones under floor", 50, 50, 150, 1)

		// Revive 10 compacted-away events: re-armed from scratch,
		// cumulative tombstone count unchanged.
		for j := 0; j < 10; j++ {
			e.PlaceRanked(events[j], Time(5000+j), e.ReserveSeq(1))
		}
		assert("revived compacted", 60, 60, 150, 1)

		// Revive 5 still-queued tombstones in place.
		for j := 110; j < 115; j++ {
			e.PlaceRanked(events[j], Time(6000+j), e.ReserveSeq(1))
		}
		assert("revived queued tombstones", 65, 65, 150, 1)

		// Cancel 30 live events. Live tombstones climb from 44; the
		// 20th cancel reaches 64 with 109 queued (2*64 > 109): second
		// compaction.
		for j := 150; j < 169; j++ {
			e.Cancel(events[j])
		}
		assert("one short of second trigger", 46, 46, 169, 1)
		e.Cancel(events[169])
		assert("second compaction", 45, 45, 170, 2)
		for j := 170; j < 180; j++ {
			e.Cancel(events[j])
		}
		assert("final tombstones", 35, 35, 180, 2)

		e.Run()
		assert("drained", 0, 0, 180, 2)
		if e.Dispatched() != 35 {
			t.Fatalf("Dispatched = %d, want 35", e.Dispatched())
		}
	})
}
