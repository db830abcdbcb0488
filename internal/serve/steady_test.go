package serve

import (
	"math"
	"runtime"
	"testing"
)

// steadyServeCase is one cell of the serving allocation gate.
type steadyServeCase struct {
	name      string
	placement KVPlacement
	prefetch  bool
}

// runServeMallocs builds c for the given request count and returns the
// heap objects its Run allocates, with the Sim. Like the training gate
// it measures under GOMAXPROCS(1) and keeps the least of three runs:
// the simulation's own allocations repeat exactly, so only the
// runtime's stray ones can differ between them.
func runServeMallocs(t *testing.T, c steadyServeCase, requests int) (uint64, *Sim) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	var s *Sim
	for i := 0; i < 3; i++ {
		cfg := testConfig(c.placement)
		cfg.Prefetch = c.prefetch
		cfg.Workload.RatePerSec = steadyRate
		cfg.Workload.Requests = requests
		var err error
		if s, err = New(cfg); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if res.Completed != requests {
			t.Fatalf("completed %d of %d requests", res.Completed, requests)
		}
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least, s
}

// maxAllocsPerRequest is what a serving run may allocate for each
// request beyond the first 200: nothing of its own. The slack covers
// storage sized by the run's peak rather than its length: the fabric's
// flow records and per-channel flow lists, the event heap, the queues.
// A longer run can meet a slightly deeper burst and grow them by a few
// objects.
const maxAllocsPerRequest = 0.05

// steadyRate is the gate's arrival rate in requests per second. It
// keeps the machine below saturation, so the peaks above are reached
// early. Past saturation, prefetched KV reads pile up on the fabric and
// the flows in flight grow with the run (pooled prefetch at 40/s with
// one prefill worker adds about 20 objects a request), which is
// simulated state, not a per-request allocation.
const steadyRate = 16

// TestServeSteadyStateAllocs: a serving run's allocations do not grow
// with its request count. Run of 400 requests may allocate at most
// maxAllocsPerRequest objects per added request more than Run of 200
// at the same rate, for both KV placements and pooled KV with
// prefetch; after Run, ReleasePool has emptied every free list the run
// used. A comparison over the limit is measured again, up to three
// times, since under the race detector the runtime now and then adds a
// few objects of its own to one measurement.
func TestServeSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every case up to eighteen times")
	}
	cases := []steadyServeCase{
		{"local", KVLocal, false},
		{"pooled", KVPooled, false},
		{"pooled-prefetch", KVPooled, true},
	}
	const small, large = 200, 400
	limit := maxAllocsPerRequest * (large - small)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var lo, hi uint64
			var s *Sim
			for attempt := 0; attempt < 3; attempt++ {
				lo, _ = runServeMallocs(t, c, small)
				if hi, s = runServeMallocs(t, c, large); float64(hi)-float64(lo) <= limit {
					break
				}
			}
			if extra := float64(hi) - float64(lo); extra > limit {
				t.Errorf("%d requests allocate %d objects, %d allocate %d: %+.3f per added request, want at most %.2f",
					large, hi, small, lo, extra/(large-small), maxAllocsPerRequest)
			}
			if n := s.eng.Pooled(); n != 0 {
				t.Errorf("after Run the engine's free lists hold %d records, want 0", n)
			}
		})
	}
}
