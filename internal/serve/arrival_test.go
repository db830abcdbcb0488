package serve

import (
	"sync"
	"testing"

	"coarse/internal/sim"
)

// TestTraceDeterministic: the request trace is a pure function of
// (workload, seed) — byte-identical across repeated and concurrent
// generation, for every arrival shape.
func TestTraceDeterministic(t *testing.T) {
	for _, kind := range []ArrivalKind{Poisson, Diurnal, Bursty} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			w := Workload{Arrival: kind, RatePerSec: 40, Requests: 200}
			want := TraceString(GenerateTrace(w, 7))

			// Concurrent generation (the runner's pool runs cells at
			// parallelism 4): every goroutine must see the same bytes.
			const par = 4
			got := make([]string, par)
			var wg sync.WaitGroup
			for i := 0; i < par; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = TraceString(GenerateTrace(w, 7))
				}()
			}
			wg.Wait()
			for i, g := range got {
				if g != want {
					t.Fatalf("goroutine %d: trace diverged from serial generation", i)
				}
			}

			// A different seed must actually change the trace.
			if other := TraceString(GenerateTrace(w, 8)); other == want {
				t.Fatalf("seed 7 and 8 produced identical traces")
			}
		})
	}
}

// TestTraceShape: arrivals are ordered, lengths bounded, count exact.
func TestTraceShape(t *testing.T) {
	w := Workload{Arrival: Bursty, RatePerSec: 80, Requests: 300}
	reqs := GenerateTrace(w, 3)
	if len(reqs) != 300 {
		t.Fatalf("got %d requests, want 300", len(reqs))
	}
	var prev sim.Time
	for i, q := range reqs {
		if q.ID != i {
			t.Fatalf("request %d has ID %d", i, q.ID)
		}
		if q.Arrival < prev {
			t.Fatalf("request %d arrives at %d before predecessor %d", i, q.Arrival, prev)
		}
		prev = q.Arrival
		if q.PromptTokens < 1 || q.PromptTokens > promptMax {
			t.Fatalf("request %d prompt length %d outside [1, %d]", i, q.PromptTokens, promptMax)
		}
		if q.OutputTokens < 1 || q.OutputTokens > outputMax {
			t.Fatalf("request %d output length %d outside [1, %d]", i, q.OutputTokens, outputMax)
		}
	}
}

// TestTraceMeanRate: thinning preserves the long-run mean rate for the
// modulated shapes (within a loose stochastic tolerance).
func TestTraceMeanRate(t *testing.T) {
	for _, kind := range []ArrivalKind{Poisson, Diurnal, Bursty} {
		w := Workload{Arrival: kind, RatePerSec: 100, Requests: 4000}
		reqs := GenerateTrace(w, 11)
		span := reqs[len(reqs)-1].Arrival.ToSeconds()
		rate := float64(len(reqs)) / span
		if rate < 80 || rate > 125 {
			t.Errorf("%s: long-run rate %.1f rps, want ~100", kind, rate)
		}
	}
}

// TestZeroTraffic: no requests → no trace at all.
func TestZeroTraffic(t *testing.T) {
	if reqs := GenerateTrace(Workload{RatePerSec: 10}, 1); reqs != nil {
		t.Fatalf("zero-request workload produced %d requests", len(reqs))
	}
	if reqs := GenerateTrace(Workload{Requests: 10}, 1); reqs != nil {
		t.Fatalf("zero-rate workload produced %d requests", len(reqs))
	}
}

func TestParseArrival(t *testing.T) {
	for _, kind := range []ArrivalKind{Poisson, Diurnal, Bursty} {
		got, err := ParseArrival(kind.String())
		if err != nil || got != kind {
			t.Fatalf("ParseArrival(%q) = %v, %v", kind.String(), got, err)
		}
	}
	if _, err := ParseArrival("lunar"); err == nil {
		t.Fatalf("ParseArrival accepted an unknown shape")
	}
}
