package serve

import (
	"math"
	"testing"

	"coarse/internal/model"
	"coarse/internal/topology"
)

// FuzzServeWorkload feeds arbitrary workloads to New, which must answer
// with an error rather than panic, and expands every accepted one with
// GenerateTrace, which must return exactly the asked-for requests (none
// at rate 0) with sequential IDs, non-negative non-decreasing arrivals
// and token lengths inside their caps. Accepted workloads of at most 8
// requests are also served to completion.
func FuzzServeWorkload(f *testing.F) {
	f.Add(int(Poisson), 40.0, 48, 0, 0, int64(1)) // the serve tests' workload
	f.Add(int(Diurnal), 28.0, 8, 24, 48, int64(7))
	f.Add(int(Bursty), 80.0, 300, 1, 1, int64(3))
	f.Add(int(Poisson), 0.0, 0, 0, 0, int64(1)) // zero traffic
	f.Add(int(Poisson), 0.0, 10, 0, 0, int64(1))
	f.Add(int(Bursty)+1, 40.0, 8, 0, 0, int64(1))
	f.Add(int(Poisson), math.NaN(), 8, 0, 0, int64(1))
	f.Add(int(Diurnal), math.Inf(1), 8, 0, 0, int64(1))
	f.Add(int(Diurnal), 1e300, 8, 0, 0, int64(1))
	f.Add(int(Poisson), -1.0, 8, 0, 0, int64(1))
	f.Add(int(Poisson), 1e-9, 1, 0, 0, int64(1))
	f.Add(int(Poisson), 40.0, 2_000_000_000, 0, 0, int64(1))
	f.Add(int(Bursty), 40.0, -5, -3, math.MaxInt, int64(-1))

	m := model.MLP("fuzz", 8, 4)
	f.Fuzz(func(t *testing.T, kind int, rate float64, requests, promptMean, outputMean int, seed int64) {
		w := Workload{Arrival: ArrivalKind(kind), RatePerSec: rate, Requests: requests,
			PromptMean: promptMean, OutputMean: outputMean}
		cfg := DefaultConfig(topology.AWSV100(), m, w)
		cfg.Seed = seed
		s, err := New(cfg)
		if err != nil {
			return
		}
		reqs := GenerateTrace(w, seed)
		want := requests
		if rate == 0 {
			want = 0
		}
		if len(reqs) != want {
			t.Fatalf("%+v: %d requests, want %d", w, len(reqs), want)
		}
		for i, q := range reqs {
			if q.ID != i || q.Arrival < 0 || (i > 0 && q.Arrival < reqs[i-1].Arrival) ||
				q.PromptTokens < 1 || q.PromptTokens > promptMax ||
				q.OutputTokens < 1 || q.OutputTokens > outputMax {
				t.Fatalf("%+v: request %d is %+v", w, i, q)
			}
		}
		if requests > 8 {
			return
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("%+v: %v", w, err)
		}
		if res.Completed != want {
			t.Fatalf("%+v: %d of %d requests completed", w, res.Completed, want)
		}
	})
}
