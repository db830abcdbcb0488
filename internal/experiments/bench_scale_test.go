package experiments

import (
	"testing"

	"coarse/internal/runner"
)

// BenchmarkScaleCell* time one COARSE weak-scaling cell end to end —
// the workload class flow aggregation and steady-state fast-forward
// exist for. The benchmark asserts the iteration time stays the same
// across runs as a cheap guard against timing a run that silently
// diverged. These benchmarks feed BENCH_core.json via
// `go run ./cmd/benchjson -set core`.

func BenchmarkScaleCell256(b *testing.B)  { benchScaleCell(b, 256) }
func BenchmarkScaleCell1024(b *testing.B) { benchScaleCell(b, 1024) }

func benchScaleCell(b *testing.B, workers int) {
	spec := scaleSpec(Config{Quick: true}, workers, scaleShards, 4, "COARSE")
	spec.Key = "" // no result cache: each iteration must simulate
	var iter string
	for i := 0; i < b.N; i++ {
		res := runner.Run(spec)
		if !res.OK() {
			b.Fatalf("scale cell failed: %s", res.Err)
		}
		got := res.Train.IterTime.String()
		if iter == "" {
			iter = got
		} else if got != iter {
			b.Fatalf("iteration time drifted: %s vs %s", got, iter)
		}
	}
}
