package experiments

import (
	"testing"

	"coarse/internal/runner"
)

// BenchmarkScaleCell* time one COARSE weak-scaling cell end to end —
// the workload class steady-state fast-forward exists for. Flow
// aggregation folds no transfer in these cells, so they do not
// measure it; paper-fig16's collective fans do. The benchmark asserts the iteration time stays the same
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
