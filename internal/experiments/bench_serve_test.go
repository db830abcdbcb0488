package experiments

import (
	"testing"

	"coarse/internal/runner"
	"coarse/internal/serve"
	"coarse/internal/topology"
)

// BenchmarkServeCell* time one mid-load serving cell end to end —
// trace generation, prefill/decode continuous batching, and (pooled)
// the per-step KV traffic over the CCI fabric — one benchmark per KV
// placement so bench-guard watches both the compute-bound and the
// fabric-bound serving hot paths. Like the scale pair, each iteration
// asserts the pinned completion time as a cheap guard against timing a
// run that silently diverged. These feed BENCH_core.json via
// `go run ./cmd/benchjson -set core`.

func BenchmarkServeCellLocal(b *testing.B)  { benchServeCell(b, serve.KVLocal) }
func BenchmarkServeCellPooled(b *testing.B) { benchServeCell(b, serve.KVPooled) }

func benchServeCell(b *testing.B, placement serve.KVPlacement) {
	spec := serveSpec(Config{}, topology.AWSV100(), evalModel("bert-base"),
		serve.Poisson, serveMidRate, placement, false)
	spec.Key = "" // no result cache: each iteration must simulate
	var total string
	for i := 0; i < b.N; i++ {
		res := runner.RunServe(spec)
		if !res.OK() {
			b.Fatalf("serve cell failed: %s", res.Err)
		}
		got := res.Serve.TotalTime.String()
		if total == "" {
			total = got
		} else if got != total {
			b.Fatalf("completion time drifted: %s vs %s", got, total)
		}
	}
}
