package experiments

// Parallelism-equivalence property: every spelling of the data-parallel
// layout binds the same single-tree plan, for every synchronization
// strategy — not approximately, but byte for byte, results and
// telemetry alike. Layout{DP: n} and Layout{PP: 1, TP: 1, EP: 1}
// normalize to the zero layout: one microbatch, one all-worker
// reduction tree per layer over a flat ring, no layout label. The
// committed goldens pin that plan's output byte for byte.

import (
	"bytes"
	"reflect"
	"testing"

	"coarse/internal/model"
	"coarse/internal/parallel"
	"coarse/internal/telemetry"
	"coarse/internal/topology"
	"coarse/internal/train"
)

// runEquiv runs one small training with telemetry and returns the
// result and serialized dump bytes.
func runEquiv(t *testing.T, lay parallel.Layout, strat string) (*train.Result, []byte) {
	t.Helper()
	m := model.MLP("mlp", 512, 256, 10)
	cfg := train.DefaultConfig(topology.AWSV100(), m, 4, 2)
	cfg.Layout = lay
	cfg.Telemetry = telemetry.NewRegistry()
	tr, err := train.New(cfg, newStrategy(strat))
	if err != nil {
		t.Fatalf("%s/%v: New: %v", strat, lay, err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatalf("%s/%v: Run: %v", strat, lay, err)
	}
	var buf bytes.Buffer
	if err := tr.TelemetryDump().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestDPOnlyLayoutByteIdentity: for all four strategies, the zero
// layout, an explicit Layout{DP: world} and explicit unit factors
// produce identical results and telemetry bytes.
func TestDPOnlyLayoutByteIdentity(t *testing.T) {
	const world = 4 // AWS V100 preset worker count (4 switches x "WM")
	for _, strat := range smokeStrategies {
		strat := strat
		t.Run(strat, func(t *testing.T) {
			base, baseDump := runEquiv(t, parallel.Layout{}, strat)
			if base.Layout != "" {
				t.Fatalf("trivial layout labeled %q, want empty", base.Layout)
			}
			for _, lay := range []parallel.Layout{
				{DP: world},
				{DP: world, Micro: 1},
				{PP: 1, TP: 1, EP: 1},
			} {
				res, dump := runEquiv(t, lay, strat)
				if !reflect.DeepEqual(res, base) {
					t.Errorf("%v diverged from unsharded path:\nbase %+v\ngot  %+v",
						lay, base.RunMetrics, res.RunMetrics)
				}
				if !bytes.Equal(dump, baseDump) {
					t.Errorf("%v changed telemetry bytes (%d vs %d)", lay, len(dump), len(baseDump))
				}
			}
		})
	}
}

// TestNonDividingLayoutRejected: the trainer surfaces layout/world
// mismatches as construction errors, not runtime surprises.
func TestNonDividingLayoutRejected(t *testing.T) {
	m := model.MLP("mlp", 512, 256, 10)
	cfg := train.DefaultConfig(topology.AWSV100(), m, 4, 2)
	cfg.Layout = parallel.Layout{PP: 3} // 8 workers, 3 stages
	if _, err := train.New(cfg, train.NewAllReduce()); err == nil {
		t.Fatal("non-dividing layout accepted")
	}
	cfg.Layout = parallel.Layout{PP: 2}
	cfg.Batch = 3 // not divisible into 2 microbatches
	if _, err := train.New(cfg, train.NewAllReduce()); err == nil {
		t.Fatal("batch not divisible by microbatches accepted")
	}
}

// TestDPOnlyMicrobatchesRejected: a data-parallel layout runs one
// microbatch per iteration, so asking for more is an error rather than
// a silently ignored setting.
func TestDPOnlyMicrobatchesRejected(t *testing.T) {
	m := model.MLP("mlp", 512, 256, 10)
	cfg := train.DefaultConfig(topology.AWSV100(), m, 4, 2)
	for _, lay := range []parallel.Layout{{Micro: 2}, {DP: 4, Micro: 2}} {
		cfg.Layout = lay
		if _, err := train.New(cfg, train.NewAllReduce()); err == nil {
			t.Errorf("%+v: data-parallel layout with %d microbatches accepted", lay, lay.Micro)
		}
	}
}
