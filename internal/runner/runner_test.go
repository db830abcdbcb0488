package runner

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"

	"coarse/internal/model"
	"coarse/internal/paramserver"
	"coarse/internal/topology"
	"coarse/internal/train"
)

func testSpec(id string) Spec {
	return Spec{
		ID:          id,
		Topology:    topology.SDSCP100(),
		Model:       model.MLP("runner-mlp", 256, 128, 64),
		Batch:       4,
		Iterations:  2,
		NewStrategy: func() train.Strategy { return train.NewAllReduce() },
	}
}

func TestMapOrderAndCoverage(t *testing.T) {
	for _, parallel := range []int{1, 2, 8, 0} {
		out := Map(parallel, 17, func(i int) int { return i * i })
		if len(out) != 17 {
			t.Fatalf("parallel=%d: got %d results", parallel, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("parallel=%d: out[%d] = %d, want %d (results must collect by index)", parallel, i, v, i*i)
			}
		}
	}
	if got := Map(4, 0, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("Map over zero items returned %d results", len(got))
	}
}

func TestRunProducesStructuredResult(t *testing.T) {
	res := Run(testSpec("unit"))
	if !res.OK() {
		t.Fatalf("run failed: %s", res.Err)
	}
	tr := res.Train
	if tr == nil {
		t.Fatal("nil train result")
	}
	if tr.Strategy != "AllReduce" || tr.Model != "runner-mlp" || tr.Workers < 2 {
		t.Fatalf("unexpected labels: %+v", tr)
	}
	if tr.IterTime <= 0 || tr.TotalTime <= 0 {
		t.Fatalf("missing timing: %+v", tr.RunMetrics)
	}
	if tr.Events == 0 {
		t.Fatal("event counter not recorded")
	}
	if len(tr.LinkUtils) == 0 {
		t.Fatal("per-link utilization not recorded")
	}
	rec := res.Record()
	if rec.Labels["strategy"] != "AllReduce" || rec.Values["iter_time_s"] <= 0 {
		t.Fatalf("record flattening lost data: %+v", rec)
	}
}

// TestSerialTwiceVsParallelByteIdentical is the runner-level determinism
// regression (satellite #1): the same batch run twice serially and once
// via the parallel pool must produce byte-identical JSON results.
func TestSerialTwiceVsParallelByteIdentical(t *testing.T) {
	build := func() []Spec {
		var specs []Spec
		for i := 0; i < 6; i++ {
			s := testSpec(fmt.Sprintf("det-%d", i))
			if i%2 == 1 {
				s.NewStrategy = func() train.Strategy { return paramserver.NewDENSE() }
			}
			s.Batch = 2 + i
			specs = append(specs, s)
		}
		return specs
	}
	dump := func(parallel int) string {
		pool := &Pool{Parallel: parallel}
		out := pool.Train(build())
		js, err := json.MarshalIndent(out, "", " ")
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return string(js)
	}
	serial1 := dump(1)
	serial2 := dump(1)
	par := dump(8)
	if serial1 != serial2 {
		t.Fatalf("serial runs differ:\n%s\n---\n%s", serial1, serial2)
	}
	if serial1 != par {
		t.Fatalf("parallel run differs from serial:\n%s\n---\n%s", serial1, par)
	}
}

func TestDerivedSeedStableAndDistinct(t *testing.T) {
	a := testSpec("a")
	if a.DerivedSeed() != a.DerivedSeed() {
		t.Fatal("seed derivation not stable")
	}
	b := testSpec("b")
	if a.DerivedSeed() == b.DerivedSeed() {
		t.Fatal("distinct specs derived the same seed")
	}
	a.Seed = 42
	if a.DerivedSeed() != 42 {
		t.Fatal("explicit seed not honored")
	}
	res := Run(testSpec("a"))
	if res.Seed != testSpec("a").DerivedSeed() {
		t.Fatalf("result seed %d does not match derivation %d", res.Seed, testSpec("a").DerivedSeed())
	}
}

func TestCacheMemoizesKeyedSpecs(t *testing.T) {
	ClearCache()
	defer ClearCache()
	var runs atomic.Int32
	spec := testSpec("cached")
	spec.Key = "runner-test-cache-key"
	base := spec.NewStrategy
	spec.NewStrategy = func() train.Strategy {
		runs.Add(1)
		return base()
	}
	pool := &Pool{Parallel: 1}
	first := pool.Train([]Spec{spec})[0]
	second := pool.Train([]Spec{spec})[0]
	if runs.Load() != 1 {
		t.Fatalf("keyed spec ran %d times, want 1", runs.Load())
	}
	if first != second {
		t.Fatal("cache did not return the memoized result")
	}
	uncached := testSpec("uncached")
	uncached.NewStrategy = spec.NewStrategy
	pool.Train([]Spec{uncached})
	pool.Train([]Spec{uncached})
	if runs.Load() != 3 {
		t.Fatalf("unkeyed spec should run every time; total runs %d, want 3", runs.Load())
	}
}

func TestRunCapturesErrorsAndPanics(t *testing.T) {
	// OOM: a model that cannot fit.
	oom := testSpec("oom")
	oom.Model = model.BERTLarge()
	oom.Batch = 4096
	res := Run(oom)
	if res.OK() || res.Train != nil || !res.OOM {
		t.Fatalf("expected OOM failure, got %+v", res)
	}

	// Panic inside the strategy must be captured, not propagate.
	boom := testSpec("boom")
	boom.NewStrategy = func() train.Strategy { panic("kaboom") }
	res = Run(boom)
	if res.OK() {
		t.Fatal("panic not captured")
	}
	if res.Err != "panic: kaboom" || res.OOM {
		t.Fatalf("unexpected panic result: %q (OOM %v)", res.Err, res.OOM)
	}

	// And captured in parallel pool execution too.
	out := (&Pool{Parallel: 4}).Train([]Spec{testSpec("ok"), boom, testSpec("ok2")})
	if !out[0].OK() || out[1].OK() || !out[2].OK() {
		t.Fatalf("pool did not isolate the panicking cell: %+v", out)
	}
}

func TestProbeExtra(t *testing.T) {
	s := testSpec("probe")
	s.Probe = func(p *Probe) {
		if p.Trainer == nil || p.Strategy == nil {
			t.Error("probe context incomplete")
		}
		p.Result.SetExtra("note", "hello")
	}
	res := Run(s)
	if !res.OK() || res.Extra["note"] != "hello" {
		t.Fatalf("probe extra missing: %+v", res)
	}
	rec := res.Record()
	if rec.Extra["note"] != "hello" {
		t.Fatalf("record lost extra: %+v", rec)
	}
}

func TestTelemetryResultsByteIdenticalAcrossParallelism(t *testing.T) {
	// Telemetry dumps ride along in Result.Telemetry; the whole
	// structure — series values, sample times, labels — must be
	// byte-identical at any pool width, like every other result field.
	build := func() []Spec {
		var specs []Spec
		for i := 0; i < 4; i++ {
			s := testSpec(fmt.Sprintf("tel-%d", i))
			s.Telemetry = true
			s.Batch = 2 + i
			specs = append(specs, s)
		}
		return specs
	}
	dump := func(parallel int) string {
		pool := &Pool{Parallel: parallel}
		out := pool.Train(build())
		for i, r := range out {
			if r.Telemetry == nil {
				t.Fatalf("spec %d: telemetry requested but dump missing", i)
			}
		}
		js, err := json.MarshalIndent(out, "", " ")
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return string(js)
	}
	serial := dump(1)
	par := dump(4)
	if serial != par {
		t.Fatal("telemetry results differ between -parallel 1 and 4")
	}
}

func TestTelemetrySpecsBypassCache(t *testing.T) {
	// A memoized result would hand every caller the same *Dump; traced
	// runs also mutate per-spec recorders. Telemetry specs therefore run
	// fresh even when keyed.
	ClearCache()
	defer ClearCache()
	var runs atomic.Int32
	spec := testSpec("tel-cache")
	spec.Key = "runner-test-telemetry-key"
	spec.Telemetry = true
	base := spec.NewStrategy
	spec.NewStrategy = func() train.Strategy {
		runs.Add(1)
		return base()
	}
	pool := &Pool{Parallel: 1}
	a := pool.Train([]Spec{spec})[0]
	b := pool.Train([]Spec{spec})[0]
	if runs.Load() != 2 {
		t.Fatalf("telemetry spec ran %d times, want 2 (must bypass cache)", runs.Load())
	}
	if a.Telemetry == b.Telemetry {
		t.Fatal("telemetry dumps aliased across runs")
	}
}

func TestTelemetryDumpLabeledWithSpecID(t *testing.T) {
	spec := testSpec("tel-label")
	spec.Telemetry = true
	res := Run(spec)
	if !res.OK() {
		t.Fatalf("run failed: %s", res.Err)
	}
	d := res.Telemetry
	if d == nil {
		t.Fatal("no dump")
	}
	if d.GetLabel("id") != "tel-label" {
		t.Fatalf("id label = %q", d.GetLabel("id"))
	}
	if d.GetLabel("seed") == "" {
		t.Fatal("seed label missing")
	}
	if res.Train != nil && d.TotalTimeNS != res.Train.TotalTime {
		t.Fatalf("dump total %v != run total %v", d.TotalTimeNS, res.Train.TotalTime)
	}
}
