package runner

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"

	"coarse/internal/model"
	"coarse/internal/paramserver"
	"coarse/internal/serve"
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

// testServeSpec is a small serving cell: a few requests through the
// V100 machine's prefill/decode pools.
func testServeSpec(id string) Spec {
	return Spec{
		ID:       id,
		Topology: topology.AWSV100(),
		Model:    model.MLP("runner-mlp", 256, 128, 64),
		Workload: &serve.Workload{Arrival: serve.Poisson, RatePerSec: 28, Requests: 8},
	}
}

// countRuns makes s count its executions in n: a training cell counts
// strategy builds, a serving cell its config hook.
func countRuns(s *Spec, n *atomic.Int32) {
	if s.Workload != nil {
		s.ConfigureServe = func(*serve.Config) { n.Add(1) }
		return
	}
	base := s.NewStrategy
	s.NewStrategy = func() train.Strategy {
		n.Add(1)
		return base()
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
		for i := 0; i < 3; i++ {
			s := testServeSpec(fmt.Sprintf("det-serve-%d", i))
			s.Workload = &serve.Workload{Arrival: serve.Bursty, RatePerSec: float64(20 + 10*i), Requests: 8}
			specs = append(specs, s)
		}
		return specs
	}
	dump := func(parallel int) string {
		pool := &Pool{Parallel: parallel}
		out := pool.Run(build())
		for i, r := range out {
			if !r.OK() {
				t.Fatalf("cell %d failed: %s", i, r.Err)
			}
		}
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
	sv := testServeSpec("serve-a")
	if res := Run(sv); res.Seed != sv.DerivedSeed() {
		t.Fatalf("serving result seed %d does not match derivation %d", res.Seed, sv.DerivedSeed())
	}
	sv.Workload = &serve.Workload{Arrival: serve.Bursty, RatePerSec: 28, Requests: 8}
	if sv.DerivedSeed() == testServeSpec("serve-a").DerivedSeed() {
		t.Fatal("the workload shape does not reach the serving seed")
	}
}

// TestDerivedSeedPinned pins the derivation to literal values: every
// golden depends on these seeds, so no refactor of the spec type may
// move one.
func TestDerivedSeedPinned(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want int64
	}{
		{testSpec("a"), 3615320251857563799},
		{testServeSpec("serve-a"), 3294349536239227495},
	} {
		if got := tc.spec.DerivedSeed(); got != tc.want {
			t.Errorf("%s: DerivedSeed %d, want %d", tc.spec.ID, got, tc.want)
		}
	}
}

func TestCacheMemoizesKeyedSpecs(t *testing.T) {
	for _, mk := range []func(string) Spec{testSpec, testServeSpec} {
		ClearCache()
		var runs atomic.Int32
		spec := mk("cached")
		spec.Key = "runner-test-cache-key"
		countRuns(&spec, &runs)
		pool := &Pool{Parallel: 1}
		first := pool.Run([]Spec{spec})[0]
		second := pool.Run([]Spec{spec})[0]
		if runs.Load() != 1 {
			t.Fatalf("%s: keyed spec ran %d times, want 1", first.ID, runs.Load())
		}
		if first != second || !first.OK() {
			t.Fatalf("cache did not return the memoized result: %+v", first)
		}
		uncached := mk("uncached")
		countRuns(&uncached, &runs)
		pool.Run([]Spec{uncached})
		pool.Run([]Spec{uncached})
		if runs.Load() != 3 {
			t.Fatalf("unkeyed spec should run every time; total runs %d, want 3", runs.Load())
		}
	}
	ClearCache()
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

	// A serving cell's panic is captured the same way.
	serveBoom := testServeSpec("serve-boom")
	serveBoom.ConfigureServe = func(*serve.Config) { panic("serve kaboom") }
	if res = Run(serveBoom); res.Err != "panic: serve kaboom" || res.Serve != nil {
		t.Fatalf("serving panic not captured: %+v", res)
	}

	// A probe that panics after a successful run fails the cell, and a
	// failed cell carries none of the outputs it had produced: no
	// result, no telemetry dump, no extras.
	for _, mk := range []func(string) Spec{testSpec, testServeSpec} {
		probeBoom := mk("probe-boom")
		probeBoom.Telemetry = true
		probeBoom.Probe = func(p *Probe) {
			p.Result.SetExtra("k", "v")
			panic("probe boom")
		}
		res = Run(probeBoom)
		if res.Err != "panic: probe boom" || res.OOM {
			t.Fatalf("probe panic not captured: %q (OOM %v)", res.Err, res.OOM)
		}
		if res.Train != nil || res.Serve != nil || res.Telemetry != nil || res.Extra != nil {
			t.Fatalf("failed cell kept outputs: %+v", res)
		}
		if res.ID != "probe-boom" || res.Seed != probeBoom.DerivedSeed() {
			t.Fatalf("failed cell lost its identity: %+v", res)
		}
	}

	// And captured in parallel pool execution too.
	out := (&Pool{Parallel: 4}).Run([]Spec{testSpec("ok"), boom, testServeSpec("ok-serve"), serveBoom, testSpec("ok2")})
	if !out[0].OK() || out[1].OK() || !out[2].OK() || out[3].OK() || !out[4].OK() {
		t.Fatalf("pool did not isolate the panicking cells: %+v", out)
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

	sv := testServeSpec("serve-probe")
	sv.Probe = func(p *Probe) {
		if p.Trainer != nil || p.Strategy != nil {
			t.Error("serving probe got a trainer")
		}
		p.Result.SetExtra("note", "served")
	}
	if res := Run(sv); !res.OK() || res.Serve == nil || res.Record().Extra["note"] != "served" {
		t.Fatalf("serving probe extra missing: %+v", res)
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
		for _, kv := range []serve.KVPlacement{serve.KVLocal, serve.KVPooled} {
			s := testServeSpec("tel-serve-" + kv.String())
			s.Telemetry = true
			s.ConfigureServe = func(c *serve.Config) { c.KVPlacement = kv }
			specs = append(specs, s)
		}
		return specs
	}
	dump := func(parallel int) string {
		pool := &Pool{Parallel: parallel}
		out := pool.Run(build())
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
	for _, mk := range []func(string) Spec{testSpec, testServeSpec} {
		ClearCache()
		var runs atomic.Int32
		spec := mk("tel-cache")
		spec.Key = "runner-test-telemetry-key"
		spec.Telemetry = true
		countRuns(&spec, &runs)
		pool := &Pool{Parallel: 1}
		a := pool.Run([]Spec{spec})[0]
		b := pool.Run([]Spec{spec})[0]
		if runs.Load() != 2 {
			t.Fatalf("telemetry spec ran %d times, want 2 (must bypass cache)", runs.Load())
		}
		if a.Telemetry == nil || a.Telemetry == b.Telemetry {
			t.Fatal("telemetry dumps missing or aliased across runs")
		}
	}
	ClearCache()
}

func TestTelemetryDumpLabeledWithSpecID(t *testing.T) {
	for _, spec := range []Spec{testSpec("tel-label"), testServeSpec("tel-serve-label")} {
		spec.Telemetry = true
		res := Run(spec)
		if !res.OK() {
			t.Fatalf("run failed: %s", res.Err)
		}
		d := res.Telemetry
		if d == nil {
			t.Fatal("no dump")
		}
		if d.GetLabel("id") != spec.ID {
			t.Fatalf("id label = %q, want %q", d.GetLabel("id"), spec.ID)
		}
		if d.GetLabel("seed") != fmt.Sprint(spec.DerivedSeed()) {
			t.Fatalf("seed label = %q, want %d", d.GetLabel("seed"), spec.DerivedSeed())
		}
		total := d.TotalTimeNS
		if res.Train != nil && total != res.Train.TotalTime || res.Serve != nil && total != res.Serve.TotalTime {
			t.Fatalf("%s: dump total %v does not match the run's", spec.ID, total)
		}
	}
}
