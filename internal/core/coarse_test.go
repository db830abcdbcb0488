package core

import (
	"strings"
	"testing"

	"coarse/internal/model"
	"coarse/internal/parallel"
	"coarse/internal/paramserver"
	"coarse/internal/topology"
	"coarse/internal/train"
)

func runOn(t *testing.T, spec topology.Spec, m *model.Model, batch int, opts Options) *train.Result {
	t.Helper()
	cfg := train.DefaultConfig(spec, m, batch, 3)
	res, err := train.Run(cfg, New(opts))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCompletesOnAllMachines(t *testing.T) {
	for _, spec := range []topology.Spec{
		topology.AWST4(), topology.SDSCP100(), topology.AWSV100(),
		topology.AWSV100TwoToOne(), topology.MultiNodeV100(2),
	} {
		res := runOn(t, spec, model.MLP("tiny", 256, 128, 64), 4, DefaultOptions())
		if res.Strategy != "COARSE" {
			t.Fatalf("%s: strategy %q", spec.Label, res.Strategy)
		}
	}
}

func TestRoutingTableExploitsAntiLocality(t *testing.T) {
	cfg := train.DefaultConfig(topology.AWSV100(), model.BERTBase(), 2, 2)
	s := New(DefaultOptions())
	tr, err := train.New(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	for w, table := range s.Tables() {
		if !table.NonUniform() {
			t.Fatalf("worker %d: table uniform on anti-local machine", w)
		}
	}
	if s.PushedToBw == 0 {
		t.Fatal("no bytes routed to bandwidth proxies on the anti-local machine")
	}
}

func TestSDSCRoutesLocally(t *testing.T) {
	cfg := train.DefaultConfig(topology.SDSCP100(), model.ResNet50(), 8, 2)
	s := New(DefaultOptions())
	tr, err := train.New(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	if s.PushedToBw != 0 {
		t.Fatalf("%d bytes routed remotely on a locality machine", s.PushedToBw)
	}
}

func TestDualSyncSplitsLayers(t *testing.T) {
	cfg := train.DefaultConfig(topology.AWSV100(), model.BERTBase(), 2, 2)
	s := New(DefaultOptions())
	tr, err := train.New(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	layers := cfg.Model.Layers
	proxied, gpu := 0, 0
	for l := range layers {
		if s.ProxySynced(l) {
			proxied++
		} else {
			gpu++
		}
	}
	if proxied == 0 {
		t.Fatal("dual sync proxied nothing")
	}
	if s.MBytes() <= 0 || s.MBytes() > cfg.Model.ParamBytes() {
		t.Fatalf("m = %d out of range", s.MBytes())
	}
	// The GPU-synced set must be a contiguous prefix of the model (the
	// layers needed first by the next forward pass).
	seenProxy := false
	for l := range layers {
		if s.ProxySynced(l) {
			seenProxy = true
		} else if seenProxy {
			t.Fatalf("layer %d GPU-synced after a proxied layer: split not contiguous", l)
		}
	}
	if gpu > 0 && s.ProxySynced(0) {
		t.Fatal("dual sync must keep the earliest layers on the GPU path")
	}
}

func TestDualSyncOffProxiesEverything(t *testing.T) {
	opts := DefaultOptions()
	opts.MFraction = 1 // dual sync off: the proxies take every layer
	cfg := train.DefaultConfig(topology.SDSCP100(), model.MLP("tiny", 64, 32), 2, 2)
	s := New(opts)
	tr, err := train.New(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	if s.MBytes() != cfg.Model.ParamBytes() {
		t.Fatalf("m = %d, want full volume", s.MBytes())
	}
	if s.GPUSyncedBytes != 0 {
		t.Fatalf("GPU synced %d bytes with dual sync off", s.GPUSyncedBytes)
	}
}

func TestFCFSDeadlocks(t *testing.T) {
	// Paper Figure 10 / Section III-F: when a proxy is shared by
	// multiple clients, first-come-first-serve scheduling blocks on the
	// head-of-line tensor while a peer's copy of that tensor sits behind
	// another head — deadlock. The 2:1 machine shares each memory device
	// between two workers. The trainer detects the stall.
	opts := DefaultOptions()
	opts.Scheduler = FCFS
	opts.ReprofileEvery = 0
	opts.MFraction = 1.0 // force every tensor onto the proxy path
	m := model.MLP("crossed", 1024, 1024, 1024, 1024)
	cfg := train.DefaultConfig(topology.AWSV100TwoToOne(), m, 2, 2)
	_, err := train.Run(cfg, New(opts))
	if err == nil {
		t.Fatal("FCFS scheduling should deadlock with shared proxies")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want stall report", err)
	}
}

func TestQueueBasedAvoidsDeadlock(t *testing.T) {
	// Identical scenario, queue-based scheduling: completes.
	opts := DefaultOptions()
	opts.ReprofileEvery = 0
	opts.MFraction = 1.0
	m := model.MLP("crossed", 1024, 1024, 1024, 1024)
	cfg := train.DefaultConfig(topology.AWSV100TwoToOne(), m, 2, 2)
	if _, err := train.Run(cfg, New(opts)); err != nil {
		t.Fatal(err)
	}
}

// TestReprofilingRuns: dynamic profiling fires every ReprofileEvery
// iterations after the first, on every layout. The trigger is the
// first worker to produce an iteration's last-layer gradient, which on
// a pipeline-parallel layout sits in the last stage, not at worker 0.
func TestReprofilingRuns(t *testing.T) {
	rack := topology.ScaleSpec{Racks: 2, NodesPerRack: 2, GPUsPerNode: 2, MemDevs: 2, MemDevTier: topology.TierRack}.Generate()
	mlp := model.MLP("tiny5", 64, 64, 48, 48, 32, 32)
	for _, c := range []struct {
		name   string
		spec   topology.Spec
		m      *model.Model
		every  int
		layout parallel.Layout
		want   int
	}{
		{"p100-dp", topology.SDSCP100(), model.MLP("tiny", 64, 32), 2, parallel.Layout{}, 2},
		{"rack-dp", rack, mlp, 1, parallel.Layout{}, 4},
		{"rack-pp2", rack, mlp, 1, parallel.Layout{PP: 2}, 4},
		{"rack-tp2", rack, mlp, 1, parallel.Layout{TP: 2}, 4},
	} {
		opts := DefaultOptions()
		opts.ReprofileEvery = c.every
		cfg := train.DefaultConfig(c.spec, c.m, 4, 5)
		cfg.Layout = c.layout
		s := New(opts)
		tr, err := train.New(cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Run(); err != nil {
			t.Fatal(err)
		}
		if s.Reprofiles != c.want {
			t.Errorf("%s: dynamic profiling ran %d times over 5 iterations, want %d", c.name, s.Reprofiles, c.want)
		}
	}
}

func TestWorkerStateExcludesOptimizer(t *testing.T) {
	m := model.BERTLarge()
	coarse := New(DefaultOptions()).WorkerStateBytes(m)
	ar := train.NewAllReduce().WorkerStateBytes(m)
	if coarse >= ar {
		t.Fatalf("COARSE worker state %d should be below AllReduce %d", coarse, ar)
	}
}

func TestPartitioningProducesShards(t *testing.T) {
	opts := DefaultOptions()
	cfg := train.DefaultConfig(topology.AWSV100(), model.BERTBase(), 2, 2)
	s := New(opts)
	tr, err := train.New(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	// BERT's 90 MB embedding must have been pushed as multiple shards:
	// total pushed bytes match the proxied volume across iterations.
	if s.PushedToBw+s.PushedToLat == 0 {
		t.Fatal("nothing pushed")
	}
}

func TestCoarseBeatsDENSEOnBERT(t *testing.T) {
	// The headline: COARSE achieves multi-x speedup over the naive CCI
	// parameter server for BERT (paper Figure 16c/d).
	spec := topology.AWSV100()
	m := model.BERTBase()
	coarse := runOn(t, spec, m, 2, DefaultOptions())
	cfgD := train.DefaultConfig(spec, m, 2, 3)
	dense, err := train.Run(cfgD, paramserver.NewDENSE())
	if err != nil {
		t.Fatal(err)
	}
	speedup := dense.IterTime.ToSeconds() / coarse.IterTime.ToSeconds()
	if speedup < 3 {
		t.Fatalf("COARSE speedup over DENSE = %.2fx, want >3x", speedup)
	}
}

func TestCoarseEngagesCCIFabric(t *testing.T) {
	// COARSE drives the memory devices' CCI ring alongside the serial
	// bus; AllReduce leaves that fabric idle. The aggregate-bandwidth
	// story of the paper's abstract depends on this.
	cfg := train.DefaultConfig(topology.AWSV100(), model.BERTBase(), 2, 3)
	coarse, err := train.Run(cfg, New(DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := train.DefaultConfig(topology.AWSV100(), model.BERTBase(), 2, 3)
	ar, err := train.Run(cfg2, train.NewAllReduce())
	if err != nil {
		t.Fatal(err)
	}
	if coarse.CCIBusUtil <= 0 {
		t.Fatalf("COARSE CCI ring utilization = %v, want > 0", coarse.CCIBusUtil)
	}
	if ar.CCIBusUtil != 0 {
		t.Fatalf("AllReduce CCI ring utilization = %v, want 0", ar.CCIBusUtil)
	}
	if coarse.EdgeBusUtil <= 0 || coarse.EdgeBusUtil > 1 {
		t.Fatalf("edge utilization = %v out of range", coarse.EdgeBusUtil)
	}
}

func TestDynamicReprofilingAdaptsToDegradation(t *testing.T) {
	// Section III-E dynamic profiling end to end: uplinks degrade
	// mid-run; the re-profiling configuration must beat the static one.
	run := func(every int) *train.Result {
		opts := DefaultOptions()
		opts.ReprofileEvery = every
		cfg := train.DefaultConfig(topology.AWSV100(), model.BERTBase(), 2, 6)
		cfg.OnStart = func(ctx *train.Ctx) {
			ctx.Eng.Schedule(150_000_000, func() { // 150ms in
				for _, l := range ctx.Machine.LinksBetween(topology.KindSwitchUp, topology.KindHostBridge) {
					ctx.Machine.SetLinkCapacity(l, 3e9, 3e9)
				}
			})
		}
		res, err := train.Run(cfg, New(opts))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := run(0)
	dynamic := run(2)
	if dynamic.IterTime >= static.IterTime {
		t.Fatalf("re-profiling (%v) did not beat static routing (%v) after degradation",
			dynamic.IterTime, static.IterTime)
	}
}

func TestProxyCacheHitsAcrossWorkers(t *testing.T) {
	// On the 2:1 machine two workers pull each shard from the same
	// shared proxy: the first pull misses (stages from storage DRAM),
	// the second hits the proxy's parameter cache. On 1:1 machines the
	// tie-spreading gives every worker a distinct proxy, so hits only
	// appear when proxies are genuinely shared — which is exactly the
	// Section III-D locality story.
	cfg := train.DefaultConfig(topology.AWSV100TwoToOne(), model.BERTBase(), 2, 2)
	s := New(DefaultOptions())
	tr, err := train.New(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	if s.PullMisses == 0 {
		t.Fatal("no pull misses recorded")
	}
	if s.PullHits == 0 {
		t.Fatal("proxy cache never hit — spread pulls should reuse cached shards")
	}
}

func TestProxyCacheOffAllMisses(t *testing.T) {
	opts := DefaultOptions()
	opts.ProxyCache = false
	cfg := train.DefaultConfig(topology.AWSV100(), model.BERTBase(), 2, 2)
	s := New(opts)
	tr, err := train.New(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	if s.PullHits != 0 {
		t.Fatalf("cache disabled but %d hits recorded", s.PullHits)
	}
}

func TestProxyCacheSpeedsPulls(t *testing.T) {
	run := func(cache bool) *train.Result {
		opts := DefaultOptions()
		opts.ProxyCache = cache
		cfg := train.DefaultConfig(topology.AWSV100(), model.BERTBase(), 2, 3)
		res, err := train.Run(cfg, New(opts))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with := run(true)
	without := run(false)
	if with.IterTime > without.IterTime {
		t.Fatalf("cache on (%v) slower than off (%v)", with.IterTime, without.IterTime)
	}
}
