package profiler

import (
	"testing"

	"coarse/internal/cci"
	"coarse/internal/sim"
	"coarse/internal/topology"
)

func rig(t *testing.T, spec topology.Spec) (*topology.Machine, *Profiler) {
	t.Helper()
	eng := sim.NewEngine()
	m := topology.Build(eng, spec)
	return m, New(cci.NewFabric(m.Topology, cci.DefaultParams()))
}

func TestSDSCLocalProxyWinsBoth(t *testing.T) {
	// With conventional locality, the local proxy has both the lowest
	// latency and the highest bandwidth: routing degenerates.
	m, p := rig(t, topology.SDSCP100())
	table := p.BuildTable(m.Workers[0], m.Devs)
	if table.LatProxy != 0 || table.BwProxy != 0 {
		t.Fatalf("LatProxy=%d BwProxy=%d, want 0/0 (local)", table.LatProxy, table.BwProxy)
	}
	if table.NonUniform() {
		t.Fatal("SDSC should be uniform")
	}
	// Everything routes to the single best proxy.
	if table.Route(1<<30) != 0 || table.Route(1) != 0 {
		t.Fatal("routing should send everything to proxy 0")
	}
}

func TestAWSV100AntiLocalitySplitsProxies(t *testing.T) {
	// Anti-locality: local proxy wins latency, a remote proxy wins
	// bandwidth — the condition COARSE's router exploits.
	m, p := rig(t, topology.AWSV100())
	table := p.BuildTable(m.Workers[0], m.Devs)
	if table.LatProxy != 0 {
		t.Fatalf("LatProxy = %d, want 0 (local)", table.LatProxy)
	}
	if table.BwProxy == 0 {
		t.Fatal("BwProxy should be a remote proxy under anti-locality")
	}
	if !table.NonUniform() {
		t.Fatal("AWS V100 should be non-uniform")
	}
	// Threshold must be finite and inside the sweep range.
	if table.ThresholdBytes < 4<<10 || table.ThresholdBytes > 64<<20 {
		t.Fatalf("threshold = %d, want within sweep range", table.ThresholdBytes)
	}
	// Small tensors route to LatProxy, big ones to BwProxy.
	if table.Route(1024) != table.LatProxy {
		t.Fatal("small tensor not routed to LatProxy")
	}
	if table.Route(64<<20) != table.BwProxy {
		t.Fatal("large tensor not routed to BwProxy")
	}
}

func TestMeasurementsMatchTopologyOrdering(t *testing.T) {
	m, p := rig(t, topology.AWSV100())
	table := p.BuildTable(m.Workers[0], m.Devs)
	local := table.Measurements[0]
	for _, meas := range table.Measurements[1:] {
		if meas.Latency <= local.Latency {
			t.Fatalf("remote proxy %d latency %v <= local %v", meas.Proxy, meas.Latency, local.Latency)
		}
		if meas.Bandwidth <= local.Bandwidth {
			t.Fatalf("remote proxy %d bandwidth %v <= local %v under anti-locality", meas.Proxy, meas.Bandwidth, local.Bandwidth)
		}
	}
}

func TestPartitionSizeReachesSaturation(t *testing.T) {
	m, p := rig(t, topology.AWSV100())
	table := p.BuildTable(m.Workers[0], m.Devs)
	// The DMA model saturates around 2 MiB; the measured shard size must
	// land near there (within one probe step).
	if table.PartitionBytes < 1<<20 || table.PartitionBytes > 8<<20 {
		t.Fatalf("partition size = %d, want ~2 MiB", table.PartitionBytes)
	}
}

func TestSweepMonotoneIncreasing(t *testing.T) {
	m, p := rig(t, topology.SDSCP100())
	times := p.Sweep(m.Workers[0], m.Devs[0])
	if len(times) != len(p.SweepSizes) {
		t.Fatalf("sweep rows = %d", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("sweep not monotone at %d", i)
		}
	}
}

func TestT4UniformNoP2P(t *testing.T) {
	// The T4 machine bounces everything through the CPU, so no proxy has
	// a bandwidth edge; routing degenerates like the paper observes
	// ("COARSE does not work efficiently on this platform because
	// there's no unbalanced bandwidth").
	m, p := rig(t, topology.AWST4())
	table := p.BuildTable(m.Workers[0], m.Devs)
	best := table.Measurements[table.BwProxy].Bandwidth
	local := table.Measurements[0].Bandwidth
	if best > 1.1*local {
		t.Fatalf("T4 bandwidth spread local %v vs best %v — should be uniform", local, best)
	}
}

func TestProbePanicsOnBusyEngine(t *testing.T) {
	m, p := rig(t, topology.SDSCP100())
	m.Topology.Eng.Schedule(100, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on busy engine")
		}
	}()
	p.Measure(m.Workers[0], m.Devs[0])
}

func TestBuildTableNoProxiesPanics(t *testing.T) {
	m, p := rig(t, topology.SDSCP100())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.BuildTable(m.Workers[0], nil)
}

func TestTablesAreDeterministic(t *testing.T) {
	m1, p1 := rig(t, topology.AWSV100())
	m2, p2 := rig(t, topology.AWSV100())
	t1 := p1.BuildTable(m1.Workers[1], m1.Devs)
	t2 := p2.BuildTable(m2.Workers[1], m2.Devs)
	if t1.LatProxy != t2.LatProxy || t1.BwProxy != t2.BwProxy ||
		t1.ThresholdBytes != t2.ThresholdBytes || t1.PartitionBytes != t2.PartitionBytes {
		t.Fatalf("profiling nondeterministic: %+v vs %+v", t1, t2)
	}
}

func TestAnalyticTableAgreesWithProbes(t *testing.T) {
	// The analytic (mid-training) table must agree with offline probing
	// on proxy choices and non-uniformity for every machine.
	for _, spec := range []topology.Spec{topology.AWST4(), topology.SDSCP100(), topology.AWSV100()} {
		m, p := rig(t, spec)
		f := p.Fabric
		for w, worker := range m.Workers {
			probed := p.BuildTable(worker, m.Devs)
			analytic := AnalyticTable(f, worker, m.Devs)
			if probed.LatProxy != analytic.LatProxy {
				t.Errorf("%s worker %d: LatProxy probed %d vs analytic %d",
					spec.Label, w, probed.LatProxy, analytic.LatProxy)
			}
			if probed.NonUniform() != analytic.NonUniform() {
				t.Errorf("%s worker %d: non-uniformity disagrees", spec.Label, w)
			}
			if analytic.PartitionBytes <= 0 {
				t.Errorf("%s worker %d: analytic partition size %d", spec.Label, w, analytic.PartitionBytes)
			}
		}
	}
}

func TestAnalyticTableThresholdFinite(t *testing.T) {
	m, p := rig(t, topology.AWSV100())
	table := AnalyticTable(p.Fabric, m.Workers[0], m.Devs)
	if !table.NonUniform() {
		t.Fatal("analytic table misses anti-locality")
	}
	if table.ThresholdBytes <= 0 || table.ThresholdBytes >= 1<<40 {
		t.Fatalf("analytic threshold = %d, want finite positive", table.ThresholdBytes)
	}
}

func TestAnalyticTableUniformMachine(t *testing.T) {
	m, p := rig(t, topology.SDSCP100())
	table := AnalyticTable(p.Fabric, m.Workers[0], m.Devs)
	if table.NonUniform() {
		t.Fatal("SDSC analytic table should be uniform")
	}
	if table.ThresholdBytes < 1<<40 {
		t.Fatalf("uniform machine should route everything local (threshold %d)", table.ThresholdBytes)
	}
}

func TestAnalyticTableNoProxiesPanics(t *testing.T) {
	m, p := rig(t, topology.SDSCP100())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AnalyticTable(p.Fabric, m.Workers[0], nil)
}

func TestAnalyticTableBouncedMachine(t *testing.T) {
	// On the no-P2P machine the analytic model derates for the host
	// bounce; bandwidths must come out below the raw path bandwidth.
	m, p := rig(t, topology.AWST4())
	table := AnalyticTable(p.Fabric, m.Workers[0], m.Devs)
	raw := m.PathBandwidth(m.Workers[0], m.Devs[0])
	if table.Measurements[0].Bandwidth > raw {
		t.Fatalf("bounced analytic bandwidth %v exceeds raw path %v",
			table.Measurements[0].Bandwidth, raw)
	}
}

func TestSaturationFracSharedConstant(t *testing.T) {
	// The probing profiler and the analytic fallback must define "full
	// bandwidth" identically; a drifted constant would make reprofiling
	// silently change shard sizes mid-training.
	m, _ := rig(t, topology.AWSV100())
	p := New(cci.NewFabric(m.Topology, cci.DefaultParams()))
	if p.SaturationFrac != DefaultSaturationFrac {
		t.Fatalf("probing SaturationFrac %v != DefaultSaturationFrac %v",
			p.SaturationFrac, DefaultSaturationFrac)
	}
}

func TestAnalyticPartitionBytesAgreesWithProbed(t *testing.T) {
	// With the same saturation fraction, the probed shard size S' and
	// the analytic one must land within one power-of-two rung of each
	// other: both ladders start at 4 KiB, but probes additionally pay
	// path latency, so the measured curve can cross the saturation
	// fraction one step after the pure DMA model does.
	for _, spec := range []topology.Spec{topology.SDSCP100(), topology.AWSV100()} {
		m, p := rig(t, spec)
		for w, worker := range m.Workers {
			probed := p.BuildTable(worker, m.Devs)
			analytic := AnalyticTableFrac(p.Fabric, worker, m.Devs, p.SaturationFrac)
			lo, hi := analytic.PartitionBytes, probed.PartitionBytes
			if lo > hi {
				lo, hi = hi, lo
			}
			if hi > 2*lo {
				t.Errorf("%s worker %d: PartitionBytes probed %d vs analytic %d (more than one rung apart)",
					spec.Label, w, probed.PartitionBytes, analytic.PartitionBytes)
			}
		}
	}
}

func TestAnalyticTableFracMonotone(t *testing.T) {
	// A stricter saturation definition can only push the shard size up.
	m, p := rig(t, topology.AWSV100())
	prev := int64(0)
	for _, frac := range []float64{0.5, 0.75, 0.9, 0.99} {
		table := AnalyticTableFrac(p.Fabric, m.Workers[0], m.Devs, frac)
		if table.PartitionBytes < prev {
			t.Fatalf("partition size shrank (%d -> %d) as frac rose to %v",
				prev, table.PartitionBytes, frac)
		}
		prev = table.PartitionBytes
	}
}

// TestMeasureAllocatesNothingWarm: once a client–proxy pair has been
// probed a few times, so its route is cached and the engine's, the
// fabric's and the DMA engine's free lists hold every record a probe
// uses, probing it again allocates nothing. COARSE probes every
// client–proxy pair before training, so one allocation per probe
// costs ~96k objects per COARSE cell on a 512-worker machine.
func TestMeasureAllocatesNothingWarm(t *testing.T) {
	rack := topology.ScaleSpec{Racks: 2, NodesPerRack: 2, GPUsPerNode: 2, MemDevs: 2, MemDevTier: topology.TierRack}
	for _, spec := range []topology.Spec{topology.AWSV100(), topology.AWST4(), rack.Generate()} {
		m, p := rig(t, spec)
		client, proxy := m.Workers[0], m.Devs[len(m.Devs)-1]
		for range 8 {
			p.Measure(client, proxy)
		}
		if allocs := testing.AllocsPerRun(20, func() { p.Measure(client, proxy) }); allocs != 0 {
			t.Errorf("%s: a warm Measure allocates %v objects (%v per probe), want 0", spec.Label, allocs, allocs/2)
		}
	}
}
