package topology

import (
	"testing"

	"coarse/internal/sim"
)

func build(t *testing.T, spec Spec) *Machine {
	t.Helper()
	return Build(sim.NewEngine(), spec)
}

func TestPresetInventory(t *testing.T) {
	cases := []struct {
		spec    Spec
		workers int
		devs    int
		p2p     bool
	}{
		{AWST4(), 4, 4, false},
		{SDSCP100(), 2, 2, true},
		{AWSV100(), 4, 4, true},
		{AWSV100TwoToOne(), 4, 2, true},
		{MultiNodeV100(2), 8, 8, true},
	}
	for _, c := range cases {
		m := build(t, c.spec)
		if len(m.Workers) != c.workers {
			t.Errorf("%s: workers = %d, want %d", c.spec.Label, len(m.Workers), c.workers)
		}
		if len(m.Devs) != c.devs {
			t.Errorf("%s: memdevs = %d, want %d", c.spec.Label, len(m.Devs), c.devs)
		}
		if m.P2PSupported != c.p2p {
			t.Errorf("%s: p2p = %v, want %v", c.spec.Label, m.P2PSupported, c.p2p)
		}
	}
}

func TestWorkerPairedWithLocalMemDev(t *testing.T) {
	for _, spec := range []Spec{AWST4(), SDSCP100(), AWSV100()} {
		m := build(t, spec)
		for i, w := range m.Workers {
			if spec.P2P && !m.SameSwitch(w, m.Devs[i]) {
				t.Errorf("%s: worker %d not under same switch as memdev %d", spec.Label, i, i)
			}
		}
	}
}

func TestSDSCLocality(t *testing.T) {
	m := build(t, SDSCP100())
	local := m.PathBandwidth(m.Workers[0], m.Devs[0])  // same switch
	remote := m.PathBandwidth(m.Workers[0], m.Devs[1]) // across host
	if local <= remote {
		t.Fatalf("SDSC should have locality: local %v <= remote %v", local, remote)
	}
	if local != 12.5*GB {
		t.Fatalf("local bw = %v, want 12.5 GB/s (switch peer core)", local)
	}
	if remote != 7*GB {
		t.Fatalf("remote bw = %v, want 7 GB/s (uplink)", remote)
	}
}

func TestAWSV100AntiLocality(t *testing.T) {
	m := build(t, AWSV100())
	local := m.PathBandwidth(m.Workers[0], m.Devs[0])
	remote := m.PathBandwidth(m.Workers[0], m.Devs[1])
	if local >= remote {
		t.Fatalf("AWS V100 should have anti-locality: local %v >= remote %v", local, remote)
	}
}

func TestLocalLatencyAlwaysBetter(t *testing.T) {
	// Paper Sec III-E: "local latency is always better" even when
	// bandwidth is anti-local.
	for _, spec := range []Spec{SDSCP100(), AWSV100()} {
		m := build(t, spec)
		local := m.PathLatency(m.Workers[0], m.Devs[0])
		remote := m.PathLatency(m.Workers[0], m.Devs[1])
		if local >= remote {
			t.Errorf("%s: local latency %v >= remote %v", spec.Label, local, remote)
		}
	}
}

func TestPathIsSymmetricInHops(t *testing.T) {
	m := build(t, AWSV100())
	ab := m.AppendPath(nil, m.Workers[0], m.Workers[3])
	ba := m.AppendPath(nil, m.Workers[3], m.Workers[0])
	if len(ab) != len(ba) {
		t.Fatalf("path lengths differ: %d vs %d", len(ab), len(ba))
	}
}

func TestPathDeterminism(t *testing.T) {
	m1 := build(t, AWSV100())
	m2 := build(t, AWSV100())
	for i := range m1.Workers {
		for j := range m1.Devs {
			if i == j {
				continue
			}
			p1 := m1.AppendPath(nil, m1.Workers[i], m1.Devs[j])
			p2 := m2.AppendPath(nil, m2.Workers[i], m2.Devs[j])
			if len(p1) != len(p2) {
				t.Fatalf("nondeterministic path %d->%d", i, j)
			}
			for k := range p1 {
				if p1[k].Name() != p2[k].Name() {
					t.Fatalf("nondeterministic path %d->%d at hop %d: %s vs %s",
						i, j, k, p1[k].Name(), p2[k].Name())
				}
			}
		}
	}
}

func TestCCIRingConnectsMemDevs(t *testing.T) {
	m := build(t, AWSV100())
	// Adjacent memdevs must be one hop apart on the CCI ring.
	p := m.AppendPath(nil, m.Devs[0], m.Devs[1])
	if len(p) != 1 {
		t.Fatalf("memdev0->memdev1 path has %d hops, want 1 (CCI ring)", len(p))
	}
	if p[0].Capacity() != 11.5*GB {
		t.Fatalf("CCI ring capacity = %v, want 11.5 GB/s", p[0].Capacity())
	}
}

func TestTwoMemDevRingHasSingleLink(t *testing.T) {
	m := build(t, SDSCP100())
	p01 := m.AppendPath(nil, m.Devs[0], m.Devs[1])
	p10 := m.AppendPath(nil, m.Devs[1], m.Devs[0])
	if len(p01) != 1 || len(p10) != 1 {
		t.Fatalf("2-device ring should be 1 hop each way, got %d and %d", len(p01), len(p10))
	}
}

func TestMultiNodeCrossNodeRoute(t *testing.T) {
	m := build(t, MultiNodeV100(2))
	w0 := m.Workers[0] // node 0
	var w1 *Device
	for _, w := range m.Workers {
		if w.Node == 1 {
			w1 = w
			break
		}
	}
	if w1 == nil {
		t.Fatal("no node-1 worker")
	}
	// Cross-node flows are bound by the 25 Gb/s instance networking,
	// far below the intra-node PCIe fabric.
	bw := m.PathBandwidth(w0, w1)
	if bw != 3.1*GB {
		t.Fatalf("cross-node bandwidth = %v, want 3.1 GB/s (NIC bound)", bw)
	}
	if intra := m.PathBandwidth(w0, m.Workers[1]); intra <= bw {
		t.Fatalf("intra-node bandwidth %v should exceed cross-node %v", intra, bw)
	}
	if lat := m.PathLatency(w0, w1); lat <= m.PathLatency(w0, m.Workers[1]) {
		t.Fatalf("cross-node latency %v should exceed intra-node latency", lat)
	}
}

func TestTransferUsesRoute(t *testing.T) {
	eng := sim.NewEngine()
	m := Build(eng, SDSCP100())
	var done sim.Time
	m.Transfer(m.Workers[0], m.Devs[0], int64(12.5*GB), func() { done = eng.Now() })
	eng.Run()
	// 12.5 GB at 12.5 GB/s + small propagation latency.
	want := sim.Seconds(1) + m.PathLatency(m.Workers[0], m.Devs[0])
	if done != want {
		t.Fatalf("transfer done at %v, want %v", done, want)
	}
}

func TestSameSwitch(t *testing.T) {
	m := build(t, SDSCP100())
	if !m.SameSwitch(m.Workers[0], m.Devs[0]) {
		t.Fatal("worker0/dev0 should share a switch")
	}
	if m.SameSwitch(m.Workers[0], m.Devs[1]) {
		t.Fatal("worker0/dev1 should not share a switch")
	}
}

func TestNoP2PHasNoPeerCoreRoute(t *testing.T) {
	m := build(t, AWST4())
	for _, c := range m.AppendPath(nil, m.Workers[0], m.Devs[0]) {
		// T4 has no peer-core links at all; local traffic rides the uplink core.
		if c.Capacity() == AWST4().PeerBW && c.Capacity() != AWST4().UpBW {
			t.Fatalf("unexpected peer-core hop on no-P2P machine")
		}
	}
}

func TestPathToSelfPanics(t *testing.T) {
	m := build(t, SDSCP100())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.AppendPath(nil, m.Workers[0], m.Workers[0])
}

func TestDisconnectedPanics(t *testing.T) {
	eng := sim.NewEngine()
	tp := New(eng)
	a := tp.AddDevice(KindGPU, 0, 0)
	b := tp.AddDevice(KindGPU, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on missing route")
		}
	}()
	tp.AppendPath(nil, a, b)
}

func TestGPUSpecsPopulated(t *testing.T) {
	for _, spec := range Presets() {
		if spec.GPU.TFLOPS <= 0 || spec.GPU.MemBytes <= 0 || spec.GPU.MemBW <= 0 {
			t.Errorf("%s: incomplete GPU spec %+v", spec.Label, spec.GPU)
		}
	}
}

func TestLinksBetween(t *testing.T) {
	m := build(t, AWSV100())
	edges := m.LinksBetween(KindGPU, KindPort)
	if len(edges) != 4 {
		t.Fatalf("GPU edge links = %d, want 4", len(edges))
	}
	ring := m.LinksBetween(KindMemDev, KindMemDev)
	if len(ring) != 4 {
		t.Fatalf("CCI ring links = %d, want 4", len(ring))
	}
	if got := m.LinksBetween(KindNIC, KindNetSwitch); len(got) != 0 {
		t.Fatalf("single-node machine has %d NIC links", len(got))
	}
}

func TestMeanUtilizationIdle(t *testing.T) {
	eng := sim.NewEngine()
	m := Build(eng, SDSCP100())
	eng.RunUntil(sim.Seconds(1))
	if u := MeanUtilization(m.LinksBetween(KindGPU, KindPort), eng.Now()); u != 0 {
		t.Fatalf("idle utilization = %v", u)
	}
	if u := MeanUtilization(nil, eng.Now()); u != 0 {
		t.Fatal("empty link set should be 0")
	}
}

func TestMeanUtilizationAfterTraffic(t *testing.T) {
	eng := sim.NewEngine()
	m := Build(eng, SDSCP100())
	// Saturate worker0's edge for the whole window.
	m.Transfer(m.Workers[0], m.Devs[0], int64(12.5e9), nil)
	eng.Run()
	u := MeanUtilization(m.LinksBetween(KindGPU, KindPort), eng.Now())
	if u <= 0 || u > 1 {
		t.Fatalf("utilization = %v, want in (0,1]", u)
	}
}
