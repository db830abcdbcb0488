package cci

import (
	"math"
	"testing"
	"testing/quick"

	"coarse/internal/sim"
	"coarse/internal/topology"
)

const mib = 1 << 20

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadParams(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.LineBytes = 0 },
		func(p *Params) { p.ReadLineLat = 0 },
		func(p *Params) { p.WriteLineLat = -1 },
		func(p *Params) { p.ReadOutstanding = 0 },
		func(p *Params) { p.WriteOutstanding = 0 },
		func(p *Params) { p.DMASetup = -1 },
		func(p *Params) { p.CoherencePerSharer = -0.1 },
		func(p *Params) { p.StageChunks = 0 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("case %d: Validate accepted bad params", i)
		}
	}
}

func TestLoadStoreBandwidthFlat(t *testing.T) {
	p := DefaultParams()
	read := p.LoadStoreBandwidth(false)
	write := p.LoadStoreBandwidth(true)
	if read <= 0 || write <= 0 {
		t.Fatal("non-positive load/store bandwidth")
	}
	// Posted writes should outrun reads (paper Figure 13: CCI write curve
	// sits above CCI read).
	if write <= read {
		t.Fatalf("write bw %v <= read bw %v", write, read)
	}
	// Roughly 0.5-1 GB/s read — the prototype's line-rate regime.
	if read < 0.3e9 || read > 2e9 {
		t.Fatalf("CCI read bw %v out of the prototype's regime", read)
	}
}

func TestDMABandwidthMonotonicInSize(t *testing.T) {
	p := DefaultParams()
	prev := 0.0
	for size := int64(4 << 10); size <= 256*mib; size <<= 1 {
		bw := p.DMABandwidth(size, 12.5e9)
		if bw < prev {
			t.Fatalf("DMA bandwidth dropped at size %d: %v < %v", size, bw, prev)
		}
		prev = bw
	}
	if prev > 12.5e9 {
		t.Fatalf("DMA bandwidth %v exceeds link rate", prev)
	}
}

func TestDMASaturatesAtTwoMiB(t *testing.T) {
	// Paper Figure 14: DMA reaches max bandwidth at 2 MB or higher.
	p := DefaultParams()
	sat := p.DMASaturationSize(12.5e9, 0.9)
	if sat != 2*mib {
		t.Fatalf("DMA saturation size = %d, want 2 MiB", sat)
	}
}

func TestGPUDirectReadSpeedupRange(t *testing.T) {
	// Paper Figure 13a: GPU Direct read achieves 9x-17x over CCI.
	p := DefaultParams()
	pr := NewPrototype(sim.NewEngine(), DefaultPrototype())
	cciBW := pr.Bandwidth(p, ModeCCI, mib, false)
	minRatio, maxRatio := math.Inf(1), 0.0
	for size := int64(512 << 10); size <= 256*mib; size <<= 1 {
		direct := pr.Bandwidth(p, ModeGPUDirect, size, false)
		r := direct / cciBW
		minRatio = math.Min(minRatio, r)
		maxRatio = math.Max(maxRatio, r)
	}
	if minRatio < 8 || maxRatio > 20 {
		t.Fatalf("GPU Direct read speedup range [%.1f, %.1f], want within the paper's 9x-17x band", minRatio, maxRatio)
	}
}

func TestGPUDirectWriteSpeedupRange(t *testing.T) {
	// Paper Figure 13b: GPU Direct write achieves 1.25x-4x over CCI.
	p := DefaultParams()
	pr := NewPrototype(sim.NewEngine(), DefaultPrototype())
	cciBW := pr.Bandwidth(p, ModeCCI, mib, true)
	maxRatio := 0.0
	for size := int64(64 << 10); size <= 256*mib; size <<= 1 {
		direct := pr.Bandwidth(p, ModeGPUDirect, size, true)
		maxRatio = math.Max(maxRatio, direct/cciBW)
	}
	if maxRatio < 2 || maxRatio > 6 {
		t.Fatalf("GPU Direct write max speedup %.2f, want around the paper's 4x", maxRatio)
	}
}

func TestIndirectBoundByLoadStore(t *testing.T) {
	// Paper: "the GPU Indirect read bandwidth is bounded by CCI bandwidth"
	// — the two curves are indistinguishable in Figure 13a.
	p := DefaultParams()
	pr := NewPrototype(sim.NewEngine(), DefaultPrototype())
	for size := int64(mib); size <= 64*mib; size <<= 1 {
		ind := pr.Bandwidth(p, ModeGPUIndirect, size, false)
		ls := pr.Bandwidth(p, ModeCCI, size, false)
		if ind > ls {
			t.Fatalf("indirect bw %v exceeds load/store bw %v at size %d", ind, ls, size)
		}
		if ind < 0.5*ls {
			t.Fatalf("indirect bw %v far below load/store bound %v at size %d", ind, ls, size)
		}
	}
}

func TestSharingPenaltyMonotonic(t *testing.T) {
	p := DefaultParams()
	base := 10e9
	prev := math.Inf(1)
	for sharers := 1; sharers <= 8; sharers++ {
		bw := p.SharingPenalty(base, sharers)
		if bw > prev {
			t.Fatalf("penalty not monotonic at %d sharers", sharers)
		}
		prev = bw
	}
	if p.SharingPenalty(base, 1) != base {
		t.Fatal("single sharer must pay no penalty")
	}
}

func TestDMACopyP2PTiming(t *testing.T) {
	eng := sim.NewEngine()
	m := topology.Build(eng, topology.SDSCP100())
	f := NewFabric(m.Topology, DefaultParams())
	var done sim.Time
	size := int64(125e6) // 125 MB over 12.5 GB/s local path = 10ms
	f.DMACopy(m.Workers[0], m.Devs[0], size, func() { done = eng.Now() })
	eng.Run()
	want := f.Params.DMASetup + m.PathLatency(m.Workers[0], m.Devs[0]) + sim.Seconds(0.01)
	if done != want {
		t.Fatalf("p2p copy finished at %v, want %v", done, want)
	}
}

func TestDMACopyBounceOnNoP2P(t *testing.T) {
	// On the T4 machine the copy stages through CPU memory; it must be
	// slower than the same copy on a P2P machine with identical link
	// rates, but faster than two fully sequential copies (chunks pipeline).
	size := int64(100e6)

	run := func(spec topology.Spec) sim.Time {
		eng := sim.NewEngine()
		m := topology.Build(eng, spec)
		f := NewFabric(m.Topology, DefaultParams())
		var done sim.Time
		f.DMACopy(m.Workers[0], m.Devs[1], size, func() { done = eng.Now() })
		eng.Run()
		return done
	}

	withP2P := topology.AWST4()
	withP2P.P2P = true
	direct := run(withP2P)
	bounced := run(topology.AWST4())
	if bounced <= direct {
		t.Fatalf("bounced copy (%v) should be slower than direct (%v)", bounced, direct)
	}
	if bounced >= 2*direct {
		t.Fatalf("bounced copy (%v) should pipeline, not double direct time (%v)", bounced, direct)
	}
}

func TestDMACopyZeroBytes(t *testing.T) {
	eng := sim.NewEngine()
	m := topology.Build(eng, topology.AWST4()) // exercises the bounce path
	f := NewFabric(m.Topology, DefaultParams())
	fired := 0
	f.DMACopy(m.Workers[0], m.Devs[1], 0, func() { fired++ })
	eng.Run()
	if fired != 1 {
		t.Fatalf("zero-byte copy completion fired %d times, want 1", fired)
	}
}

// Property: effective DMA bandwidth never exceeds the link and is
// monotone in size for any positive setup cost.
func TestPropertyDMABandwidthBounds(t *testing.T) {
	f := func(setupUS uint16, sizeKB uint16) bool {
		p := DefaultParams()
		p.DMASetup = sim.Time(setupUS) * 1000
		size := (int64(sizeKB) + 1) << 10
		bw := p.DMABandwidth(size, 10e9)
		bigger := p.DMABandwidth(size*2, 10e9)
		return bw <= 10e9 && bigger+1e-9 >= bw
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: sharing penalty is bounded by the sharer count and never
// increases bandwidth.
func TestPropertySharingPenalty(t *testing.T) {
	f := func(sharersRaw uint8) bool {
		p := DefaultParams()
		sharers := int(sharersRaw%32) + 1
		eff := p.SharingPenalty(5e9, sharers)
		return eff <= 5e9 && eff > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDMACopySim(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		m := topology.Build(eng, topology.AWSV100())
		f := NewFabric(m.Topology, DefaultParams())
		for j := range m.Workers {
			f.DMACopy(m.Workers[j], m.Devs[j], 64*mib, nil)
		}
		eng.Run()
	}
}
