package memdev

import (
	"testing"

	"coarse/internal/cci"
	"coarse/internal/sim"
	"coarse/internal/topology"
)

func newPool(t *testing.T, spec topology.Spec, groups int) (*sim.Engine, *Pool) {
	t.Helper()
	eng := sim.NewEngine()
	m := topology.Build(eng, spec)
	return eng, NewPool(cci.NewFabric(m.Topology, cci.DefaultParams()), m.Devs, DefaultConfig(), groups)
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadConfig(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.DRAMBytes = 0 },
		func(c *Config) { c.DRAMBW = 0 },
		func(c *Config) { c.SyncCores = 0 },
		func(c *Config) { c.BufEntries = -1 },
		func(c *Config) { c.ALUBytesPerSec = 0 },
	}
	for i, mutate := range mutations {
		c := DefaultConfig()
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestNewDeviceRejectsWrongKind(t *testing.T) {
	eng := sim.NewEngine()
	m := topology.Build(eng, topology.SDSCP100())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDevice(m.Workers[0], DefaultConfig())
}

func TestDRAMAllocation(t *testing.T) {
	eng := sim.NewEngine()
	m := topology.Build(eng, topology.SDSCP100())
	d := NewDevice(m.Devs[0], DefaultConfig())
	if err := d.Alloc(64 << 30); err != nil {
		t.Fatal(err)
	}
	if err := d.Alloc(64 << 30); err == nil {
		t.Fatal("over-capacity alloc succeeded")
	}
	if d.Used() != 64<<30 {
		t.Fatalf("Used = %d", d.Used())
	}
}

func TestGroupsAlternateDirection(t *testing.T) {
	_, p := newPool(t, topology.AWSV100(), 4)
	if len(p.Groups()) != 4 {
		t.Fatalf("groups = %d", len(p.Groups()))
	}
	for i, g := range p.Groups() {
		if g.Reverse != (i%2 == 1) {
			t.Fatalf("group %d reverse = %v", i, g.Reverse)
		}
	}
}

func TestGroupCountCappedBySyncCores(t *testing.T) {
	eng := sim.NewEngine()
	m := topology.Build(eng, topology.AWSV100())
	cfg := DefaultConfig()
	cfg.SyncCores = 3
	p := NewPool(cci.NewFabric(m.Topology, cci.DefaultParams()), m.Devs, cfg, 16)
	if len(p.Groups()) != 3 {
		t.Fatalf("groups = %d, want 3", len(p.Groups()))
	}
}

func TestOppositeGroupsOverlapPerfectly(t *testing.T) {
	// Two opposite-direction groups syncing concurrently take the same
	// wall time as one (they use disjoint link directions), which is the
	// point of Figure 11b.
	run := func(groups int) sim.Time {
		eng, p := newPool(t, topology.AWSV100(), 2)
		var last sim.Time
		for g := 0; g < groups; g++ {
			p.Group(g).AllReduceBytes(1<<20, func() {
				if eng.Now() > last {
					last = eng.Now()
				}
			})
		}
		eng.Run()
		return last
	}
	one := run(1)
	two := run(2)
	if two != one {
		t.Fatalf("two opposite groups took %v, one group %v", two, one)
	}
}

func TestSameGroupSerializes(t *testing.T) {
	// Two syncs on the same group must run back to back, not overlap.
	eng, p := newPool(t, topology.AWSV100(), 1)
	var first, second sim.Time
	g := p.Group(0)
	g.AllReduceBytes(1<<18, func() { first = eng.Now() })
	g.AllReduceBytes(1<<18, func() { second = eng.Now() })
	if g.QueueDepth() != 2 {
		t.Fatalf("queue depth = %d, want 2", g.QueueDepth())
	}
	eng.Run()
	if second < 2*first-first/10 {
		t.Fatalf("second sync at %v did not serialize after first at %v", second, first)
	}
	if g.QueueDepth() != 0 {
		t.Fatalf("queue depth after run = %d", g.QueueDepth())
	}
}

func TestEmptyPoolPanics(t *testing.T) {
	eng := sim.NewEngine()
	m := topology.Build(eng, topology.SDSCP100())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPool(cci.NewFabric(m.Topology, cci.DefaultParams()), nil, DefaultConfig(), 1)
}

func TestDRAMTimeScalesLinearly(t *testing.T) {
	eng := sim.NewEngine()
	m := topology.Build(eng, topology.SDSCP100())
	d := NewDevice(m.Devs[0], DefaultConfig())
	if d.DRAMTime(2<<20) != 2*d.DRAMTime(1<<20) {
		t.Fatal("DRAM time not linear")
	}
}
