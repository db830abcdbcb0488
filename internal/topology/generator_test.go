package topology

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"coarse/internal/sim"
)

// fingerprint summarizes a built machine for structural comparisons:
// every device (name+kind) and every link (name+capacities) in
// creation order.
func fingerprint(m *Machine) string {
	var b strings.Builder
	for _, d := range m.Devices() {
		fmt.Fprintf(&b, "dev %s %s\n", d.Name, d.Kind)
	}
	for _, l := range m.Net.Links() {
		fmt.Fprintf(&b, "link %s %g %g\n", l.Name(), l.Fwd().Capacity(), l.Rev().Capacity())
	}
	return b.String()
}

// A multi-node spec with Racks unset must build the identical machine
// to Racks=1: the rack tier's zero value is inert.
func TestRackFieldZeroValueInert(t *testing.T) {
	base := MultiNodeV100(4)
	r1 := MultiNodeV100(4)
	r1.Racks = 1
	a := fingerprint(Build(sim.NewEngine(), base))
	b := fingerprint(Build(sim.NewEngine(), r1))
	if a != b {
		t.Fatalf("Racks=1 changed the built machine:\n--- Racks unset ---\n%s--- Racks=1 ---\n%s", a, b)
	}
}

// Generation and building are deterministic: same ScaleSpec, same
// machine, twice.
func TestGenerateDeterministic(t *testing.T) {
	g := ScaleSpec{Racks: 2, NodesPerRack: 2, GPUsPerNode: 4, MemDevs: 2, MemDevTier: TierRack, Oversub: 2}
	a := fingerprint(Build(sim.NewEngine(), g.Generate()))
	b := fingerprint(Build(sim.NewEngine(), g.Generate()))
	if a != b {
		t.Fatal("generated machine differs between two identical Generate+Build calls")
	}
}

// The generated machine has the advertised shape: worker count, device
// count, per-rack ToR switches plus a spine, and an oversubscribed
// spine link.
func TestGenerateShape(t *testing.T) {
	g := ScaleSpec{Racks: 2, NodesPerRack: 2, GPUsPerNode: 2, MemDevs: 4, MemDevTier: TierRack, Oversub: 2}
	spec := g.Generate()
	m := Build(sim.NewEngine(), spec)

	if got := len(m.Workers); got != g.Workers() {
		t.Fatalf("workers = %d, want %d", got, g.Workers())
	}
	if got := len(m.Devs); got != g.MemDevs {
		t.Fatalf("devs = %d, want %d", got, g.MemDevs)
	}
	var netsw int
	for _, d := range m.Devices() {
		if d.Kind == KindNetSwitch {
			netsw++
		}
	}
	if want := g.Racks + 1; netsw != want {
		t.Fatalf("net switches = %d, want %d (ToRs + spine)", netsw, want)
	}
	spine := m.LinksBetween(KindNetSwitch, KindNetSwitch)
	if len(spine) != g.Racks {
		t.Fatalf("spine links = %d, want %d", len(spine), g.Racks)
	}
	wantSpineBW := spec.RackBW * float64(g.NodesPerRack) / g.Oversub
	if got := spine[0].Fwd().Capacity(); got != wantSpineBW {
		t.Fatalf("spine capacity = %g, want %g", got, wantSpineBW)
	}
}

// Every worker can route to every memory device and to every other
// worker, at each attachment tier.
func TestGenerateRouting(t *testing.T) {
	for _, tier := range []MemDevTier{TierSwitch, TierNode, TierRack} {
		g := ScaleSpec{Racks: 2, NodesPerRack: 2, GPUsPerNode: 2, MemDevs: 3, MemDevTier: tier}
		m := Build(sim.NewEngine(), g.Generate())
		for _, w := range m.Workers {
			for _, d := range m.Devs {
				if len(m.AppendPath(nil, w, d)) == 0 {
					t.Fatalf("tier %s: empty path %s -> %s", tier, w, d)
				}
			}
			for _, w2 := range m.Workers {
				if w2 != w && len(m.AppendPath(nil, w, w2)) == 0 {
					t.Fatalf("tier %s: empty path %s -> %s", tier, w, w2)
				}
			}
		}
	}
}

// Rack-tier devices must route through the network tier, and
// switch-tier devices on the worker's own switch must not.
func TestTierAttachment(t *testing.T) {
	gRack := ScaleSpec{Racks: 2, NodesPerRack: 1, GPUsPerNode: 1, MemDevs: 2, MemDevTier: TierRack}
	m := Build(sim.NewEngine(), gRack.Generate())
	// Worker 0 (rack 0) to device 1 (rack 1) must cross the spine.
	path := m.AppendPath(nil, m.Workers[0], m.Devs[1])
	crossesSpine := false
	spine := m.LinksBetween(KindNetSwitch, KindNetSwitch)
	for _, c := range path {
		for _, l := range spine {
			if c == l.Fwd() || c == l.Rev() {
				crossesSpine = true
			}
		}
	}
	if !crossesSpine {
		t.Fatal("rack-tier cross-rack path does not cross the spine")
	}

	gSw := ScaleSpec{Racks: 1, NodesPerRack: 1, GPUsPerNode: 2, MemDevs: 2, MemDevTier: TierSwitch}
	m2 := Build(sim.NewEngine(), gSw.Generate())
	if !m2.SameSwitch(m2.Workers[0], m2.Devs[0]) {
		t.Fatal("switch-tier device 0 not under worker 0's switch")
	}
}

// LinksByTier covers every link of a generated machine (no "other"
// bucket) and returns tiers in fixed order.
func TestLinksByTier(t *testing.T) {
	g := ScaleSpec{Racks: 2, NodesPerRack: 2, GPUsPerNode: 2, MemDevs: 2, MemDevTier: TierNode}
	m := Build(sim.NewEngine(), g.Generate())
	tiers := m.LinksByTier()
	total := 0
	order := map[string]int{}
	for i, name := range tierOrder {
		order[name] = i
	}
	last := -1
	for _, tl := range tiers {
		idx, ok := order[tl.Name]
		if !ok {
			t.Fatalf("unknown tier %q", tl.Name)
		}
		if idx <= last {
			t.Fatalf("tier %q out of order", tl.Name)
		}
		last = idx
		total += len(tl.Links)
	}
	if got := len(m.Net.Links()); total != got {
		t.Fatalf("tiers cover %d links, machine has %d", total, got)
	}
}

// Validate rejects bad parameter combinations; Generate panics on them.
func TestValidate(t *testing.T) {
	bad := []ScaleSpec{
		{Racks: 0, NodesPerRack: 1, GPUsPerNode: 1, MemDevs: 1},
		{Racks: 1, NodesPerRack: 0, GPUsPerNode: 1, MemDevs: 1},
		{Racks: 1, NodesPerRack: 1, GPUsPerNode: 0, MemDevs: 1},
		{Racks: 1, NodesPerRack: 1, GPUsPerNode: 1, MemDevs: 0},
		{Racks: 1, NodesPerRack: 1, GPUsPerNode: 1, MemDevs: 1, Oversub: 0.5},
		{Racks: 1, NodesPerRack: 1, GPUsPerNode: 1, MemDevs: 1, MemDevTier: TierRack},
		{Racks: 1, NodesPerRack: 1, GPUsPerNode: 2, MemDevs: 3, MemDevTier: TierSwitch},
		{Racks: 2, NodesPerRack: 1, GPUsPerNode: 1, MemDevs: 3, MemDevTier: TierRack},
		{Racks: 1, NodesPerRack: 1, GPUsPerNode: 1, MemDevs: 1, MemDevTier: 3},
		{Racks: 1, NodesPerRack: 1, GPUsPerNode: 1, MemDevs: 1, Oversub: math.Inf(1)},
		{Racks: 1, NodesPerRack: 1, GPUsPerNode: 1, MemDevs: 1, Oversub: math.NaN()},
		{Racks: 1 << 32, NodesPerRack: 1 << 32, GPUsPerNode: 1, MemDevs: 1, MemDevTier: TierNode},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad[%d]: Validate accepted %+v", i, g)
		}
	}
	good := ScaleSpec{Racks: 2, NodesPerRack: 2, GPUsPerNode: 2, MemDevs: 2, MemDevTier: TierRack, Oversub: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Generate did not panic on invalid spec")
		}
	}()
	ScaleSpec{}.Generate()
}

// Labels must be distinct across generator knobs: the run harness
// memoizes on them.
func TestGenerateLabelsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, g := range []ScaleSpec{
		{Racks: 1, NodesPerRack: 1, GPUsPerNode: 8, MemDevs: 1, MemDevTier: TierNode},
		{Racks: 1, NodesPerRack: 2, GPUsPerNode: 4, MemDevs: 1, MemDevTier: TierNode},
		{Racks: 2, NodesPerRack: 1, GPUsPerNode: 4, MemDevs: 1, MemDevTier: TierNode},
		{Racks: 2, NodesPerRack: 1, GPUsPerNode: 4, MemDevs: 2, MemDevTier: TierNode},
		{Racks: 2, NodesPerRack: 1, GPUsPerNode: 4, MemDevs: 2, MemDevTier: TierRack},
		{Racks: 2, NodesPerRack: 1, GPUsPerNode: 4, MemDevs: 2, MemDevTier: TierRack, Oversub: 2},
	} {
		label := g.Generate().Label
		if seen[label] {
			t.Fatalf("duplicate label %q", label)
		}
		seen[label] = true
	}
}
