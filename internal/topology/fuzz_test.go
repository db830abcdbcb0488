package topology

import (
	"math"
	"testing"

	"coarse/internal/sim"
)

// FuzzScaleSpec feeds arbitrary generator parameters to
// ScaleSpec.Validate, which must answer with an error rather than
// panic, and expands every accepted spec of at most 4096 workers with
// Generate, which must produce the machine the parameters describe:
// the asked-for node, rack and switch counts, one attachment per
// device at the asked-for tier and inside the machine, and a positive,
// finite spine bandwidth. Accepted specs of at most 16 workers are also
// built.
func FuzzScaleSpec(f *testing.F) {
	f.Add(2, 2, 2, 2, int(TierRack), 2.0)   // the generator tests' machine
	f.Add(1, 1, 2, 1, int(TierSwitch), 0.0) // one node, full bisection
	f.Add(1, 2, 2, 2, int(TierNode), 1.5)   // node tier
	f.Add(1, 1, 1, 1, int(TierRack), 0.0)   // rack tier on one node
	f.Add(1, 1, 2, 3, int(TierSwitch), 0.0) // more devices than switches
	f.Add(0, 1, 1, 1, int(TierSwitch), 0.0) // no racks
	f.Add(1, 1, 1, 1, int(TierSwitch), 0.5) // oversubscription below 1
	f.Add(1, 1, 1, 1, 7, 0.0)               // unknown tier
	f.Add(1<<32, 1<<32, 1, 1, int(TierNode), 0.0)
	f.Add(1, 1, 1, 1<<40, int(TierNode), 0.0)
	f.Add(1, 1, 1, 1, int(TierSwitch), math.Inf(1))
	f.Add(1, 1, 1, 1, int(TierSwitch), math.NaN())

	f.Fuzz(func(t *testing.T, racks, nodes, gpus, devs, tier int, oversub float64) {
		g := ScaleSpec{Racks: racks, NodesPerRack: nodes, GPUsPerNode: gpus,
			MemDevs: devs, MemDevTier: MemDevTier(tier), Oversub: oversub}
		if g.Validate() != nil || g.Workers() > 4096 {
			return
		}
		s := g.Generate()
		if s.NodeCount != racks*nodes || s.Racks != racks || s.Switches != gpus {
			t.Fatalf("%+v: generated %d nodes in %d racks, %d switches per node", g, s.NodeCount, s.Racks, s.Switches)
		}
		if !(s.SpineBW > 0) || math.IsInf(s.SpineBW, 0) {
			t.Fatalf("%+v: spine bandwidth %g", g, s.SpineBW)
		}
		if len(s.ExtraMemDevs) != devs {
			t.Fatalf("%+v: %d devices attached, want %d", g, len(s.ExtraMemDevs), devs)
		}
		for i, a := range s.ExtraMemDevs {
			if a.Tier != g.MemDevTier || a.Node < 0 || a.Node >= s.NodeCount ||
				a.Switch < 0 || a.Switch >= gpus || a.Rack < 0 || a.Rack >= racks {
				t.Fatalf("%+v: device %d attached at %+v", g, i, a)
			}
		}
		if g.Workers() <= 16 {
			Build(sim.NewEngine(), s)
		}
	})
}
