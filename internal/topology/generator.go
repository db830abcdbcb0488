package topology

import (
	"fmt"
	"math"

	"coarse/internal/fabric"
)

// This file is the synthetic scale-out generator: parameterized
// multi-rack machines in the spirit of ASTRA-sim's hierarchical
// network generators, built from the same per-tier Spec vocabulary as
// the paper's Table I presets so every existing subsystem (routing,
// chaos targeting, telemetry link stats) composes unchanged.
//
// A generated machine is racks x nodes x GPUs-per-node workers plus k
// pooled CCI memory devices attached at a chosen tier. The network
// tier is NIC -> ToR -> spine with an explicit oversubscription ratio;
// intra-node fabric reuses the preset switch model (one GPU per PCIe
// switch, no per-switch 'M' slots — at rack scale the paper's CCI
// memory is a shared pool, not a per-GPU sidecar).

// ScaleSpec parameterizes a synthetic multi-rack machine.
type ScaleSpec struct {
	Racks        int // >= 1
	NodesPerRack int // >= 1
	GPUsPerNode  int // >= 1
	MemDevs      int // k pooled CCI devices, >= 1

	// MemDevTier places the k devices: TierSwitch spreads them under
	// PCIe switches round-robin across nodes, TierNode spreads them
	// across host bridges, TierRack pools them behind ToR switches
	// round-robin across racks.
	MemDevTier MemDevTier

	// Oversub is the ToR:spine oversubscription ratio (>= 1): the
	// spine link of each rack carries perRack*RackBW/Oversub. Zero
	// means 1 (full bisection).
	Oversub float64

	// Base supplies per-tier link speeds, latencies and the GPU model;
	// a zero Base means ScaleBase(). NodeCount/Racks/Slots/Switches and
	// ExtraMemDevs in Base are ignored — the generator owns those.
	Base Spec
}

// ScaleBase is the default per-tier parameter set for generated
// machines: the AWS V100 intra-node fabric (the paper's anti-locality
// machine) under a 100 Gb/s-class network tier.
func ScaleBase() Spec {
	s := AWSV100()
	s.Label = "scale base"
	s.NetBW = 12.5 * GB // 100 Gb/s NIC
	s.NetLat = 5000
	return s
}

// Validate checks the generator parameters.
func (g ScaleSpec) Validate() error {
	switch {
	case g.Racks < 1:
		return fmt.Errorf("scale: Racks %d < 1", g.Racks)
	case g.NodesPerRack < 1:
		return fmt.Errorf("scale: NodesPerRack %d < 1", g.NodesPerRack)
	case g.GPUsPerNode < 1:
		return fmt.Errorf("scale: GPUsPerNode %d < 1", g.GPUsPerNode)
	case g.NodesPerRack > math.MaxInt/g.Racks || g.GPUsPerNode > math.MaxInt/(g.Racks*g.NodesPerRack):
		return fmt.Errorf("scale: %d x %d x %d workers overflow", g.Racks, g.NodesPerRack, g.GPUsPerNode)
	case g.MemDevs < 1:
		return fmt.Errorf("scale: MemDevs %d < 1", g.MemDevs)
	case g.MemDevs > g.Workers():
		return fmt.Errorf("scale: %d memory devices exceed %d workers", g.MemDevs, g.Workers())
	case g.MemDevTier < TierSwitch || g.MemDevTier > TierRack:
		return fmt.Errorf("scale: unknown memory-device tier %d", int(g.MemDevTier))
	case math.IsNaN(g.Oversub) || math.IsInf(g.Oversub, 0) || g.Oversub < 0 || (g.Oversub > 0 && g.Oversub < 1):
		return fmt.Errorf("scale: Oversub %g must be 0 or finite and >= 1", g.Oversub)
	case g.MemDevTier == TierRack && g.Racks*g.NodesPerRack <= 1:
		return fmt.Errorf("scale: TierRack needs a multi-node machine")
	}
	return nil
}

// Generate expands the scale parameters into a buildable Spec. The
// label encodes every knob, so generated specs memoize distinctly in
// the run harness. Generate panics on invalid parameters (use Validate
// to check first); generation is deterministic.
func (g ScaleSpec) Generate() Spec {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	s := g.Base
	if s.Label == "" && s.GPU.Model == "" {
		s = ScaleBase()
	}
	nodes := g.Racks * g.NodesPerRack
	oversub := g.Oversub
	if oversub == 0 {
		oversub = 1
	}
	s.Label = fmt.Sprintf("scale r%d n%d g%d d%d@%s o%g",
		g.Racks, g.NodesPerRack, g.GPUsPerNode, g.MemDevs, g.MemDevTier, oversub)
	s.Switches = g.GPUsPerNode
	s.Slots = []string{"W"}
	s.NodeCount = nodes
	s.Racks = g.Racks
	if s.RackBW == 0 {
		s.RackBW = s.NetBW
	}
	s.SpineBW = s.RackBW * float64(g.NodesPerRack) / oversub
	if s.SpineLat == 0 {
		s.SpineLat = s.NetLat
	}
	s.ExtraMemDevs = nil
	for i := 0; i < g.MemDevs; i++ {
		var att MemDevAttach
		switch g.MemDevTier {
		case TierSwitch:
			att = MemDevAttach{Tier: TierSwitch, Node: i % nodes, Switch: (i / nodes) % g.GPUsPerNode}
		case TierNode:
			att = MemDevAttach{Tier: TierNode, Node: i * nodes / g.MemDevs}
		case TierRack:
			att = MemDevAttach{Tier: TierRack, Rack: i % g.Racks}
		}
		s.ExtraMemDevs = append(s.ExtraMemDevs, att)
	}
	return s
}

// Workers returns the worker GPU count of the generated machine.
func (g ScaleSpec) Workers() int { return g.Racks * g.NodesPerRack * g.GPUsPerNode }

// TierLinks groups a machine's links by hierarchy tier, in a fixed
// presentation order (edge outward to spine).
type TierLinks struct {
	Name  string
	Links []*fabric.Link
}

// tierOrder is the presentation order of hierarchy tiers, innermost
// first.
var tierOrder = []string{"edge", "peer", "up", "host", "cci", "nvlink", "nic", "rack", "spine"}

// linkTier classifies one link by its endpoint kinds.
func linkTier(a, b Kind) string {
	if a > b {
		a, b = b, a
	}
	switch {
	case a == KindGPU && b == KindPort:
		return "edge"
	case a == KindGPU && b == KindGPU:
		return "nvlink"
	case a == KindPort && b == KindSwitchPeer:
		return "peer"
	case a == KindPort && b == KindSwitchUp:
		return "up"
	case a == KindSwitchUp && b == KindHostBridge,
		a == KindCPU && b == KindHostBridge,
		a == KindPort && b == KindHostBridge:
		return "host"
	case a == KindMemDev && b == KindMemDev,
		a == KindCPU && b == KindMemDev,
		a == KindMemDev && b == KindPort:
		return "cci"
	case a == KindHostBridge && b == KindNIC:
		return "nic"
	case a == KindNIC && b == KindNetSwitch,
		a == KindPort && b == KindNetSwitch:
		return "rack"
	case a == KindNetSwitch && b == KindNetSwitch:
		return "spine"
	}
	return "other"
}

// LinksByTier returns the machine's links grouped by hierarchy tier,
// tiers in fixed order (edge outward to spine), links in creation
// order, empty tiers omitted. The grouping drives per-tier saturation
// reporting in the scale experiments.
func (t *Topology) LinksByTier() []TierLinks {
	byName := make(map[string][]*fabric.Link)
	for _, e := range t.ends {
		tier := linkTier(e.a.Kind, e.b.Kind)
		byName[tier] = append(byName[tier], e.link)
	}
	var out []TierLinks
	for _, name := range tierOrder {
		if links := byName[name]; len(links) > 0 {
			out = append(out, TierLinks{Name: name, Links: links})
		}
	}
	return out
}
