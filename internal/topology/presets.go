package topology

import (
	"fmt"

	"coarse/internal/sim"
)

// GB is one gigabyte per second expressed in bytes/sec; link capacities
// below follow the paper's habit of quoting decimal GB/s.
const GB = 1e9

// GiB is 2^30 bytes, used for device memory capacities.
const GiB = 1 << 30

// GPUSpec carries the compute-side constants of a GPU model; the gpu
// package turns these into roofline execution times.
type GPUSpec struct {
	Model    string
	TFLOPS   float64 // peak fp32 throughput
	MemBytes int64   // HBM capacity
	MemBW    float64 // HBM bandwidth, bytes/sec
}

// Spec describes a machine preset. All capacities are bytes/sec per
// direction; each physical link is full duplex.
type Spec struct {
	Label    string
	Switches int
	// Slots lists the endpoint layout under each switch: 'W' worker GPU,
	// 'M' memory device. One string per switch.
	Slots []string

	EdgeBW float64 // endpoint -> its port (the device's own lane limit)
	PeerBW float64 // port -> switch peer core (local p2p path)
	UpBW   float64 // port -> switch uplink core (remote path)
	HostBW float64 // switch uplink core -> host bridge

	CCIRingBW float64 // memdev<->memdev CCI ring, per direction
	CCIHostBW float64 // CPU <-> CCI address space

	EdgeLat   sim.Time
	SwitchLat sim.Time
	HostLat   sim.Time
	CCILat    sim.Time

	P2P bool

	// NVLinkMesh adds direct NVLink links between all worker GPUs (the
	// extension preset; the paper's runs keep it off).
	NVLinkMesh bool

	GPU GPUSpec

	// Multi-node parameters; NodeCount <= 1 means single node.
	NodeCount int
	NetBW     float64
	NetLat    sim.Time

	// Scale-out parameters (all zero-value inert; Racks <= 1 keeps the
	// legacy flat datacenter switch, so existing presets build
	// byte-identical topologies).
	//
	// With Racks >= 2 the network tier becomes hierarchical: nodes are
	// assigned to racks contiguously (node n sits in rack n/perRack),
	// each rack gets a top-of-rack switch its NICs connect to at RackBW,
	// and the ToRs connect to a single spine switch at SpineBW. Choosing
	// SpineBW < perRack*RackBW is how a generator expresses
	// oversubscription.
	Racks    int
	RackBW   float64  // NIC <-> ToR, defaults to NetBW
	SpineBW  float64  // ToR <-> spine, defaults to perRack*RackBW (1:1)
	SpineLat sim.Time // defaults to NetLat

	// ExtraMemDevs attaches pooled CCI memory devices beyond the
	// per-switch 'M' slots, each at a configurable tier of the
	// hierarchy. They are built after the whole base machine (so legacy
	// device IDs are unchanged) and appended to Machine.Devs in list
	// order.
	ExtraMemDevs []MemDevAttach
	MemDevBW     float64 // extra device edge bandwidth, defaults to CCIRingBW
}

// MemDevTier says where in the hierarchy an extra CCI memory device
// attaches.
type MemDevTier int

// Attachment tiers for ExtraMemDevs. TierSwitch plugs the device under
// a PCIe switch exactly like an 'M' slot (lowest latency to that
// switch's GPU); TierNode hangs it off a node's host bridge (shared by
// that node's GPUs); TierRack pools it behind a rack's ToR switch
// (reachable by every node in the rack over the network tier — the
// CXL-pool-per-rack configuration).
const (
	TierSwitch MemDevTier = iota
	TierNode
	TierRack
)

// String returns the lower-case tier name.
func (t MemDevTier) String() string {
	switch t {
	case TierSwitch:
		return "switch"
	case TierNode:
		return "node"
	case TierRack:
		return "rack"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// MemDevAttach places one extra CCI memory device. Node/Switch select
// the attachment point for TierSwitch; Node alone for TierNode; Rack
// for TierRack (which requires a multi-node machine, and a multi-rack
// one when Rack > 0).
type MemDevAttach struct {
	Tier   MemDevTier
	Node   int
	Switch int
	Rack   int
}

// Machine is a built topology plus the spec it came from and the role
// assignment of its endpoints.
type Machine struct {
	*Topology
	Spec Spec
	// Workers and MemDevs are in global order (node-major, then switch).
	Workers []*Device
	Devs    []*Device
}

// RackOf returns the rack index of a worker GPU. Workers are
// node-major and nodes are assigned to racks contiguously (node n sits
// in rack n/perRack) — the same mapping Build uses to wire NICs to ToR
// switches. Single-rack machines are all rack 0.
func (m *Machine) RackOf(worker int) int {
	if m.Spec.Racks <= 1 || worker < 0 || worker >= len(m.Workers) {
		return 0
	}
	perRack := (m.Spec.NodeCount + m.Spec.Racks - 1) / m.Spec.Racks
	return m.Workers[worker].Node / perRack
}

// Build constructs the machine described by a spec.
func Build(eng *sim.Engine, spec Spec) *Machine {
	t := New(eng)
	t.Label = spec.Label
	t.P2PSupported = spec.P2P
	m := &Machine{Topology: t, Spec: spec}

	nodes := spec.NodeCount
	if nodes < 1 {
		nodes = 1
	}
	var nics []*Device
	gpuIdx := make([]int, nodes)
	mdIdx := make([]int, nodes)
	hosts := make([]*Device, nodes)
	type swCores struct{ peer, up *Device }
	cores := make([][]swCores, nodes)
	for node := 0; node < nodes; node++ {
		cpu := t.AddDevice(KindCPU, node, 0)
		host := t.AddDevice(KindHostBridge, node, 0)
		hosts[node] = host
		t.Connect(cpu, host, spec.HostBW, spec.HostBW, spec.HostLat)

		var nodeDevs []*Device
		for sw := 0; sw < spec.Switches; sw++ {
			peer := t.AddDevice(KindSwitchPeer, node, sw)
			up := t.AddDevice(KindSwitchUp, node, sw)
			cores[node] = append(cores[node], swCores{peer: peer, up: up})
			t.Connect(up, host, spec.HostBW, spec.HostBW, spec.HostLat)
			slots := spec.Slots[sw%len(spec.Slots)]
			for si := 0; si < len(slots); si++ {
				var dev *Device
				switch slots[si] {
				case 'W':
					dev = t.AddDevice(KindGPU, node, gpuIdx[node])
					gpuIdx[node]++
					m.Workers = append(m.Workers, dev)
				case 'M':
					dev = t.AddDevice(KindMemDev, node, mdIdx[node])
					mdIdx[node]++
					m.Devs = append(m.Devs, dev)
					nodeDevs = append(nodeDevs, dev)
				case '-':
					continue
				default:
					panic(fmt.Sprintf("topology: unknown slot %q", slots[si]))
				}
				port := t.AddDevice(KindPort, node, dev.ID)
				t.Connect(dev, port, spec.EdgeBW, spec.EdgeBW, spec.EdgeLat)
				if spec.P2P {
					t.Connect(port, peer, spec.PeerBW, spec.PeerBW, spec.SwitchLat)
				}
				t.Connect(port, up, spec.UpBW, spec.UpBW, spec.SwitchLat)
			}
		}
		// CCI ring between this node's memory devices, plus a host
		// attachment for CPU load/store into the CCI address space.
		for i, md := range nodeDevs {
			next := nodeDevs[(i+1)%len(nodeDevs)]
			if next != md && (len(nodeDevs) > 2 || i == 0) {
				t.Connect(md, next, spec.CCIRingBW, spec.CCIRingBW, spec.CCILat)
			}
		}
		if len(nodeDevs) > 0 {
			t.Connect(t.CPUs[node], nodeDevs[0], spec.CCIHostBW, spec.CCIHostBW, spec.CCILat)
		}
		if nodes > 1 {
			nic := t.AddDevice(KindNIC, node, 0)
			t.Connect(nic, host, spec.NetBW, spec.NetBW, spec.HostLat)
			nics = append(nics, nic)
		}
	}
	// Network tier: a single flat datacenter switch for Racks <= 1 (the
	// legacy layout, byte-identical to before the rack tier existed), or
	// per-rack ToR switches behind one spine for Racks >= 2.
	var tors []*Device
	racks := spec.Racks
	if racks < 1 {
		racks = 1
	}
	perRack := (nodes + racks - 1) / racks
	rackBW := spec.RackBW
	if rackBW == 0 {
		rackBW = spec.NetBW
	}
	if nodes > 1 {
		if racks == 1 {
			netsw := t.AddDevice(KindNetSwitch, 0, 0)
			for _, nic := range nics {
				t.Connect(nic, netsw, spec.NetBW, spec.NetBW, spec.NetLat)
			}
			tors = []*Device{netsw}
		} else {
			spineBW := spec.SpineBW
			if spineBW == 0 {
				spineBW = rackBW * float64(perRack)
			}
			spineLat := spec.SpineLat
			if spineLat == 0 {
				spineLat = spec.NetLat
			}
			for r := 0; r < racks; r++ {
				tors = append(tors, t.AddDevice(KindNetSwitch, 0, r))
			}
			spine := t.AddDevice(KindNetSwitch, 0, racks)
			for n, nic := range nics {
				t.Connect(nic, tors[n/perRack], rackBW, rackBW, spec.NetLat)
			}
			for _, tor := range tors {
				t.Connect(tor, spine, spineBW, spineBW, spineLat)
			}
		}
	}
	if spec.NVLinkMesh {
		for i := 0; i < len(m.Workers); i++ {
			for j := i + 1; j < len(m.Workers); j++ {
				if m.Workers[i].Node == m.Workers[j].Node {
					t.Connect(m.Workers[i], m.Workers[j], NVLinkBW, NVLinkBW, 300)
				}
			}
		}
	}
	// Extra pooled CCI memory devices, in list order. Each gets its own
	// port (so chaos CCIBrownout targeting via LinksBetween(MemDev, Port)
	// covers pooled devices too) and attaches at its tier.
	for i, att := range spec.ExtraMemDevs {
		bw := spec.MemDevBW
		if bw == 0 {
			bw = spec.CCIRingBW
		}
		node := att.Node
		if att.Tier == TierRack {
			// A rack-pooled device belongs to no server node; its Node
			// field indexes the rack's first node so CPU-staged copies
			// (non-P2P machines) bounce through a CPU in the same rack.
			if att.Rack < 0 || att.Rack >= racks {
				panic(fmt.Sprintf("topology: ExtraMemDevs[%d] rack %d out of range (racks=%d)", i, att.Rack, racks))
			}
			node = att.Rack * perRack
		}
		if node < 0 || node >= nodes {
			panic(fmt.Sprintf("topology: ExtraMemDevs[%d] node %d out of range (nodes=%d)", i, node, nodes))
		}
		dev := t.AddDevice(KindMemDev, node, mdIdx[node])
		mdIdx[node]++
		m.Devs = append(m.Devs, dev)
		port := t.AddDevice(KindPort, node, dev.ID)
		t.Connect(dev, port, bw, bw, spec.CCILat)
		switch att.Tier {
		case TierSwitch:
			if att.Switch < 0 || att.Switch >= spec.Switches {
				panic(fmt.Sprintf("topology: ExtraMemDevs[%d] switch %d out of range (switches=%d)", i, att.Switch, spec.Switches))
			}
			c := cores[node][att.Switch]
			if spec.P2P {
				t.Connect(port, c.peer, spec.PeerBW, spec.PeerBW, spec.SwitchLat)
			}
			t.Connect(port, c.up, spec.UpBW, spec.UpBW, spec.SwitchLat)
		case TierNode:
			t.Connect(port, hosts[node], spec.HostBW, spec.HostBW, spec.HostLat)
		case TierRack:
			if nodes <= 1 {
				panic(fmt.Sprintf("topology: ExtraMemDevs[%d] TierRack needs a multi-node machine", i))
			}
			t.Connect(port, tors[att.Rack], rackBW, rackBW, spec.NetLat)
		default:
			panic(fmt.Sprintf("topology: ExtraMemDevs[%d] unknown tier %d", i, int(att.Tier)))
		}
	}
	return m
}

// AWST4 models the paper's AWS T4 instance (Figure 16a-b): eight T4 GPUs
// on PCIe without peer-to-peer support and with uniform local/remote
// bandwidth, half of them emulating CCI memory devices.
func AWST4() Spec {
	return Spec{
		Label:     "AWS T4",
		Switches:  4,
		Slots:     []string{"WM"},
		EdgeBW:    10 * GB,
		PeerBW:    8.5 * GB,
		UpBW:      8.5 * GB, // uniform: no exploitable non-uniformity
		HostBW:    28 * GB,
		CCIRingBW: 9 * GB,
		CCIHostBW: 9 * GB,
		EdgeLat:   400, // ns
		SwitchLat: 700,
		HostLat:   1100,
		CCILat:    350,
		P2P:       false,
		GPU:       GPUSpec{Model: "T4", TFLOPS: 8.1, MemBytes: 16 * GiB, MemBW: 300 * GB},
	}
}

// SDSCP100 models the San Diego Supercomputing Center instance (Figures
// 8b, 16c): four P100 GPUs on PCIe with conventional locality — the path
// through the switch peer core is faster than the path over the host.
func SDSCP100() Spec {
	return Spec{
		Label:     "SDSC P100",
		Switches:  2,
		Slots:     []string{"WM"},
		EdgeBW:    13 * GB, // paper: 13 GB/s unidirectional, 25 GB/s bidirectional
		PeerBW:    12.5 * GB,
		UpBW:      7 * GB,
		HostBW:    24 * GB,
		CCIRingBW: 11.5 * GB,
		CCIHostBW: 10 * GB,
		EdgeLat:   400,
		SwitchLat: 700,
		HostLat:   1200,
		CCILat:    300,
		P2P:       true,
		GPU:       GPUSpec{Model: "P100", TFLOPS: 9.3, MemBytes: 16 * GiB, MemBW: 732 * GB},
	}
}

// AWSV100 models the AWS p3 instance (Figures 8a, 16d): eight V100 GPUs
// where remote peer-to-peer bandwidth exceeds local bandwidth — the
// "anti-locality" the paper exploits with bandwidth-aware routing.
func AWSV100() Spec {
	return Spec{
		Label:     "AWS V100",
		Switches:  4,
		Slots:     []string{"WM"},
		EdgeBW:    13 * GB,
		PeerBW:    8 * GB,  // local turnaround is the slow path...
		UpBW:      11 * GB, // ...while the host route is faster (anti-locality)
		HostBW:    36 * GB,
		CCIRingBW: 11.5 * GB,
		CCIHostBW: 10 * GB,
		EdgeLat:   400,
		SwitchLat: 700,
		HostLat:   1000,
		CCILat:    300,
		P2P:       true,
		GPU:       GPUSpec{Model: "V100", TFLOPS: 15.7, MemBytes: 16 * GiB, MemBW: 900 * GB},
	}
}

// TwoToOne converts a preset to the paper's 2:1 configuration: each
// memory device is shared by two worker GPUs (the same total GPU count,
// fewer of them emulating CCI devices).
func TwoToOne(s Spec) Spec {
	s.Label = s.Label + " 2:1"
	s.Slots = []string{"WW", "M-"}
	return s
}

// AWSV100TwoToOne is the 2:1 configuration on the p3 machine.
func AWSV100TwoToOne() Spec {
	return TwoToOne(AWSV100())
}

// NVLinkBW is the per-direction bandwidth of the NVLink mesh links in
// the AWSV100NVLink extension preset (a V100 pair's two NVLink2 bricks).
const NVLinkBW = 22 * GB

// AWSV100NVLink is an extension beyond the paper's evaluation: the p3
// machine with its NVLink mesh enabled between worker GPUs. The paper's
// profiler deliberately disables NVLink (Section IV-B) and its AllReduce
// numbers are consistent with a PCIe ring; this preset quantifies how
// much of COARSE's advantage survives when the baseline gets a fabric
// an order faster than PCIe (cf. the Blink discussion in related work).
func AWSV100NVLink() Spec {
	s := AWSV100()
	s.Label = "AWS V100 NVLink"
	s.NVLinkMesh = true
	return s
}

// MultiNodeV100 is the paper's multi-node setup (Figures 16e-f): n AWS
// p3.16xlarge V100 nodes. That instance generation exposes 25 Gb/s
// networking (~3.1 GB/s), an order of magnitude below the intra-node
// PCIe fabric — the disparity that makes a single COARSE node with a
// larger batch outrun two AllReduce nodes (paper Section V-D).
func MultiNodeV100(n int) Spec {
	s := AWSV100()
	s.Label = fmt.Sprintf("AWS V100 x%d", n)
	s.NodeCount = n
	s.NetBW = 3.1 * GB
	s.NetLat = 5000
	return s
}

// Presets returns every single-machine preset in Table I order.
func Presets() []Spec {
	return []Spec{AWST4(), SDSCP100(), AWSV100(), AWSV100TwoToOne(), MultiNodeV100(2)}
}
