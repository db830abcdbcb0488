// Package topology models the hardware layout of the machines in the
// paper's Table I: GPUs and CCI memory devices under PCIe switches, host
// bridges, NVLink-free PCIe fabrics, a CCI ring between memory devices,
// and (for multi-node runs) NICs behind a datacenter switch.
//
// A switch is modelled as two internal nodes: a peer-turnaround core and
// an uplink core. Devices under the switch reach each other through the
// peer core and reach the rest of the machine through the uplink core.
// Giving the two cores different capacities is what reproduces the
// paper's central Figure 8 observation: on the SDSC machine local
// peer-to-peer bandwidth beats remote ("locality"), while on the AWS V100
// machine the peer path through the switch chipset is the slower one
// ("anti-locality", paper Section III-E and [31]).
package topology

import (
	"fmt"

	"coarse/internal/fabric"
	"coarse/internal/sim"
)

// Kind classifies a device node in the topology graph.
type Kind int

// Device kinds. Ports, switch cores and host bridges are auxiliary nodes
// that exist to shape bandwidth; GPUs, memory devices, CPUs and NICs are
// addressable endpoints.
const (
	KindCPU Kind = iota
	KindGPU
	KindMemDev
	KindPort
	KindSwitchPeer
	KindSwitchUp
	KindHostBridge
	KindNIC
	KindNetSwitch
)

var kindNames = map[Kind]string{
	KindCPU:        "cpu",
	KindGPU:        "gpu",
	KindMemDev:     "memdev",
	KindPort:       "port",
	KindSwitchPeer: "sw-peer",
	KindSwitchUp:   "sw-up",
	KindHostBridge: "hostbridge",
	KindNIC:        "nic",
	KindNetSwitch:  "netswitch",
}

// String returns the lower-case kind name.
func (k Kind) String() string { return kindNames[k] }

// Device is a node in the topology graph.
type Device struct {
	ID    int
	Name  string
	Kind  Kind
	Node  int // server-node index, 0 for single-node machines
	Index int // kind-local index within its server node
}

func (d *Device) String() string { return d.Name }

type edge struct {
	link *fabric.Link
	peer *Device
	fwd  bool // true when we are endpoint A of the link
}

// Topology is a device graph over a fabric network, with shortest-path
// routing between endpoints.
type Topology struct {
	Eng *sim.Engine
	Net *fabric.Network

	devices  []*Device
	adj      [][]edge        // indexed by device ID, kept sorted by peer ID
	routes   []*sourceRoutes // indexed by source device ID; nil until its first query
	linkEnds map[*fabric.Link][2]*Device

	// Materialized paths are carved from shared chunks of channel
	// pointers rather than allocated one by one: pathFree is the
	// current chunk's unused tail, and pathChunk the length of the
	// last chunk cut. Chunks double from minPathChunk up to
	// maxPathChunk, so a small machine holds a few hundred bytes of
	// route storage and a rack-scale one allocates a chunk per ~600
	// routes, not one slice per route.
	pathFree  []*fabric.Channel
	pathChunk int

	// BFS scratch, reused across route queries: a generated multi-rack
	// cell runs one BFS per source device, and per-call allocation of
	// the visited set and frontiers is measurable at thousands of
	// devices. visitGen stamps visitMark entries so the mark array
	// never needs clearing between calls.
	visitMark []uint64
	visitGen  uint64
	frontier  []int32
	frontier2 []int32

	// Convenience slices populated by presets, in index order.
	GPUs    []*Device
	MemDevs []*Device
	CPUs    []*Device
	NICs    []*Device

	// P2PSupported reports whether GPUs on this machine can DMA directly
	// to peer devices; when false, device-to-device copies must bounce
	// through CPU memory (the paper's AWS T4 machine).
	P2PSupported bool

	// Label identifies the machine preset ("AWS T4", "SDSC P100", ...).
	Label string
}

// sourceRoutes caches one device's shortest-path tree: the BFS
// predecessor array over all reachable devices, plus per-destination
// channel paths materialized on first use. One BFS serves every
// destination a source ever routes to, instead of one BFS per pair.
//
// The predecessor array stores bare device IDs rather than edges: a
// generated multi-rack machine keeps one tree per source, and
// pointer-free storage is a quarter the size and invisible to the
// garbage collector's scan. The claiming edge is recovered during path
// materialization as the predecessor's first adjacency entry pointing
// at the device — adjacency lists are sorted with parallel links in
// stable creation order, so that first entry is exactly the one whose
// visit set the predecessor. A source routes to a handful of
// destinations, not to every device on the machine, so its
// materialized paths are indexed by a map from destination ID; each
// path is carved from the topology's shared chunks (see carvePath).
type sourceRoutes struct {
	prev  []int32 // predecessor device ID per device ID; -1 if unreached
	paths map[int32][]*fabric.Channel
}

// Path chunk lengths, in channel pointers: the first chunk holds a few
// preset routes, and the cap keeps a chunk within 32 KiB.
const (
	minPathChunk = 16
	maxPathChunk = 4096
)

// New creates an empty topology bound to a fresh network on eng.
func New(eng *sim.Engine) *Topology {
	return &Topology{
		Eng:          eng,
		Net:          fabric.NewNetwork(eng),
		linkEnds:     make(map[*fabric.Link][2]*Device),
		P2PSupported: true,
	}
}

// AddDevice creates a device node of the given kind.
func (t *Topology) AddDevice(kind Kind, node, index int) *Device {
	d := &Device{
		ID:    len(t.devices),
		Name:  fmt.Sprintf("n%d/%s%d", node, kind, index),
		Kind:  kind,
		Node:  node,
		Index: index,
	}
	t.devices = append(t.devices, d)
	t.adj = append(t.adj, nil)
	switch kind {
	case KindGPU:
		t.GPUs = append(t.GPUs, d)
	case KindMemDev:
		t.MemDevs = append(t.MemDevs, d)
	case KindCPU:
		t.CPUs = append(t.CPUs, d)
	case KindNIC:
		t.NICs = append(t.NICs, d)
	}
	return d
}

// Devices returns all devices in creation order.
func (t *Topology) Devices() []*Device { return t.devices }

// Connect joins two devices with a full-duplex link. fwdCap is the a→b
// capacity in bytes/sec, revCap the b→a capacity.
func (t *Topology) Connect(a, b *Device, fwdCap, revCap float64, latency sim.Time) *fabric.Link {
	if a == b {
		panic("topology: self link")
	}
	l := t.Net.NewLink(a.Name+"<->"+b.Name, fwdCap, revCap, latency)
	t.insertEdge(a.ID, edge{link: l, peer: b, fwd: true})
	t.insertEdge(b.ID, edge{link: l, peer: a, fwd: false})
	t.linkEnds[l] = [2]*Device{a, b}
	t.routes = nil // invalidate cache
	return l
}

// insertEdge keeps adjacency lists sorted by peer ID at construction
// time (stable: parallel links to the same peer stay in creation
// order), so the BFS consumes them directly instead of copying and
// sorting per frontier node per route query.
func (t *Topology) insertEdge(id int, e edge) {
	s := t.adj[id]
	i := len(s)
	for i > 0 && s[i-1].peer.ID > e.peer.ID {
		i--
	}
	s = append(s, edge{})
	copy(s[i+1:], s[i:])
	s[i] = e
	t.adj[id] = s
}

// Path returns the channels along a minimum-hop route from a to b.
// Ties are broken toward lower device IDs, so routing is deterministic.
// Path panics when no route exists: presets always build connected graphs,
// so a missing route is a bug, not a condition to handle.
//
// Routing is cached per source: the first query from a runs one BFS
// that fixes the predecessor of every reachable device, then every
// destination's path is materialized from that tree on first use,
// into a shared path chunk (see carvePath). Each (source, destination)
// pair gets exactly one slice, which every later query returns: the
// fabric's aggregation join compares paths by their first element's
// address. The per-pair work — and the per-frontier-node adjacency
// copy and sort the old router paid — is gone; a generated cell
// routes from each worker once, not once per peer. The tree a full
// BFS fixes for
// devices at depth <= depth(b) is exactly what the early-terminating
// per-pair BFS computed (a device's predecessor is set by its first
// visitor, which later levels cannot change), so every returned path
// is identical to the old router's.
func (t *Topology) Path(a, b *Device) []*fabric.Channel {
	if a == b {
		panic("topology: path to self")
	}
	if len(t.routes) != len(t.devices) {
		t.routes = make([]*sourceRoutes, len(t.devices))
	}
	sr := t.routes[a.ID]
	if sr == nil {
		sr = t.bfs(a)
		t.routes[a.ID] = sr
	}
	if p, ok := sr.paths[int32(b.ID)]; ok {
		return p
	}
	if sr.prev[b.ID] < 0 {
		panic(fmt.Sprintf("topology: no route %s -> %s", a, b))
	}
	// Count the hops, then walk back from b filling the path from its
	// end, recovering each hop's claiming edge as the predecessor's
	// first adjacency entry pointing at the device.
	src := int32(a.ID)
	hops := 0
	for cur := int32(b.ID); cur != src; cur = sr.prev[cur] {
		hops++
	}
	path := t.carvePath(hops)
	cur := int32(b.ID)
	for i := hops - 1; i >= 0; i-- {
		pred := sr.prev[cur]
		adj := t.adj[pred]
		var e *edge
		for j := range adj {
			if int32(adj[j].peer.ID) == cur {
				e = &adj[j]
				break
			}
		}
		if e.fwd {
			path[i] = e.link.Fwd()
		} else {
			path[i] = e.link.Rev()
		}
		cur = pred
	}
	sr.paths[int32(b.ID)] = path
	return path
}

// carvePath returns room for an n-hop path cut from the current chunk,
// starting a chunk twice as long as the last when it runs out. The
// slice's capacity is exactly n, so no caller's append can write into
// the next route carved after it.
func (t *Topology) carvePath(n int) []*fabric.Channel {
	if len(t.pathFree) < n {
		t.pathChunk = min(max(2*t.pathChunk, minPathChunk), maxPathChunk)
		t.pathFree = make([]*fabric.Channel, max(t.pathChunk, n))
	}
	path := t.pathFree[:n:n]
	t.pathFree = t.pathFree[n:]
	return path
}

// bfs computes a's full shortest-path tree. Only infrastructure nodes
// may carry transit traffic: endpoints (GPUs, memory devices, CPUs,
// NICs) terminate flows, they do not forward them — without this rule
// the router would "shortcut" GPU traffic through a memory device's
// CCI ring port. Frontier devices expand in visit order and their
// adjacency lists are pre-sorted by peer ID, preserving the old
// router's lower-ID tie-break exactly.
func (t *Topology) bfs(a *Device) *sourceRoutes {
	sr := &sourceRoutes{
		prev:  make([]int32, len(t.devices)),
		paths: make(map[int32][]*fabric.Channel),
	}
	for i := range sr.prev {
		sr.prev[i] = -1
	}
	if len(t.visitMark) < len(t.devices) {
		t.visitMark = make([]uint64, len(t.devices))
	}
	t.visitGen++
	gen := t.visitGen
	t.visitMark[a.ID] = gen
	frontier := append(t.frontier[:0], int32(a.ID))
	next := t.frontier2[:0]
	for len(frontier) > 0 {
		next = next[:0]
		for _, id := range frontier {
			d := t.devices[id]
			if d != a && !transitKind(d.Kind) {
				continue
			}
			for _, e := range t.adj[id] {
				p := int32(e.peer.ID)
				if t.visitMark[p] == gen {
					continue
				}
				t.visitMark[p] = gen
				sr.prev[p] = id
				next = append(next, p)
			}
		}
		frontier, next = next, frontier
	}
	t.frontier, t.frontier2 = frontier, next
	return sr
}

// Transfer starts a flow of size bytes from a to b.
func (t *Topology) Transfer(a, b *Device, size int64, onDone func()) *fabric.Flow {
	return t.Net.Transfer(t.Path(a, b), size, onDone)
}

// TransferEphemeral starts a flow of size bytes from a to b without
// returning a handle, letting the fabric recycle the flow record once
// it completes and leaves every active list. Use it for
// fire-and-forget traffic whose only observable is onDone; callers
// that need Rate/Remaining or flow identity must use Transfer. Routes
// come from the topology's cache, so repeated a→b transfers share one
// path slice, which is what lets the fabric fold a back-to-back fan of
// them into one entry.
func (t *Topology) TransferEphemeral(a, b *Device, size int64, onDone func()) {
	t.Net.TransferEphemeral(t.Path(a, b), size, onDone)
}

// PathBandwidth returns the zero-load bandwidth of the a→b route: the
// minimum channel capacity along the path.
func (t *Topology) PathBandwidth(a, b *Device) float64 {
	bw := -1.0
	for _, c := range t.Path(a, b) {
		if bw < 0 || c.Capacity() < bw {
			bw = c.Capacity()
		}
	}
	return bw
}

// PathLatency returns the propagation latency of the a→b route.
func (t *Topology) PathLatency(a, b *Device) sim.Time {
	return fabric.PathLatency(t.Path(a, b))
}

// SameSwitch reports whether two endpoint devices sit under the same PCIe
// switch (their ports share a peer core). Presets arrange one worker GPU
// and one memory device per switch, so this drives "local proxy" checks.
func (t *Topology) SameSwitch(a, b *Device) bool {
	pa, pb := t.switchOf(a), t.switchOf(b)
	return pa >= 0 && pa == pb
}

// SetLinkCapacity changes a link's capacities and invalidates cached
// routes' bandwidth assumptions (paths themselves are hop-based and
// stay valid).
func (t *Topology) SetLinkCapacity(l *fabric.Link, fwdCap, revCap float64) {
	t.Net.SetLinkCapacity(l, fwdCap, revCap)
}

// LinksBetween returns the links whose endpoints have the two kinds (in
// either order), in creation order.
func (t *Topology) LinksBetween(a, b Kind) []*fabric.Link {
	var out []*fabric.Link
	for _, l := range t.Net.Links() {
		ends, ok := t.linkEnds[l]
		if !ok {
			continue
		}
		if (ends[0].Kind == a && ends[1].Kind == b) || (ends[0].Kind == b && ends[1].Kind == a) {
			out = append(out, l)
		}
	}
	return out
}

// MeanUtilization returns the average fraction of capacity used across
// both directions of the given links over [0, now].
func MeanUtilization(links []*fabric.Link, now sim.Time) float64 {
	if len(links) == 0 {
		return 0
	}
	total := 0.0
	for _, l := range links {
		total += (l.Fwd().Utilization(now) + l.Rev().Utilization(now)) / 2
	}
	return total / float64(len(links))
}

func transitKind(k Kind) bool {
	switch k {
	case KindPort, KindSwitchPeer, KindSwitchUp, KindHostBridge, KindNIC, KindNetSwitch:
		return true
	}
	return false
}

func (t *Topology) switchOf(d *Device) int {
	// endpoint -> port -> {sw-peer, sw-up}: find the peer core id.
	for _, e1 := range t.adj[d.ID] {
		if e1.peer.Kind != KindPort {
			continue
		}
		for _, e2 := range t.adj[e1.peer.ID] {
			if e2.peer.Kind == KindSwitchPeer {
				return e2.peer.ID
			}
		}
	}
	return -1
}
