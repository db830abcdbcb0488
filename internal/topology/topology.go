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
	"math/bits"

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

// edge is one adjacency entry: the ID of the peer a link reaches and
// the channel that leaves toward it, as its index in Topology.chans.
type edge struct{ peer, ch int32 }

// Topology is a device graph over a fabric network, with shortest-path
// routing between endpoints.
type Topology struct {
	Eng *sim.Engine
	Net *fabric.Network

	devices []*Device
	adj     [][]edge          // indexed by device ID, kept sorted by peer ID
	ends    []linkEnd         // every link Connect made, in creation order
	chans   []*fabric.Channel // every link's forward then reverse channel, in creation order

	// Adjacency lists are carved from shared blocks (see chunks.carve)
	// and move to a carved slice twice as long when they fill, so a
	// machine's adjacency costs a few blocks, not a regrown slice per
	// device.
	edges chunks[edge]

	// routes holds one entry per device routed from, in first-query
	// order; source[id] is device id's index in routes plus one, 0 for
	// a device not yet routed from. Both are dropped by Connect.
	routes []sourceRoutes
	source []int32

	// base is the one dense shortest-path tree the topology keeps: how
	// every device is reached in the first tree built since routes were
	// last dropped. Every other source stores only where its tree
	// differs from it (see sourceRoutes), in diffs carved from shared
	// chunks (see chunks.carve) rather than allocated one by one.
	base  []reach
	diffs chunks[devReach]

	// BFS scratch, reused across trees: a generated multi-rack cell
	// builds one tree per source device, and per-call allocation of the
	// visited set, predecessor array and frontiers is measurable at
	// thousands of devices. visitGen stamps visitMark entries, and prev
	// is read only where the stamp is current, so neither array needs
	// clearing between calls. diff collects a tree's differences from
	// base before they are copied into a carved slice.
	visitMark []uint64
	visitGen  uint64
	prev      []reach
	diff      []devReach
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

// linkEnd is a link Connect made, with the devices it joins: a is the
// link's forward end.
type linkEnd struct {
	link *fabric.Link
	a, b *Device
}

// firstEdges is the room a device's adjacency list is first carved
// with. Most devices have at most four links, so only switch cores,
// host bridges and network switches move. With room for two, the
// lists that moved left enough abandoned slices to raise the repo
// benchmark's heap_live_mb 2% on paper-fig16 and serve-kv; with room
// for eight, alloc_mb rose 1-7% on every workload.
const firstEdges = 4

// sourceRoutes is one source device's shortest-path tree, from which
// every route out of the source is walked on demand; no route is
// stored.
//
// The tree is kept as a diff against the topology's base tree: diff
// lists each device reached differently than in base, as it is reached
// in this tree (unreached for the source itself). The source of the
// base tree has an empty diff. The generated machines are trees, so
// two sources' trees differ only along the path between them: with
// every device as a source, diffs average 6-10 entries on every preset
// and generated machine (at most 21, on AWS T4), where a dense array
// holds one per device, so tree storage grows with sources, not
// sources x devices.
//
// A walk looks a device up at every hop, so the diff is ordered for a
// lookup without a search: entries are sorted by bucket dev%64, then
// by dev, and diffMask has bit dev%64 set for each. The bits below
// d%64 count the buckets before d's, so d's entry, if any, is at that
// count or, where buckets hold more than one entry (never on a machine
// of at most 64 devices), a few entries past it.
type sourceRoutes struct {
	diff     []devReach
	diffMask uint64
}

// reach records how a shortest-path tree reaches a device: from its
// predecessor pred over channel Topology.chans[ch], the channel the
// BFS claimed the device through. Both are -1 where the device is
// unreached, and for the tree's source.
type reach struct{ pred, ch int32 }

// unreached is the reach of a device a tree does not reach.
var unreached = reach{-1, -1}

// devReach is a diff entry: how a source's tree reaches dev.
type devReach struct {
	dev int32
	reach
}

// at returns how d is reached in sr's tree: its diff entry when it has
// one, else base's.
func (sr *sourceRoutes) at(base []reach, d int32) reach {
	b := uint32(d) % 64
	if bit := uint64(1) << b; sr.diffMask&bit != 0 {
		for _, e := range sr.diff[bits.OnesCount64(sr.diffMask&(bit-1)):] {
			if e.dev == d {
				return e.reach
			}
			if uint32(e.dev)%64 > b {
				break
			}
		}
	}
	return base[d]
}

// Chunk lengths, in elements: the first chunk holds a preset's few
// tree diffs, and the cap keeps a diff chunk within 48 KiB (an edge
// chunk within 32 KiB).
const (
	minChunk = 16
	maxChunk = 4096
)

// chunks hands out exact-capacity slices cut from shared chunks: free
// is the current chunk's unused tail, and last the length of the last
// chunk cut. Chunks double from minChunk up to maxChunk.
type chunks[T any] struct {
	free []T
	last int
}

// carve returns room for n elements cut from the current chunk,
// starting a chunk twice as long as the last when it runs out. The
// slice's capacity is exactly n, so no caller's append can write into
// the next slice carved after it.
func (c *chunks[T]) carve(n int) []T {
	if len(c.free) < n {
		c.last = min(max(2*c.last, minChunk), maxChunk)
		c.free = make([]T, max(c.last, n))
	}
	s := c.free[:n:n]
	c.free = c.free[n:]
	return s
}

// New creates an empty topology bound to a fresh network on eng.
func New(eng *sim.Engine) *Topology {
	return &Topology{
		Eng:          eng,
		Net:          fabric.NewNetwork(eng),
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
	fwd := int32(len(t.chans))
	t.chans = append(t.chans, l.Fwd(), l.Rev())
	t.insertEdge(a.ID, edge{peer: int32(b.ID), ch: fwd})
	t.insertEdge(b.ID, edge{peer: int32(a.ID), ch: fwd + 1})
	t.ends = append(t.ends, linkEnd{l, a, b})
	t.source = nil // invalidate trees; the next route query drops them and the base tree
	return l
}

// insertEdge keeps adjacency lists sorted by peer ID at construction
// time (stable: parallel links to the same peer stay in creation
// order), so the BFS consumes them directly instead of copying and
// sorting per frontier node per route query.
func (t *Topology) insertEdge(id int, e edge) {
	s := t.adj[id]
	if len(s) == cap(s) {
		grown := t.edges.carve(max(2*len(s), firstEdges))[:len(s)]
		copy(grown, s)
		s = grown
	}
	i := len(s)
	for i > 0 && s[i-1].peer > e.peer {
		i--
	}
	s = s[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = e
	t.adj[id] = s
}

// AppendPath appends the channels along a minimum-hop route from a to
// b to dst, in route order, and returns the extended slice. Ties are
// broken toward lower device IDs, so routing is deterministic.
// AppendPath panics when no route exists: presets always build
// connected graphs, so a missing route is a bug, not a condition to
// handle.
//
// Routes are walked, never stored (see walk). Once a's tree exists,
// appending into a slice with room allocates nothing.
func (t *Topology) AppendPath(dst []*fabric.Channel, a, b *Device) []*fabric.Channel {
	var buf [routeRoom]*fabric.Channel
	return append(dst, t.walk(buf[:], a, b)...)
}

// routeRoom is the route length the callers of walk make stack room
// for: routes on the presets and generated machines are at most 12
// hops.
const routeRoom = 16

// walk writes the a→b route's channels into buf's tail and returns
// them, in route order, as a suffix of buf; a route longer than buf is
// walked again into a buffer as long as the machine has devices. The
// first query from a runs one BFS that fixes, for every reachable
// device, its predecessor and the channel it was claimed through. The
// first tree built since the last Connect (or AddDevice) becomes the
// topology's base tree, and every later one is kept as its diff
// against the base (see sourceRoutes). The route is then read from the
// tree hop by hop, from b back to a, each hop filling buf one slot
// further from its end. The tree a full BFS fixes for devices at depth
// <= depth(b) is exactly what an early-terminating per-pair BFS
// computes (a device's predecessor is set by its first visitor, which
// later levels cannot change), so every route is the per-pair
// router's. A tree that reaches a device over no channel, or loops, is
// corrupt, and walk panics on it.
func (t *Topology) walk(buf []*fabric.Channel, a, b *Device) []*fabric.Channel {
	if a == b {
		panic("topology: path to self")
	}
	sr, base := t.tree(a), t.base
	i, src := len(buf), int32(a.ID)
	for cur := int32(b.ID); cur != src; {
		r := sr.at(base, cur)
		if r.ch < 0 {
			if cur == int32(b.ID) {
				panic(fmt.Sprintf("topology: no route %s -> %s", a, b))
			}
			panic(fmt.Sprintf("topology: route %s -> %s: %s has no claiming channel", a, b, t.devices[cur]))
		}
		if i == 0 {
			if len(buf) >= len(t.devices) { // no route has as many hops as devices
				panic(fmt.Sprintf("topology: route %s -> %s loops", a, b))
			}
			return t.walk(make([]*fabric.Channel, len(t.devices)), a, b)
		}
		i--
		buf[i] = t.chans[r.ch]
		cur = r.pred
	}
	return buf[i:]
}

// tree returns a's routes, building a's shortest-path tree on its
// first query.
func (t *Topology) tree(a *Device) *sourceRoutes {
	if len(t.source) != len(t.devices) { // first query since a Connect or AddDevice
		t.source = make([]int32, len(t.devices))
		// Sources are usually endpoints: make room for them once.
		t.routes = make([]sourceRoutes, 0, len(t.GPUs)+len(t.MemDevs)+len(t.CPUs)+len(t.NICs))
		t.base = nil
	}
	i := t.source[a.ID]
	if i == 0 {
		t.routes = append(t.routes, sourceRoutes{})
		i = int32(len(t.routes))
		t.source[a.ID] = i
		t.buildTree(a, &t.routes[i-1])
	}
	return &t.routes[i-1]
}

// buildTree computes a's full shortest-path tree into the scratch
// predecessor array, then keeps it as the base tree when there is none
// yet, or as sr's diff against the base. Only infrastructure nodes may
// carry transit traffic: endpoints (GPUs, memory devices, CPUs, NICs)
// terminate flows, they do not forward them — without this rule the
// router would "shortcut" GPU traffic through a memory device's CCI
// ring port. Frontier devices expand in visit order and their
// adjacency lists are pre-sorted by peer ID, preserving the lower-ID
// tie-break exactly.
//
// Each device records the channel of the adjacency entry whose visit
// claimed it: the predecessor's first entry pointing at the device,
// since adjacency lists are sorted with parallel links in stable
// creation order.
func (t *Topology) buildTree(a *Device, sr *sourceRoutes) {
	n := len(t.devices)
	if len(t.visitMark) < n {
		t.visitMark = make([]uint64, n)
		t.prev = make([]reach, n)
	}
	t.visitGen++
	gen, mark, prev := t.visitGen, t.visitMark, t.prev
	mark[a.ID] = gen
	prev[a.ID] = unreached
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
				p := e.peer
				if mark[p] == gen {
					continue
				}
				mark[p] = gen
				prev[p] = reach{pred: id, ch: e.ch}
				next = append(next, p)
			}
		}
		frontier, next = next, frontier
	}
	t.frontier, t.frontier2 = frontier, next

	reached := func(i int) reach {
		if mark[i] == gen {
			return prev[i]
		}
		return unreached
	}
	if t.base == nil {
		t.base = make([]reach, n)
		for i := range t.base {
			t.base[i] = reached(i)
		}
		return
	}
	diff := t.diff[:0]
	for b := range min(n, 64) { // by bucket, then device (see sourceRoutes)
		for i := b; i < n; i += 64 {
			if r := reached(i); r != t.base[i] {
				diff = append(diff, devReach{int32(i), r})
				sr.diffMask |= 1 << b
			}
		}
	}
	t.diff = diff
	sr.diff = t.diffs.carve(len(diff))
	copy(sr.diff, diff)
}

// Transfer starts a flow of size bytes from a to b.
func (t *Topology) Transfer(a, b *Device, size int64, onDone func()) *fabric.Flow {
	var buf [routeRoom]*fabric.Channel
	return t.Net.Transfer(t.walk(buf[:], a, b), size, onDone)
}

// TransferEphemeral starts a flow of size bytes from a to b without
// returning a handle, letting the fabric recycle the flow record once
// it completes and leaves every active list. Use it for
// fire-and-forget traffic whose only observable is onDone; callers
// that need Rate/Remaining or flow identity must use Transfer.
// Repeated a→b transfers cross the same channels, which is what lets
// the fabric fold a back-to-back fan of them into one entry.
func (t *Topology) TransferEphemeral(a, b *Device, size int64, onDone func()) {
	var buf [routeRoom]*fabric.Channel
	t.Net.TransferEphemeral(t.walk(buf[:], a, b), size, onDone)
}

// ZeroLoad returns the a→b route's propagation latency and its
// zero-load bandwidth, the minimum channel capacity along it.
func (t *Topology) ZeroLoad(a, b *Device) (lat sim.Time, bw float64) {
	var buf [routeRoom]*fabric.Channel
	route := t.walk(buf[:], a, b)
	bw = route[0].Capacity()
	for _, c := range route {
		lat += c.Latency()
		bw = min(bw, c.Capacity())
	}
	return lat, bw
}

// PathBandwidth returns the zero-load bandwidth of the a→b route (see
// ZeroLoad).
func (t *Topology) PathBandwidth(a, b *Device) float64 {
	_, bw := t.ZeroLoad(a, b)
	return bw
}

// PathLatency returns the propagation latency of the a→b route (see
// ZeroLoad).
func (t *Topology) PathLatency(a, b *Device) sim.Time {
	lat, _ := t.ZeroLoad(a, b)
	return lat
}

// SameSwitch reports whether two endpoint devices sit under the same PCIe
// switch (their ports share a peer core). Presets arrange one worker GPU
// and one memory device per switch, so this drives "local proxy" checks.
func (t *Topology) SameSwitch(a, b *Device) bool {
	pa, pb := t.switchOf(a), t.switchOf(b)
	return pa >= 0 && pa == pb
}

// SetLinkCapacity changes a link's capacities. Routes are hop-based,
// so the trees stay valid, and PathBandwidth reads the live
// capacities.
func (t *Topology) SetLinkCapacity(l *fabric.Link, fwdCap, revCap float64) {
	t.Net.SetLinkCapacity(l, fwdCap, revCap)
}

// LinksBetween returns the links whose endpoints have the two kinds (in
// either order), in creation order.
func (t *Topology) LinksBetween(a, b Kind) []*fabric.Link {
	var out []*fabric.Link
	for _, e := range t.ends {
		if (e.a.Kind == a && e.b.Kind == b) || (e.a.Kind == b && e.b.Kind == a) {
			out = append(out, e.link)
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
		if t.devices[e1.peer].Kind != KindPort {
			continue
		}
		for _, e2 := range t.adj[e1.peer] {
			if t.devices[e2.peer].Kind == KindSwitchPeer {
				return int(e2.peer)
			}
		}
	}
	return -1
}
