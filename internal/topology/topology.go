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
	"slices"

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

	devices []*Device
	adj     [][]edge  // indexed by device ID, kept sorted by peer ID
	ends    []linkEnd // every link Connect made, in creation order

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

	// base is the one dense shortest-path tree the cache keeps: the
	// predecessor of every device (-1 if unreached) in the first tree
	// built since routes were last dropped. Every other source stores
	// only where its tree differs from it (see sourceRoutes).
	base []int32

	// Materialized paths and tree diffs are carved from shared chunks
	// rather than allocated one by one (see chunks.carve): a small
	// machine holds a few hundred bytes of route storage, and a
	// rack-scale one allocates a path chunk per ~600 routes, not one
	// slice per route.
	paths chunks[*fabric.Channel]
	diffs chunks[predDiff]

	// BFS scratch, reused across trees: a generated multi-rack cell
	// builds one tree per source device, and per-call allocation of the
	// visited set, predecessor array and frontiers is measurable at
	// thousands of devices. visitGen stamps visitMark entries, and prev
	// is read only where the stamp is current, so neither array needs
	// clearing between calls. diff collects a tree's differences from
	// base before they are copied into a carved slice.
	visitMark []uint64
	visitGen  uint64
	prev      []int32
	diff      []predDiff
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

// sourceRoutes caches one source device's routes.
//
// Its shortest-path tree is kept as a diff against the topology's base
// tree: diff lists, sorted by device ID, each device whose predecessor
// differs from base's, with its predecessor in this tree (-1 where
// unreached, the source itself included). The source of the base tree
// has an empty diff. The generated machines are trees, so two sources'
// trees differ only along the path between them: with every device as
// a source, diffs average 6-10 entries on every preset and generated
// machine (at most 21, on AWS T4), where a dense array holds one per
// device, so tree storage grows with sources, not sources x devices.
//
// A source routes to a handful of destinations, not to every device on
// the machine, so its materialized paths are indexed by dsts, the
// destination IDs in ascending order, searched by binary search;
// paths[i] is the route to dsts[i], carved from the topology's shared
// path chunks. A run asks for routes in sweeps: again the route it
// just asked for, or the source's next destination up (62-87% of all
// lookups, recorded on each benchmark workload). last is the position
// of the source's last lookup, so those two are tried before the
// search.
type sourceRoutes struct {
	diff     []predDiff
	diffMask uint64 // bit dev%64 set for each dev in diff
	dsts     []int32
	paths    [][]*fabric.Channel
	last     int32
}

// predDiff records that dev's predecessor in a source's tree is pred.
type predDiff struct{ dev, pred int32 }

// firstRoutes is the number of routes a source has room for when its
// first route is materialized, and again after ReleaseRoutes: a
// preset's endpoint routes to at most a few peers.
const firstRoutes = 8

// pred returns d's predecessor in sr's tree: its diff entry when it has
// one, else base's. diffMask spares most devices outside the diff the
// scan.
func (sr *sourceRoutes) pred(base []int32, d int32) int32 {
	if sr.diffMask&(1<<(uint32(d)%64)) != 0 {
		for _, e := range sr.diff {
			if e.dev >= d {
				if e.dev == d {
					return e.pred
				}
				break
			}
		}
	}
	return base[d]
}

// Chunk lengths, in elements: the first chunk holds a few preset
// routes, and the cap keeps a path chunk within 32 KiB (an edge chunk
// within 96 KiB).
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
	t.insertEdge(a.ID, edge{link: l, peer: b, fwd: true})
	t.insertEdge(b.ID, edge{link: l, peer: a, fwd: false})
	t.ends = append(t.ends, linkEnd{l, a, b})
	t.source = nil // invalidate cache; Path drops the routes and base tree with it
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
	for i > 0 && s[i-1].peer.ID > e.peer.ID {
		i--
	}
	s = s[:len(s)+1]
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
// that fixes the predecessor of every reachable device. The first tree
// built since the last Connect (or AddDevice) becomes the topology's
// base tree, and every later one is kept as its sorted diff against
// the base (see sourceRoutes). Each destination's path is then
// materialized from the tree on first use, into a shared path chunk,
// and inserted in the source's sorted destination index. Each (source,
// destination) pair gets one slice until ReleaseRoutes, which every
// later query returns: the fabric's aggregation join compares paths by
// their first element's address. The tree a full BFS fixes for devices
// at depth <= depth(b) is exactly what an early-terminating per-pair
// BFS computes (a device's predecessor is set by its first visitor,
// which later levels cannot change), so every returned path is the
// per-pair router's.
func (t *Topology) Path(a, b *Device) []*fabric.Channel {
	sr := t.tree(a)
	dst := int32(b.ID)
	for at := int(sr.last); at <= int(sr.last)+1 && at < len(sr.dsts); at++ {
		if sr.dsts[at] == dst {
			sr.last = int32(at)
			return sr.paths[at]
		}
	}
	at, ok := slices.BinarySearch(sr.dsts, dst)
	sr.last = int32(at)
	if ok {
		return sr.paths[at]
	}
	// Walk back from b into a stack buffer (routes on the generated
	// machines are at most a dozen hops), then copy the hops into a
	// carved slice in route order.
	var buf [32]*fabric.Channel
	hops := buf[:0]
	for w := t.walk(sr, a, b); ; {
		c := w.next()
		if c == nil {
			break
		}
		hops = append(hops, c)
	}
	path := t.paths.carve(len(hops))
	for i, c := range hops {
		path[len(hops)-1-i] = c
	}
	if sr.dsts == nil { // the tree's first route, or the first since ReleaseRoutes
		sr.dsts = make([]int32, 0, firstRoutes)
		sr.paths = make([][]*fabric.Channel, 0, firstRoutes)
	}
	sr.dsts = slices.Insert(sr.dsts, at, dst)
	sr.paths = slices.Insert(sr.paths, at, path)
	return path
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
	if t.source[a.ID] == 0 {
		t.routes = append(t.routes, sourceRoutes{})
		t.source[a.ID] = int32(len(t.routes))
		t.buildTree(a, &t.routes[len(t.routes)-1])
	}
	return &t.routes[t.source[a.ID]-1]
}

// routeWalk steps along a route in sr's tree from its destination back
// to its source, one channel per step, materializing nothing.
type routeWalk struct {
	t    *Topology
	sr   *sourceRoutes
	a, b *Device
	cur  int32
	hops int
}

// walk starts a walk of the a→b route in sr, a's tree. It panics when
// a is b or the tree does not reach b.
func (t *Topology) walk(sr *sourceRoutes, a, b *Device) routeWalk {
	if a == b {
		panic("topology: path to self")
	}
	if sr.pred(t.base, int32(b.ID)) < 0 {
		panic(fmt.Sprintf("topology: no route %s -> %s", a, b))
	}
	return routeWalk{t: t, sr: sr, a: a, b: b, cur: int32(b.ID)}
}

// next returns the channel into the current device from its
// predecessor and steps to the predecessor, or nil once the walk is
// back at the source. Each hop's channel is the predecessor's first
// adjacency entry pointing at the device. A tree that loops or names a
// predecessor with no link to the device is corrupt.
func (w *routeWalk) next() *fabric.Channel {
	t, cur := w.t, w.cur
	if cur == int32(w.a.ID) {
		return nil
	}
	if w.hops++; w.hops > len(t.devices) {
		panic(fmt.Sprintf("topology: route %s -> %s loops", w.a, w.b))
	}
	pred := w.sr.pred(t.base, cur)
	w.cur = pred
	for _, e := range t.adj[pred] {
		if int32(e.peer.ID) == cur {
			if e.fwd {
				return e.link.Fwd()
			}
			return e.link.Rev()
		}
	}
	panic(fmt.Sprintf("topology: route %s -> %s: %s has no link to %s", w.a, w.b, t.devices[pred], t.devices[cur]))
}

// ReleaseRoutes drops every materialized path and every source's
// destination index, keeping the trees: the next Path for a pair
// materializes a new slice. A setup pass that probes many more pairs
// than traffic will use (COARSE's offline profiler) calls it once it
// is done, so a cell retains only the routes its traffic asks for. It
// panics unless the engine is idle: a flow in flight still holds its
// path, and a later same-pair transfer would no longer share it.
func (t *Topology) ReleaseRoutes() {
	if t.Net.ActiveFlows() != 0 || t.Eng.PendingForeground() != 0 {
		panic("topology: ReleaseRoutes while the engine is busy")
	}
	for i := range t.routes {
		sr := &t.routes[i]
		sr.dsts, sr.paths, sr.last = nil, nil, 0
	}
	t.paths = chunks[*fabric.Channel]{}
}

// CachedRoutes returns the number of materialized paths the route
// cache holds. It is a diagnostic of what a cell retains: routing never
// reads it.
func (t *Topology) CachedRoutes() int {
	n := 0
	for i := range t.routes {
		n += len(t.routes[i].dsts)
	}
	return n
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
// The predecessor arrays store bare device IDs rather than edges: the
// claiming edge is recovered during path materialization as the
// predecessor's first adjacency entry pointing at the device —
// adjacency lists are sorted with parallel links in stable creation
// order, so that first entry is exactly the one whose visit set the
// predecessor.
func (t *Topology) buildTree(a *Device, sr *sourceRoutes) {
	n := len(t.devices)
	if len(t.visitMark) < n {
		t.visitMark = make([]uint64, n)
		t.prev = make([]int32, n)
	}
	t.visitGen++
	gen, mark, prev := t.visitGen, t.visitMark, t.prev
	mark[a.ID] = gen
	prev[a.ID] = -1
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
				if mark[p] == gen {
					continue
				}
				mark[p] = gen
				prev[p] = id
				next = append(next, p)
			}
		}
		frontier, next = next, frontier
	}
	t.frontier, t.frontier2 = frontier, next

	if t.base == nil {
		t.base = make([]int32, n)
		for i := range t.base {
			t.base[i] = -1
			if mark[i] == gen {
				t.base[i] = prev[i]
			}
		}
		return
	}
	diff := t.diff[:0]
	for i, b := range t.base {
		p := int32(-1)
		if mark[i] == gen {
			p = prev[i]
		}
		if p != b {
			diff = append(diff, predDiff{int32(i), p})
			sr.diffMask |= 1 << (i % 64)
		}
	}
	t.diff = diff
	sr.diff = t.diffs.carve(len(diff))
	copy(sr.diff, diff)
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

// ZeroLoad returns the a→b route's propagation latency and its
// zero-load bandwidth, the minimum channel capacity along it. It walks
// a's tree and materializes nothing, so a setup-time query (a profiler
// probe, a placement choice) leaves no route in the cache; traffic
// routes through Path.
func (t *Topology) ZeroLoad(a, b *Device) (lat sim.Time, bw float64) {
	bw = -1
	for w := t.walk(t.tree(a), a, b); ; {
		c := w.next()
		if c == nil {
			return lat, bw
		}
		lat += c.Latency()
		if bw < 0 || c.Capacity() < bw {
			bw = c.Capacity()
		}
	}
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
// so cached paths stay valid, and PathBandwidth reads the live
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
