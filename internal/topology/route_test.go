package topology

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"coarse/internal/fabric"
	"coarse/internal/sim"
)

// refHop is one adjacency entry of the reference router: the link and
// the channel that leaves the device over it.
type refHop struct {
	peer int
	ch   *fabric.Channel
}

// refAdjacency builds the reference router's adjacency from the
// links Connect made, in creation order: per device, its hops ordered
// by peer ID, parallel links to one peer in the order they were
// created.
func refAdjacency(m *Machine) [][]refHop {
	adj := make([][]refHop, len(m.Devices()))
	for _, e := range m.ends {
		a, b := e.a.ID, e.b.ID
		adj[a] = append(adj[a], refHop{b, e.link.Fwd()})
		adj[b] = append(adj[b], refHop{a, e.link.Rev()})
	}
	for _, hops := range adj {
		slices.SortStableFunc(hops, func(x, y refHop) int { return x.peer - y.peer })
	}
	return adj
}

// refTree is a BFS from a written from the routing rules alone: a
// FIFO queue from a; only the source and transit kinds (ports, switch
// cores, host bridges, NICs, network switches) forward traffic; a
// device is claimed by the first hop that reaches it, so among
// equal-length routes the one through lower peer IDs wins, and of
// parallel links the first created. via[d] is the channel that claimed
// device d (nil for a and where unreached), from[d] the device it was
// claimed from.
func refTree(m *Machine, adj [][]refHop, a *Device) (via []*fabric.Channel, from []int) {
	devs := m.Devices()
	via = make([]*fabric.Channel, len(devs))
	from = make([]int, len(devs))
	seen := make([]bool, len(devs))
	seen[a.ID] = true
	queue := []int{a.ID}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if id != a.ID && !transitKind(devs[id].Kind) {
			continue
		}
		for _, h := range adj[id] {
			if !seen[h.peer] {
				seen[h.peer] = true
				via[h.peer], from[h.peer] = h.ch, id
				queue = append(queue, h.peer)
			}
		}
	}
	return via, from
}

// refPath reads the a→b route off a's reference tree, or returns nil
// when b is unreachable.
func refPath(via []*fabric.Channel, from []int, a, b *Device) []*fabric.Channel {
	if via[b.ID] == nil {
		return nil
	}
	var path []*fabric.Channel
	for cur := b.ID; cur != a.ID; cur = from[cur] {
		path = append(path, via[cur])
	}
	slices.Reverse(path)
	return path
}

// checkRoutes compares m.AppendPath against the reference router on
// every given pair, in order; where the reference finds no route,
// AppendPath must panic. The reference tree is built again whenever
// the source changes, so source-major pairs build each tree once.
func checkRoutes(t *testing.T, label string, m *Machine, pairs [][2]*Device) {
	t.Helper()
	adj := refAdjacency(m)
	var src *Device
	var via []*fabric.Channel
	var from []int
	for _, p := range pairs {
		if p[0] != src {
			src = p[0]
			via, from = refTree(m, adj, src)
		}
		want := refPath(via, from, p[0], p[1])
		if want == nil {
			if !panics(func() { m.AppendPath(nil, p[0], p[1]) }) {
				t.Fatalf("%s: %s -> %s: AppendPath returned a route the reference cannot reach", label, p[0], p[1])
			}
			continue
		}
		got := m.AppendPath(nil, p[0], p[1])
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %s -> %s: path %v, reference %v", label, p[0], p[1], names(got), names(want))
		}
	}
}

func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// panicText returns what f panics with, formatted, or "" when f
// returns.
func panicText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

func names(path []*fabric.Channel) []string {
	var out []string
	for _, c := range path {
		out = append(out, c.Name())
	}
	return out
}

// allPairs lists every ordered pair of distinct devices, sources
// interleaved: each destination's row visits every source before the
// next destination, so later sources' trees are built against a base
// tree that is not their own.
func allPairs(m *Machine) [][2]*Device {
	devs := m.Devices()
	var pairs [][2]*Device
	for _, b := range devs {
		for _, a := range devs {
			if a != b {
				pairs = append(pairs, [2]*Device{a, b})
			}
		}
	}
	return pairs
}

// samplePairs draws n ordered pairs of distinct devices with a fixed
// seed.
func samplePairs(m *Machine, n int, seed int64) [][2]*Device {
	devs := m.Devices()
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]*Device, 0, n)
	for len(pairs) < n {
		a, b := devs[rng.Intn(len(devs))], devs[rng.Intn(len(devs))]
		if a != b {
			pairs = append(pairs, [2]*Device{a, b})
		}
	}
	return pairs
}

// TestPathMatchesReferenceBFS checks the tree-walking router, whose
// trees other than the base are kept as diffs, against a reference
// BFS: every device pair on every preset (the NVLink mesh and the
// multi-node machine included), every ordered endpoint pair on the
// 32-rack machine, a seeded sample on generated machines at each
// memory-device tier, and a chain whose route is longer than the
// walk's stack room. A Connect after trees are built must drop them
// and the base tree with them: the first source routed afterwards
// holds the new base, so its diff is empty. A corrupt diff entry must
// make AppendPath panic.
func TestPathMatchesReferenceBFS(t *testing.T) {
	for _, spec := range append(Presets(), AWSV100NVLink()) {
		m := Build(sim.NewEngine(), spec)
		checkRoutes(t, spec.Label, m, allPairs(m))
	}
	rack := rackMachine32()
	var endpointPairs [][2]*Device
	for _, a := range endpoints(rack) {
		for _, b := range endpoints(rack) {
			if a != b {
				endpointPairs = append(endpointPairs, [2]*Device{a, b})
			}
		}
	}
	checkRoutes(t, rack.Label, rack, endpointPairs)
	for i, g := range []ScaleSpec{
		{Racks: 32, NodesPerRack: 4, GPUsPerNode: 4, MemDevs: 64, MemDevTier: TierRack, Oversub: 2},
		{Racks: 4, NodesPerRack: 4, GPUsPerNode: 4, MemDevs: 8, MemDevTier: TierNode},
		{Racks: 2, NodesPerRack: 4, GPUsPerNode: 4, MemDevs: 16, MemDevTier: TierSwitch},
	} {
		spec := g.Generate()
		m := Build(sim.NewEngine(), spec)
		checkRoutes(t, spec.Label, m, samplePairs(m, 4000, int64(i+1)))
	}

	m := Build(sim.NewEngine(), AWSV100())
	checkRoutes(t, "AWS V100", m, allPairs(m))
	// A shortcut between two GPUs' ports changes routes the trees
	// hold, and a new GPU behind a new port adds a device every
	// route's tree must cover.
	p0, p3 := portOf(m, m.Workers[0]), portOf(m, m.Workers[3])
	m.Connect(p0, p3, 10*GB, 10*GB, 100)
	src := m.Workers[2]
	m.AppendPath(nil, src, m.Workers[1])
	if d := m.routes[m.source[src.ID]-1].diff; len(d) != 0 {
		t.Fatalf("first source routed after Connect has a %d-entry diff, want the base tree", len(d))
	}
	checkRoutes(t, "AWS V100 + shortcut", m, allPairs(m))
	gpu := m.AddDevice(KindGPU, 0, 4)
	port := m.AddDevice(KindPort, 0, 4)
	m.Connect(gpu, port, 10*GB, 10*GB, 100)
	m.Connect(port, p0, 10*GB, 10*GB, 100)
	checkRoutes(t, "AWS V100 + shortcut + GPU", m, allPairs(m))

	// Two GPUs at the ends of a chain of network switches, 2*routeRoom
	// hops apart: the walk outgrows its stack buffer.
	chain := &Machine{Topology: New(sim.NewEngine())}
	prev := chain.AddDevice(KindGPU, 0, 0)
	for i := range 2*routeRoom - 1 {
		sw := chain.AddDevice(KindNetSwitch, 0, i)
		chain.Connect(prev, sw, GB, GB, 1)
		prev = sw
	}
	chain.Connect(prev, chain.AddDevice(KindGPU, 0, 1), GB, GB, 1)
	if n := len(chain.AppendPath(nil, chain.GPUs[0], chain.GPUs[1])); n != 2*routeRoom {
		t.Fatalf("chain route has %d hops, want %d", n, 2*routeRoom)
	}
	checkRoutes(t, "chain", chain, allPairs(chain))

	// A corrupt tree must make AppendPath panic, not walk forever or
	// return a route with a hole: a diff entry naming its own device as
	// predecessor loops, and one without a claiming channel leaves a
	// hop unknown. The corrupted entry sits mid-route.
	for _, c := range []struct {
		name, panic string
		corrupt     func(*devReach)
	}{
		{"loop", "loops", func(e *devReach) { e.pred = e.dev }},
		{"no claiming channel", "no claiming channel", func(e *devReach) { e.ch = -1 }},
	} {
		m := Build(sim.NewEngine(), AWSV100())
		m.AppendPath(nil, m.Workers[0], m.Workers[1]) // the base tree
		src := m.Workers[2]
		m.AppendPath(nil, src, m.Workers[1])
		sr := &m.routes[m.source[src.ID]-1]
		var e *devReach
		var dst *Device
		for i := 0; i < len(sr.diff) && e == nil; i++ {
			if sr.diff[i].pred < 0 {
				continue
			}
			for _, d := range m.Devices() {
				if sr.at(m.base, int32(d.ID)).pred == sr.diff[i].dev {
					e, dst = &sr.diff[i], d
					break
				}
			}
		}
		if e == nil {
			t.Fatalf("%s: no diff entry of %s's tree has a successor", c.name, src)
		}
		c.corrupt(e)
		if msg := panicText(func() { m.AppendPath(nil, src, dst) }); !strings.Contains(msg, c.panic) {
			t.Fatalf("%s: AppendPath %s -> %s through the corrupt entry for %s panicked with %q, want %q",
				c.name, src, dst, m.Devices()[e.dev], msg, c.panic)
		}
	}
}

// portOf returns the port an endpoint hangs off.
func portOf(m *Machine, d *Device) *Device {
	for _, e := range m.adj[d.ID] {
		if p := m.devices[e.peer]; p.Kind == KindPort {
			return p
		}
	}
	panic("no port")
}

// rackMachine32 is the 32-rack, 512-worker generated machine with two
// rack-tier memory devices per rack.
func rackMachine32() *Machine {
	return Build(sim.NewEngine(), ScaleSpec{Racks: 32, NodesPerRack: 4, GPUsPerNode: 4,
		MemDevs: 64, MemDevTier: TierRack, Oversub: 2}.Generate())
}

// workerDevPairs lists every worker -> memory device and memory device
// -> worker pair, the routes a profiler measures.
func workerDevPairs(m *Machine) [][2]*Device {
	var pairs [][2]*Device
	for _, w := range m.Workers {
		for _, d := range m.Devs {
			pairs = append(pairs, [2]*Device{w, d}, [2]*Device{d, w})
		}
	}
	return pairs
}

// TestRouteStorageLinearInRoutes pins that route storage grows with
// the sources routed from, not with sources x devices or with routes:
// routing every worker <-> memory device pair on the 32-rack machine
// (576 sources, 2,593 devices, 65,536 routes) retains at most 8 B per
// route. A dense predecessor array per source alone costs ~91 B per
// route here, and a cache of materialized paths beside diffed trees
// retained ~100 B. No source's tree differs from the base tree in
// more than 16 devices.
func TestRouteStorageLinearInRoutes(t *testing.T) {
	m := rackMachine32()
	pairs := workerDevPairs(m)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var buf []*fabric.Channel
	for _, p := range pairs {
		buf = m.AppendPath(buf[:0], p[0], p[1])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRoute := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(len(pairs))
	t.Logf("%d routes retain %.1f B each", len(pairs), perRoute)
	if perRoute > 8 {
		t.Errorf("%d routes retain %.1f B each, want at most 8", len(pairs), perRoute)
	}
	for id, i := range m.source {
		if i > 0 && len(m.routes[i-1].diff) > 16 {
			t.Errorf("source %s: tree differs from the base in %d devices, want at most 16", m.Devices()[id], len(m.routes[i-1].diff))
		}
	}
	runtime.KeepAlive(m)
	runtime.KeepAlive(pairs)
}

// BenchmarkPathTrees routes every worker <-> memory device pair on a
// fresh 32-rack machine: one tree per source and one walk per pair.
func BenchmarkPathTrees(b *testing.B) {
	b.ReportAllocs()
	var buf []*fabric.Channel
	for range b.N {
		b.StopTimer()
		m := rackMachine32()
		pairs := workerDevPairs(m)
		b.StartTimer()
		for _, p := range pairs {
			buf = m.AppendPath(buf[:0], p[0], p[1])
		}
	}
}

// BenchmarkPathWalk walks worker <-> memory device routes on the
// 32-rack machine, every tree built, into a reused buffer in the order
// a run asks for them; one op is one walk. The lookups a scale-512
// COARSE cell makes, recorded, take three shapes, all replayed here: a
// source sweeping its destinations in ascending order (the profiler
// measures each worker against every memory device, looking each route
// up twice), a memory device sweeping the workers, and one destination
// reached from every source in turn.
func BenchmarkPathWalk(b *testing.B) {
	m := rackMachine32()
	var order [][2]*Device
	for _, w := range m.Workers {
		for _, d := range m.Devs {
			order = append(order, [2]*Device{w, d}, [2]*Device{w, d})
		}
	}
	for _, d := range m.Devs {
		for _, w := range m.Workers {
			order = append(order, [2]*Device{d, w})
		}
	}
	for _, d := range m.Devs {
		for _, w := range m.Workers {
			order = append(order, [2]*Device{w, d})
		}
	}
	for _, p := range order {
		pathSink = m.AppendPath(pathSink[:0], p[0], p[1])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		p := order[i%len(order)]
		pathSink = m.AppendPath(pathSink[:0], p[0], p[1])
	}
}

// pathSink keeps the benchmarked walks from being optimized away.
var pathSink []*fabric.Channel

// endpoints lists m's addressable devices: GPUs, memory devices, CPUs
// and NICs.
func endpoints(m *Machine) []*Device {
	var out []*Device
	for _, d := range m.Devices() {
		if !transitKind(d.Kind) || d.Kind == KindNIC {
			out = append(out, d)
		}
	}
	return out
}

// TestPathUncachedAllocs pins that routes are walked from the source's
// tree, never stored, at no allocation: on every ordered endpoint pair
// of every preset and of the 32-rack machine, one source at a time, a
// sweep of AppendPath into a reused buffer and of ZeroLoad allocates
// nothing once the source's tree exists, and ZeroLoad reports the
// walked route's summed latency and minimum capacity.
func TestPathUncachedAllocs(t *testing.T) {
	machines := []*Machine{rackMachine32()}
	for _, spec := range append(Presets(), AWSV100NVLink()) {
		machines = append(machines, Build(sim.NewEngine(), spec))
	}
	for _, m := range machines {
		ends := endpoints(m)
		lat := make([]sim.Time, len(ends))
		bw := make([]float64, len(ends))
		var buf []*fabric.Channel
		for _, a := range ends {
			sweep := func() {
				for i, b := range ends {
					if b != a {
						buf = m.AppendPath(buf[:0], a, b)
						lat[i], bw[i] = m.ZeroLoad(a, b)
					}
				}
			}
			if allocs := testing.AllocsPerRun(1, sweep); allocs != 0 {
				t.Fatalf("%s: walks from %s allocated %.0f objects, want 0", m.Label, a, allocs)
			}
			for i, b := range ends {
				if b == a {
					continue
				}
				p := m.AppendPath(nil, a, b)
				minCap := p[0].Capacity()
				for _, c := range p {
					minCap = min(minCap, c.Capacity())
				}
				if want := fabric.PathLatency(p); lat[i] != want {
					t.Fatalf("%s: %s -> %s: ZeroLoad latency %v, route %v", m.Label, a, b, lat[i], want)
				}
				if bw[i] != minCap {
					t.Fatalf("%s: %s -> %s: ZeroLoad bandwidth %v, route minimum %v", m.Label, a, b, bw[i], minCap)
				}
			}
		}
	}
}
