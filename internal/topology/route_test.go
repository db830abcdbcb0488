package topology

import (
	"math/rand"
	"runtime"
	"slices"
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

// refPath is a per-pair BFS written from the routing rules alone: a
// FIFO queue from a, stopping once b is reached; only the source and
// transit kinds (ports, switch cores, host bridges, NICs, network
// switches) forward traffic; a device is claimed by the first hop that
// reaches it, so among equal-length routes the one through lower peer
// IDs wins, and of parallel links the first created. It returns nil
// when b is unreachable.
func refPath(m *Machine, adj [][]refHop, a, b *Device) []*fabric.Channel {
	devs := m.Devices()
	via := make([]*fabric.Channel, len(devs))
	from := make([]int, len(devs))
	seen := make([]bool, len(devs))
	seen[a.ID] = true
	queue := []int{a.ID}
	for len(queue) > 0 && !seen[b.ID] {
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
	if !seen[b.ID] {
		return nil
	}
	var path []*fabric.Channel
	for cur := b.ID; cur != a.ID; cur = from[cur] {
		path = append(path, via[cur])
	}
	slices.Reverse(path)
	return path
}

// checkRoutes compares m.Path against the reference router on every
// given pair, in order; where the reference finds no route, Path must
// panic.
func checkRoutes(t *testing.T, label string, m *Machine, pairs [][2]*Device) {
	t.Helper()
	adj := refAdjacency(m)
	for _, p := range pairs {
		want := refPath(m, adj, p[0], p[1])
		if want == nil {
			if !panics(func() { m.Path(p[0], p[1]) }) {
				t.Fatalf("%s: %s -> %s: Path returned a route the reference cannot reach", label, p[0], p[1])
			}
			continue
		}
		got := m.Path(p[0], p[1])
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

// TestPathMatchesReferenceBFS checks the cached router, whose trees
// other than the base are kept as diffs, against a per-pair BFS: every
// device pair on every preset (the NVLink mesh and the multi-node
// machine included), and a seeded sample on generated machines at
// each memory-device tier. A Connect after routes are cached must drop
// them and the base tree with them: the first source routed afterwards
// holds the new base, so its diff is empty. A corrupt diff entry must
// make Path panic.
func TestPathMatchesReferenceBFS(t *testing.T) {
	for _, spec := range append(Presets(), AWSV100NVLink()) {
		m := Build(sim.NewEngine(), spec)
		checkRoutes(t, spec.Label, m, allPairs(m))
	}
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
	// A shortcut between two GPUs' ports changes routes that were
	// cached, and a new GPU behind a new port adds a device every
	// route's tree must cover.
	p0, p3 := portOf(m, m.Workers[0]), portOf(m, m.Workers[3])
	m.Connect(p0, p3, 10*GB, 10*GB, 100)
	src := m.Workers[2]
	m.Path(src, m.Workers[1])
	if d := m.routes[m.source[src.ID]-1].diff; len(d) != 0 {
		t.Fatalf("first source routed after Connect has a %d-entry diff, want the base tree", len(d))
	}
	checkRoutes(t, "AWS V100 + shortcut", m, allPairs(m))
	gpu := m.AddDevice(KindGPU, 0, 4)
	port := m.AddDevice(KindPort, 0, 4)
	m.Connect(gpu, port, 10*GB, 10*GB, 100)
	m.Connect(port, p0, 10*GB, 10*GB, 100)
	checkRoutes(t, "AWS V100 + shortcut + GPU", m, allPairs(m))

	// A diff entry naming a predecessor with no link to its device is a
	// corrupt tree: Path must panic, not return a path with a hole.
	m = Build(sim.NewEngine(), AWSV100())
	m.Path(m.Workers[0], m.Workers[1]) // the base tree
	src = m.Workers[2]
	m.Path(src, m.Workers[1])
	sr := &m.routes[m.source[src.ID]-1]
	e := &sr.diff[slices.IndexFunc(sr.diff, func(e predDiff) bool { return e.pred >= 0 && e.dev != int32(m.Workers[1].ID) })]
	linked := func(x, y int32) bool {
		return slices.ContainsFunc(m.adj[x], func(e edge) bool { return int32(e.peer.ID) == y })
	}
	x := slices.IndexFunc(m.Devices(), func(d *Device) bool {
		x := int32(d.ID)
		if x == e.dev || linked(x, e.dev) {
			return false
		}
		for ; x >= 0; x = sr.pred(m.base, x) { // a chain to src that avoids e.dev
			if x == e.dev {
				return false
			}
			if x == int32(src.ID) {
				return true
			}
		}
		return false
	})
	if x < 0 {
		t.Fatalf("no device off %s's tree path can stand in as an unlinked predecessor", m.Devices()[e.dev])
	}
	e.pred = int32(x)
	if !panics(func() { m.Path(src, m.Devices()[e.dev]) }) {
		t.Fatalf("Path through a diff entry with an unlinked predecessor did not panic")
	}
}

// portOf returns the port an endpoint hangs off.
func portOf(m *Machine, d *Device) *Device {
	for _, e := range m.adj[d.ID] {
		if e.peer.Kind == KindPort {
			return e.peer
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

// TestRouteStorageLinearInRoutes pins that the route cache grows with
// the routes materialized, not with sources x devices: routing every
// worker <-> memory device pair on the 32-rack machine (576 sources,
// 2,593 devices, 65,536 routes) retains at most 150 B per route, paths
// included. A dense predecessor array per source alone costs ~91 B per
// route here, and dense trees with a map per source retained ~230 B.
// No source's tree differs from the base tree in more than 16 devices.
func TestRouteStorageLinearInRoutes(t *testing.T) {
	m := rackMachine32()
	pairs := workerDevPairs(m)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, p := range pairs {
		m.Path(p[0], p[1])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRoute := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(len(pairs))
	t.Logf("%d routes retain %.1f B each", len(pairs), perRoute)
	if perRoute > 150 {
		t.Errorf("%d routes retain %.1f B each, want at most 150", len(pairs), perRoute)
	}
	for id, i := range m.source {
		if i > 0 && len(m.routes[i-1].diff) > 16 {
			t.Errorf("source %s: tree differs from the base in %d devices, want at most 16", m.Devices()[id], len(m.routes[i-1].diff))
		}
	}
	runtime.KeepAlive(m)
}

// BenchmarkPathMaterialize routes every worker <-> memory device pair on
// a fresh 32-rack machine: one tree per source and one path per pair.
func BenchmarkPathMaterialize(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		b.StopTimer()
		m := rackMachine32()
		pairs := workerDevPairs(m)
		b.StartTimer()
		for _, p := range pairs {
			m.Path(p[0], p[1])
		}
	}
}

// BenchmarkPathLookup looks up cached worker <-> memory device routes
// on the 32-rack machine in the order a run asks for them; one op is
// one lookup. The lookups a scale-512 COARSE cell makes, recorded, take
// three shapes, all replayed here: a source sweeping its destinations
// in ascending order (the profiler measures each worker against every
// memory device, looking each route up twice), a memory device sweeping
// the workers, and one destination reached from every source in turn.
func BenchmarkPathLookup(b *testing.B) {
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
		m.Path(p[0], p[1])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		p := order[i%len(order)]
		pathSink = m.Path(p[0], p[1])
	}
}

// pathSink keeps the benchmarked lookups from being optimized away.
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

// TestRouteQueriesDoNotCache pins that PathLatency and PathBandwidth
// read the route without materializing it, on every ordered endpoint
// pair of every preset and of the 32-rack machine, one source at a
// time: a sweep of queries from a source allocates nothing once its
// tree exists and leaves the route count at zero; each query agrees
// with the materialized path; and after ReleaseRoutes, Path rebuilds
// the same channel sequence and returns one slice per pair again.
func TestRouteQueriesDoNotCache(t *testing.T) {
	machines := []*Machine{rackMachine32()}
	for _, spec := range append(Presets(), AWSV100NVLink()) {
		machines = append(machines, Build(sim.NewEngine(), spec))
	}
	for _, m := range machines {
		ends := endpoints(m)
		lat := make([]sim.Time, len(ends))
		bw := make([]float64, len(ends))
		paths := make([][]*fabric.Channel, len(ends))
		for _, a := range ends {
			query := func() {
				for i, b := range ends {
					if b != a {
						lat[i], bw[i] = m.PathLatency(a, b), m.PathBandwidth(a, b)
					}
				}
			}
			if allocs := testing.AllocsPerRun(1, query); allocs != 0 {
				t.Fatalf("%s: queries from %s allocated %.0f objects, want 0", m.Label, a, allocs)
			}
			if n := m.CachedRoutes(); n != 0 {
				t.Fatalf("%s: queries from %s cached %d routes", m.Label, a, n)
			}
			for i, b := range ends {
				if b == a {
					continue
				}
				p := m.Path(a, b)
				minCap := p[0].Capacity()
				for _, c := range p {
					minCap = min(minCap, c.Capacity())
				}
				if want := fabric.PathLatency(p); lat[i] != want {
					t.Fatalf("%s: %s -> %s: PathLatency %v, path %v", m.Label, a, b, lat[i], want)
				}
				if bw[i] != minCap {
					t.Fatalf("%s: %s -> %s: PathBandwidth %v, path minimum %v", m.Label, a, b, bw[i], minCap)
				}
				paths[i] = p
			}
			m.ReleaseRoutes()
			if n := m.CachedRoutes(); n != 0 {
				t.Fatalf("%s: %d routes cached after ReleaseRoutes", m.Label, n)
			}
			for i, b := range ends {
				if b == a {
					continue
				}
				p := m.Path(a, b)
				if !slices.Equal(p, paths[i]) {
					t.Fatalf("%s: %s -> %s: path %v after ReleaseRoutes, %v before", m.Label, a, b, names(p), names(paths[i]))
				}
				if q := m.Path(a, b); &q[0] != &p[0] {
					t.Fatalf("%s: %s -> %s: repeated Path calls after ReleaseRoutes return different slices", m.Label, a, b)
				}
			}
			m.ReleaseRoutes()
		}
	}
}

// TestReleaseRoutesPanicsWhileBusy: releasing routes under a flow in
// flight would split later same-pair transfers from its path.
func TestReleaseRoutesPanicsWhileBusy(t *testing.T) {
	m := Build(sim.NewEngine(), AWSV100())
	m.Transfer(m.Workers[0], m.Devs[0], 1<<20, nil)
	if !panics(m.ReleaseRoutes) {
		t.Fatal("ReleaseRoutes with a flow in flight did not panic")
	}
	m.Eng.Run()
	m.ReleaseRoutes()
}
