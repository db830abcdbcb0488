// Package profiler implements COARSE's communication profiler (paper
// Section III-E): before training, it measures each client's latency and
// bandwidth to every proxy by running probe transfers through the
// simulated fabric, then derives the routing table — the
// latency-friendly proxy (LatProxy), the bandwidth-friendly proxy
// (BwProxy), the size threshold S where their transfer times cross, and
// the partition shard size S' (the smallest probe size that reaches full
// bandwidth to the BwProxy).
//
// Probes are timed through the fabric, so anything it models — the
// AWS V100 anti-locality, the T4 machine's bounced copies — shows up in
// the measurements rather than being asserted. But the first direct
// probe of each route class and size is simulated, and the rest replay
// its footprint. A route class is the routes whose hops have the same
// capacities and latencies in the same order.
//
// The replay is exact. A direct probe on an idle engine and fabric is
// one DMA set-up followed by one lone flow, so everything it does is a
// function of its route's class and its size: its set-up and latency
// phases, its rate (the smallest capacity along the route, since
// nothing else is live), its completion deadline, the events it
// dispatches, the ranks it consumes, the fabric's passes and counters,
// and the two accounting folds on each route channel.
// fabric.Network.RecordSolo keeps a class and size only when the
// simulated probe left, bit for bit, what that closed form says, and
// fabric.Network.ReplaySolo writes the same state for every repeat, so
// the engine, the fabric and the telemetry cannot tell a replayed probe
// from a simulated one. Bounced copies (machines without peer-to-peer
// DMA) are several flows in a pipeline and always simulate, as does a
// probe issued while the engine or fabric is busy, or of a size that is
// not a power of two.
package profiler

import (
	"fmt"
	"math/bits"

	"coarse/internal/cci"
	"coarse/internal/fabric"
	"coarse/internal/sim"
	"coarse/internal/topology"
)

// DefaultSaturationFrac is the fraction of peak bandwidth that counts
// as "saturated" when locating the partition shard size S'. Both the
// probing profiler (New) and the analytic fallback (AnalyticTable) use
// it, so the two paths agree on what full bandwidth means.
const DefaultSaturationFrac = 0.9

// Measurement is one client→proxy profile row.
type Measurement struct {
	Proxy     int      // index into the proxies slice
	Latency   sim.Time // completion time of a minimal probe
	Bandwidth float64  // achieved bytes/sec on a large probe
}

// Table is a client's routing table: the three entries of paper
// Section III-E plus the shard size for tensor partitioning.
type Table struct {
	LatProxy       int
	BwProxy        int
	ThresholdBytes int64
	PartitionBytes int64
	Measurements   []Measurement
}

// NonUniform reports whether this client sees different best proxies
// for latency and bandwidth — the condition under which routing helps.
func (t Table) NonUniform() bool { return t.LatProxy != t.BwProxy }

// Route returns the proxy index a tensor of size bytes should go to.
func (t Table) Route(size int64) int {
	if size > t.ThresholdBytes {
		return t.BwProxy
	}
	return t.LatProxy
}

// Profiler issues probe transfers over a CCI fabric. It must run while
// the engine is otherwise idle (offline profiling); it drives the engine
// itself to measure completion times.
type Profiler struct {
	Fabric *cci.Fabric
	// LatProbeBytes sizes the latency probe; small enough that transfer
	// time is dominated by fixed costs.
	LatProbeBytes int64
	// BwProbeBytes sizes the bandwidth probe; large enough to saturate.
	BwProbeBytes int64
	// SweepSizes are the probe sizes used to locate the threshold S and
	// partition size S'.
	SweepSizes []int64
	// SaturationFrac defines "full bandwidth" for the S' search.
	SaturationFrac float64

	// done is the running probe's completion time, which onDone (bound
	// once to p.finish) records, so a probe allocates no closure.
	done   sim.Time
	onDone func()

	// bws is findPartitionSize's per-size bandwidth scratch, kept
	// across tables.
	bws []float64

	// The probe memo (see probe): the route classes met so far, their
	// signatures back to back in hops, the counters a recorded probe
	// adds, and the last two routes probed, recent[0] the latest, since
	// tables probe one pair back to back. noMemo simulates every probe;
	// probes and replayed count them.
	classes          []routeClass
	hops             []hop
	solo             fabric.Solo
	recorded         bool
	recent           [2]routeSlot
	noMemo           bool
	probes, replayed int
}

// routeClass is the routes whose hops have the same capacities and
// latencies in the same order, hops[lo:hi], and the probe sizes whose
// simulation over one of them matched the closed form: bit k of sizes
// stands for a probe of 1<<k bytes.
type routeClass struct {
	lo, hi int32
	sizes  uint64
}

type hop struct {
	capacity float64
	latency  sim.Time
}

// routeSlot is a walked src→dst route, the machine's link count when
// it was walked (a link added since may change it), and the index of
// its class in Profiler.classes, -1 until looked up.
type routeSlot struct {
	src, dst     *topology.Device
	route        []*fabric.Channel
	links, class int
}

// New returns a profiler with the paper's probe ladder (4 KiB ... 64 MiB).
func New(f *cci.Fabric) *Profiler {
	var sweep []int64
	for s := int64(4 << 10); s <= 64<<20; s <<= 1 {
		sweep = append(sweep, s)
	}
	return &Profiler{
		Fabric:         f,
		LatProbeBytes:  4 << 10,
		BwProbeBytes:   64 << 20,
		SweepSizes:     sweep,
		SaturationFrac: DefaultSaturationFrac,
	}
}

// probe runs one transfer and returns its completion time. A direct
// probe issued on an idle engine and fabric replays when a probe of its
// size over its route's class was recorded (see the package comment);
// otherwise it simulates, and the first simulation of a class and size
// is recorded if it matches the closed form. Sizes are recorded by
// their log2, so only power-of-two sizes, which the default ladder is
// made of, replay.
func (p *Profiler) probe(src, dst *topology.Device, size int64) sim.Time {
	f := p.Fabric
	eng, net := f.Topo.Eng, f.Topo.Net
	if eng.PendingForeground() != 0 {
		// Daemon events (telemetry sampling ticks) are pure observers and
		// don't disqualify the engine from offline profiling.
		panic("profiler: engine busy; offline profiling requires an idle engine")
	}
	p.probes++
	if p.noMemo || size <= 0 || size&(size-1) != 0 || !f.Direct(src, dst) || eng.Pending() != 0 || !net.Idle() {
		return p.simulate(src, dst, size)
	}
	bit := uint64(1) << bits.TrailingZeros64(uint64(size))
	slot := p.routeOf(src, dst)
	c := p.classOf(slot)
	t0 := eng.Now()
	start := t0 + f.Params.DMASetup
	if c.sizes&bit != 0 {
		p.replayed++
		f.AccountDMA(src, dst, size)
		return net.ReplaySolo(slot.route, float64(size), start, p.solo) - t0
	}
	mark := net.MarkSolo(slot.route)
	dt := p.simulate(src, dst, size)
	// Every recorded probe adds the same counters; one that does not
	// stays simulated.
	if s, ok := net.RecordSolo(mark, float64(size), start); ok && (!p.recorded || s == p.solo) {
		p.solo, p.recorded = s, true
		c.sizes |= bit
	}
	return dt
}

// simulate runs one probe through the engine and returns its
// completion time.
func (p *Profiler) simulate(src, dst *topology.Device, size int64) sim.Time {
	eng := p.Fabric.Topo.Eng
	if p.onDone == nil {
		p.onDone = p.finish
	}
	start := eng.Now()
	p.done = -1
	p.Fabric.DMACopy(src, dst, size, p.onDone)
	eng.Run()
	if p.done < 0 {
		panic(fmt.Sprintf("profiler: probe %s->%s never completed", src, dst))
	}
	return p.done - start
}

// routeOf returns the src→dst route's slot as recent[0], walking the
// route into the older slot unless one of the two holds it already.
func (p *Profiler) routeOf(src, dst *topology.Device) *routeSlot {
	links := len(p.Fabric.Topo.Net.Links())
	holds := func(s *routeSlot) bool { return s.src == src && s.dst == dst && s.links == links }
	if holds(&p.recent[0]) {
		return &p.recent[0]
	}
	p.recent[0], p.recent[1] = p.recent[1], p.recent[0]
	s := &p.recent[0]
	if !holds(s) {
		s.src, s.dst, s.links, s.class = src, dst, links, -1
		s.route = p.Fabric.Topo.AppendPath(s.route[:0], src, dst)
	}
	return s
}

// classOf returns the class of the slot's route, adding one when no
// class matches. The slot's class is checked first, and every lookup
// compares the hops' live capacities, so a capacity changed since the
// route was last probed moves it to the class it now belongs to.
func (p *Profiler) classOf(s *routeSlot) *routeClass {
	if s.class >= 0 && p.matches(s.class, s.route) {
		return &p.classes[s.class]
	}
	for i := range p.classes {
		if p.matches(i, s.route) {
			s.class = i
			return &p.classes[i]
		}
	}
	lo := len(p.hops)
	for _, ch := range s.route {
		p.hops = append(p.hops, hop{ch.Capacity(), ch.Latency()})
	}
	p.classes = append(p.classes, routeClass{lo: int32(lo), hi: int32(len(p.hops))})
	s.class = len(p.classes) - 1
	return &p.classes[s.class]
}

// matches reports whether route belongs to class i.
func (p *Profiler) matches(i int, route []*fabric.Channel) bool {
	c := p.classes[i]
	sig := p.hops[c.lo:c.hi]
	if len(route) != len(sig) {
		return false
	}
	for j, ch := range route {
		if ch.Capacity() != sig[j].capacity || ch.Latency() != sig[j].latency {
			return false
		}
	}
	return true
}

// finish records the running probe's completion time.
func (p *Profiler) finish() { p.done = p.Fabric.Topo.Eng.Now() }

// Measure profiles one client against one proxy endpoint.
func (p *Profiler) Measure(client, proxy *topology.Device) Measurement {
	lat := p.probe(client, proxy, p.LatProbeBytes)
	big := p.probe(client, proxy, p.BwProbeBytes)
	return Measurement{
		Latency:   lat,
		Bandwidth: float64(p.BwProbeBytes) / big.ToSeconds(),
	}
}

// Sweep returns the probe completion time per size from client to proxy;
// the Figure 15 series.
func (p *Profiler) Sweep(client, proxy *topology.Device) []sim.Time {
	times := make([]sim.Time, len(p.SweepSizes))
	for i, s := range p.SweepSizes {
		times[i] = p.probe(client, proxy, s)
	}
	return times
}

// BuildTable profiles a client against every proxy and assembles its
// routing table.
func (p *Profiler) BuildTable(client *topology.Device, proxies []*topology.Device) Table {
	if len(proxies) == 0 {
		panic("profiler: no proxies")
	}
	t := Table{Measurements: make([]Measurement, 0, len(proxies))}
	for i, proxy := range proxies {
		m := p.Measure(client, proxy)
		m.Proxy = i
		t.Measurements = append(t.Measurements, m)
		if m.Latency < t.Measurements[t.LatProxy].Latency {
			t.LatProxy = i
		}
		if m.Bandwidth > t.Measurements[t.BwProxy].Bandwidth {
			t.BwProxy = i
		}
	}
	t.ThresholdBytes = p.findThreshold(client, proxies[t.LatProxy], proxies[t.BwProxy], t)
	t.PartitionBytes = p.findPartitionSize(client, proxies[t.BwProxy])
	return t
}

// findThreshold locates the size S where T_LatProxy(S) = T_BwProxy(S)
// by sweeping probe sizes; below S the LatProxy is faster.
func (p *Profiler) findThreshold(client, latProxy, bwProxy *topology.Device, t Table) int64 {
	if latProxy == bwProxy {
		// One proxy wins both ways: route everything there. The
		// threshold is irrelevant; keep every tensor on the LatProxy.
		return 1 << 62
	}
	for _, size := range p.SweepSizes {
		tLat := p.probe(client, latProxy, size)
		tBw := p.probe(client, bwProxy, size)
		if tBw <= tLat {
			return size
		}
	}
	return 1 << 62
}

// AnalyticTable derives a routing table from the fabric's zero-load
// characteristics without issuing probes, using DefaultSaturationFrac
// for the partition-size search. COARSE's periodic re-profiling
// (Section III-E "dynamic profiling") uses it mid-training, when
// offline probing would perturb live traffic.
func AnalyticTable(f *cci.Fabric, client *topology.Device, proxies []*topology.Device) Table {
	return AnalyticTableFrac(f, client, proxies, DefaultSaturationFrac)
}

// AnalyticTableFrac is AnalyticTable with an explicit saturation
// fraction, matching a probing Profiler's SaturationFrac so analytic
// and probed tables can be compared like for like.
func AnalyticTableFrac(f *cci.Fabric, client *topology.Device, proxies []*topology.Device, saturationFrac float64) Table {
	if len(proxies) == 0 {
		panic("profiler: no proxies")
	}
	t := Table{Measurements: make([]Measurement, 0, len(proxies))}
	for i, proxy := range proxies {
		lat, bw := f.Topo.ZeroLoad(client, proxy)
		m := Measurement{Proxy: i, Latency: f.Params.DMASetup + lat, Bandwidth: bw}
		if !f.Topo.P2PSupported {
			// Bounced copies take two hops through host memory: both
			// legs' latencies and setups accrue, the slower leg binds
			// the pipelined bandwidth, and the direct path is unused.
			cpu := f.Topo.CPUs[client.Node]
			upLat, up := f.Topo.ZeroLoad(client, cpu)
			downLat, down := f.Topo.ZeroLoad(cpu, proxy)
			m.Bandwidth = up
			if down < m.Bandwidth {
				m.Bandwidth = down
			}
			m.Latency = 2*f.Params.DMASetup + upLat + downLat
		}
		t.Measurements = append(t.Measurements, m)
		if m.Latency < t.Measurements[t.LatProxy].Latency {
			t.LatProxy = i
		}
		if m.Bandwidth > t.Measurements[t.BwProxy].Bandwidth {
			t.BwProxy = i
		}
	}
	lat := t.Measurements[t.LatProxy]
	bw := t.Measurements[t.BwProxy]
	if t.LatProxy == t.BwProxy || bw.Bandwidth <= lat.Bandwidth {
		t.ThresholdBytes = 1 << 62
	} else {
		// Solve latL + s/bwL = latB + s/bwB for s.
		dLat := (bw.Latency - lat.Latency).ToSeconds()
		dInv := 1/lat.Bandwidth - 1/bw.Bandwidth
		t.ThresholdBytes = int64(dLat / dInv)
	}
	t.PartitionBytes = f.Params.DMASaturationSize(bw.Bandwidth, saturationFrac)
	return t
}

// findPartitionSize returns the smallest probed size that achieves
// SaturationFrac of the best measured bandwidth to the BwProxy.
func (p *Profiler) findPartitionSize(client, bwProxy *topology.Device) int64 {
	best := 0.0
	if len(p.bws) < len(p.SweepSizes) {
		p.bws = make([]float64, len(p.SweepSizes))
	}
	bws := p.bws[:len(p.SweepSizes)]
	for i, size := range p.SweepSizes {
		dt := p.probe(client, bwProxy, size)
		bws[i] = float64(size) / dt.ToSeconds()
		if bws[i] > best {
			best = bws[i]
		}
	}
	for i, bw := range bws {
		if bw >= p.SaturationFrac*best {
			return p.SweepSizes[i]
		}
	}
	return p.SweepSizes[len(p.SweepSizes)-1]
}
