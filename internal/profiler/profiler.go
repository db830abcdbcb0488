// Package profiler implements COARSE's communication profiler (paper
// Section III-E): before training, it measures each client's latency and
// bandwidth to every proxy by running probe transfers through the
// simulated fabric, then derives the routing table — the
// latency-friendly proxy (LatProxy), the bandwidth-friendly proxy
// (BwProxy), the size threshold S where their transfer times cross, and
// the partition shard size S' (the smallest probe size that reaches full
// bandwidth to the BwProxy).
//
// Probes are real timed operations, so anything the fabric models — the
// AWS V100 anti-locality, the T4 machine's bounced copies — shows up in
// the measurements rather than being asserted.
package profiler

import (
	"fmt"

	"coarse/internal/cci"
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

// probe runs one transfer and returns its completion time.
func (p *Profiler) probe(src, dst *topology.Device, size int64) sim.Time {
	eng := p.Fabric.Topo.Eng
	if eng.PendingForeground() != 0 {
		// Daemon events (telemetry sampling ticks) are pure observers and
		// don't disqualify the engine from offline profiling.
		panic("profiler: engine busy; offline profiling requires an idle engine")
	}
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
