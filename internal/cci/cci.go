// Package cci models the cache-coherent interconnect protocol layer: how
// hosts and devices move bytes over the serial-bus fabric, and at what
// effective bandwidth.
//
// Three access modes are modelled, matching the paper's prototype
// profile (Section V-B, Figures 3/13/14):
//
//   - LoadStore: the host CPU issues cache-line load/store instructions
//     into the CCI address space. Throughput is line-rate bound — a small
//     window of outstanding line requests, each paying the protocol round
//     trip — so effective bandwidth is flat across access sizes.
//   - DMA: a device engine moves a descriptor-described block at link
//     speed after a fixed setup overhead. Bandwidth grows with access
//     size and saturates once the payload dwarfs the overhead (the
//     paper's prototype saturates at 2 MiB).
//   - Indirect: device-to-device via a bounce through host memory; the
//     two hops pipeline chunk-by-chunk, so the slower hop binds.
//
// The same parameter set drives both the analytic curves (what the
// figures plot) and the timed operations the training simulator issues,
// so the figures and the end-to-end results cannot drift apart.
package cci

import (
	"fmt"

	"coarse/internal/sim"
	"coarse/internal/telemetry"
	"coarse/internal/topology"
)

// Params calibrates the protocol model. Defaults reproduce the paper's
// FPGA prototype anchors: GPU-Direct read 9-17x over host load/store,
// write 1.25-4x, DMA saturation at 2 MiB.
type Params struct {
	// LineBytes is the coherence/transfer granule of load/store traffic.
	LineBytes int64
	// ReadLineLat / WriteLineLat are protocol round-trip times per line.
	ReadLineLat  sim.Time
	WriteLineLat sim.Time
	// ReadOutstanding / WriteOutstanding bound the number of in-flight
	// line requests (LSQ / write-combining depth).
	ReadOutstanding  int
	WriteOutstanding int
	// DMASetup is the fixed cost of launching one DMA descriptor.
	DMASetup sim.Time
	// CoherencePerSharer is the fraction of extra protocol traffic added
	// per additional device sharing a coherent region; it discounts the
	// bandwidth available to payload (Section III-D).
	CoherencePerSharer float64
	// StageChunks is the pipelining depth of indirect (bounced) copies.
	StageChunks int
}

// DefaultParams returns the calibration used across the evaluation.
func DefaultParams() Params {
	return Params{
		LineBytes:          64,
		ReadLineLat:        850, // ns; uncached device read round trip
		WriteLineLat:       420, // ns; posted writes retire faster
		ReadOutstanding:    10,
		WriteOutstanding:   10,
		DMASetup:           18_000, // 18us descriptor + doorbell
		CoherencePerSharer: 0.15,
		StageChunks:        4,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.LineBytes <= 0:
		return fmt.Errorf("cci: LineBytes %d", p.LineBytes)
	case p.ReadLineLat <= 0 || p.WriteLineLat <= 0:
		return fmt.Errorf("cci: non-positive line latency")
	case p.ReadOutstanding <= 0 || p.WriteOutstanding <= 0:
		return fmt.Errorf("cci: non-positive outstanding window")
	case p.DMASetup < 0:
		return fmt.Errorf("cci: negative DMA setup")
	case p.CoherencePerSharer < 0:
		return fmt.Errorf("cci: negative coherence penalty")
	case p.StageChunks <= 0:
		return fmt.Errorf("cci: StageChunks %d", p.StageChunks)
	}
	return nil
}

// LoadStoreBandwidth returns the flat host load/store throughput in
// bytes/sec: a window of outstanding lines, each paying the round trip.
func (p Params) LoadStoreBandwidth(write bool) float64 {
	lat, out := p.ReadLineLat, p.ReadOutstanding
	if write {
		lat, out = p.WriteLineLat, p.WriteOutstanding
	}
	return float64(p.LineBytes) * float64(out) / lat.ToSeconds()
}

// DMATime returns the time one DMA of size bytes takes at linkBW.
func (p Params) DMATime(size int64, linkBW float64) sim.Time {
	return p.DMASetup + sim.Seconds(float64(size)/linkBW)
}

// DMABandwidth returns the effective DMA throughput for one transfer of
// size bytes over a link of linkBW bytes/sec.
func (p Params) DMABandwidth(size int64, linkBW float64) float64 {
	t := p.DMATime(size, linkBW)
	if t <= 0 {
		return linkBW
	}
	return float64(size) / t.ToSeconds()
}

// IndirectBandwidth returns the effective throughput of a bounced copy:
// a load/store hop between host memory and the CCI device pipelined with
// a DMA hop between host memory and the far device. The slower hop binds
// once the pipeline fills.
func (p Params) IndirectBandwidth(size int64, linkBW float64, write bool) float64 {
	ls := p.LoadStoreBandwidth(write)
	chunk := size / int64(p.StageChunks)
	if chunk <= 0 {
		chunk = size
	}
	dma := p.DMABandwidth(chunk, linkBW)
	if ls < dma {
		return ls
	}
	return dma
}

// SharingPenalty scales a payload bandwidth down for coherence traffic
// when n devices share the region: bw_eff = bw / (1 + c*(n-1)).
func (p Params) SharingPenalty(bw float64, sharers int) float64 {
	if sharers <= 1 {
		return bw
	}
	return bw / (1 + p.CoherencePerSharer*float64(sharers-1))
}

// DMASaturationSize returns the smallest power-of-two access size whose
// effective DMA bandwidth reaches frac of the link rate; the paper's
// prototype reaches 90% at 2 MiB.
func (p Params) DMASaturationSize(linkBW, frac float64) int64 {
	for size := int64(4 << 10); size <= 1<<30; size <<= 1 {
		if p.DMABandwidth(size, linkBW) >= frac*linkBW {
			return size
		}
	}
	return 1 << 30
}

// Fabric issues timed CCI operations over a topology.
type Fabric struct {
	Topo   *topology.Topology
	Params Params

	// Telemetry handles; nil (no-op) until AttachTelemetry is called.
	dmaOps    *telemetry.Counter
	dmaBytes  *telemetry.Counter
	bounceOps *telemetry.Counter
	dmaSizes  *telemetry.Histogram
	dmaEff    *telemetry.Histogram
	portTx    map[*topology.Device]*telemetry.Counter
	portRx    map[*topology.Device]*telemetry.Counter

	// Recycled operation records (see dmaOp and bounceOp).
	directs *sim.FreeList[dmaOp]
	bounces *sim.FreeList[bounceOp]
}

// NewFabric wires the protocol model to a topology.
func NewFabric(t *topology.Topology, p Params) *Fabric {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Fabric{
		Topo:    t,
		Params:  p,
		directs: sim.NewFreeList[dmaOp](t.Eng),
		bounces: sim.NewFreeList[bounceOp](t.Eng),
	}
}

// AttachTelemetry registers the protocol layer's metrics: message
// counts and bytes per access mode, per-port (endpoint) byte counters,
// a DMA access-size histogram, and the protocol-efficiency histogram —
// the fraction of zero-load link bandwidth each DMA's effective
// bandwidth reaches, which is exactly what Figures 13/14 sweep over
// access sizes. Safe to call with a nil registry (no-op handles).
func (f *Fabric) AttachTelemetry(reg *telemetry.Registry) {
	f.dmaOps = reg.Counter("cci/dma/ops", "ops")
	f.dmaBytes = reg.Counter("cci/dma/bytes", "B")
	f.bounceOps = reg.Counter("cci/dma/bounced_ops", "ops")
	// No timed operation moves load/store traffic (Figures 13/14 time it
	// through Prototype.Bandwidth), so these stay zero; they stay
	// registered because dump consumers read them.
	reg.Counter("cci/loadstore/ops", "ops")
	reg.Counter("cci/loadstore/read_bytes", "B")
	reg.Counter("cci/loadstore/write_bytes", "B")
	f.dmaSizes = reg.Histogram("cci/dma/size_bytes", "B",
		telemetry.ExpBuckets(4<<10, 4, 10)) // 4 KiB .. 1 GiB
	f.dmaEff = reg.Histogram("cci/dma/efficiency", "frac",
		telemetry.LinearBuckets(0.1, 0.1, 10)) // 0.1 .. 1.0
	if reg == nil {
		return
	}
	// Per-port byte counters for every addressable endpoint.
	f.portTx = make(map[*topology.Device]*telemetry.Counter)
	f.portRx = make(map[*topology.Device]*telemetry.Counter)
	for _, d := range f.Topo.Devices() {
		switch d.Kind {
		case topology.KindGPU, topology.KindMemDev, topology.KindCPU:
			f.portTx[d] = reg.Counter("cci/port/"+d.Name+"/tx_bytes", "B")
			f.portRx[d] = reg.Counter("cci/port/"+d.Name+"/rx_bytes", "B")
		}
	}
}

// DMACopy moves size bytes from src to dst. On machines with
// peer-to-peer support this is a single DMA over the routed path; on
// machines without it (the paper's T4 instance) the copy bounces through
// CPU memory, pipelined in StageChunks chunks. Copies launched back to
// back with the same src, dst and size (a sharded gradient push, a
// collective phase) reach the fabric as one symmetric fan, which it
// folds into a single group entry.
func (f *Fabric) DMACopy(src, dst *topology.Device, size int64, onDone func()) {
	if size < 0 {
		panic("cci: negative copy size")
	}
	f.AccountDMA(src, dst, size)
	if f.Direct(src, dst) {
		op := f.directs.Get()
		if op == nil {
			op = &dmaOp{f: f}
			op.fire = op.start
		}
		op.src, op.dst, op.size, op.onDone = src, dst, size, onDone
		f.Topo.Eng.Schedule(f.Params.DMASetup, op.fire)
		return
	}
	// Bounce through the CPU on src's node.
	f.bounceOps.Inc()
	op := f.bounces.Get()
	if op == nil {
		op = newBounceOp(f)
	}
	chunks := int64(f.Params.StageChunks)
	op.bounceState = bounceState{
		src: src, cpu: f.Topo.CPUs[src.Node], dst: dst,
		base: size / chunks, rem: size % chunks,
		chunks: chunks, remaining: int(chunks), onDone: onDone,
	}
	if size == 0 {
		op.chunks, op.remaining = 1, 1
	}
	f.Topo.Eng.Schedule(f.Params.DMASetup, op.launch)
}

// AccountDMA records one src→dst copy of size bytes in the protocol
// layer's telemetry: the DMA counters, the size and efficiency
// histograms, and the endpoints' port byte counters. DMACopy calls it
// for every copy; a caller that stands in for a copy without issuing
// it (the profiler's probe replay) calls it instead.
func (f *Fabric) AccountDMA(src, dst *topology.Device, size int64) {
	f.dmaOps.Inc()
	f.dmaBytes.Add(float64(size))
	f.dmaSizes.Observe(float64(size))
	if f.dmaEff != nil {
		if linkBW := f.Topo.PathBandwidth(src, dst); linkBW > 0 {
			f.dmaEff.Observe(f.Params.DMABandwidth(size, linkBW) / linkBW)
		}
	}
	f.portTx[src].Add(float64(size))
	f.portRx[dst].Add(float64(size))
}

// Direct reports whether a src→dst copy is one DMA over the routed
// path: on a machine with peer-to-peer support, or to or from a CPU.
// Any other copy bounces through host memory.
func (f *Fabric) Direct(src, dst *topology.Device) bool {
	return f.Topo.P2PSupported || src.Kind == topology.KindCPU || dst.Kind == topology.KindCPU
}

// dmaOp is a direct DMA waiting out its descriptor set-up. fire is
// bound once per object, so scheduling the set-up allocates nothing;
// the record returns to the free list as it fires.
type dmaOp struct {
	f        *Fabric
	src, dst *topology.Device
	size     int64
	onDone   func()
	fire     func()
}

func (op *dmaOp) start() {
	f, src, dst, size, onDone := op.f, op.src, op.dst, op.size, op.onDone
	op.src, op.dst, op.onDone = nil, nil, nil
	f.directs.Put(op)
	f.Topo.TransferEphemeral(src, dst, size, onDone)
}

// bounceOp is one copy bounced through host memory, from its first
// set-up to its last delivered chunk. Its callbacks are bound once per
// object; the per-copy state is bounceState, zeroed as the record
// returns to the free list.
type bounceOp struct {
	f *Fabric
	bounceState
	launch             func() // after the first set-up: stage every chunk
	stagedHi, stagedLo func() // a large / small chunk reached host memory
	sendHi, sendLo     func() // its delivery set-up is over
	delivered          func() // one chunk reached dst
}

// bounceState is a bounced copy's own state. The staging chunks of one
// copy share a path and differ in size by at most one byte, so the
// fabric folds each size class of a leg into one group entry.
type bounceState struct {
	src, cpu, dst *topology.Device
	base, rem     int64 // chunk size; the first rem chunks carry one byte more
	chunks        int64 // chunks staged: StageChunks, or one for an empty copy
	remaining     int   // chunks not yet delivered
	onDone        func()
}

func newBounceOp(f *Fabric) *bounceOp {
	op := &bounceOp{f: f}
	op.launch = op.stageAll
	op.stagedHi = func() { op.f.Topo.Eng.Schedule(op.f.Params.DMASetup, op.sendHi) }
	op.stagedLo = func() { op.f.Topo.Eng.Schedule(op.f.Params.DMASetup, op.sendLo) }
	op.sendHi = func() { op.deliver(op.base + 1) }
	op.sendLo = func() { op.deliver(op.base) }
	op.delivered = op.chunkDone
	return op
}

func (op *bounceOp) stageAll() {
	for i := int64(0); i < op.chunks; i++ {
		sz, staged := op.base, op.stagedLo
		if i < op.rem {
			sz, staged = sz+1, op.stagedHi
		}
		op.f.Topo.TransferEphemeral(op.src, op.cpu, sz, staged)
	}
}

func (op *bounceOp) deliver(sz int64) {
	op.f.Topo.TransferEphemeral(op.cpu, op.dst, sz, op.delivered)
}

func (op *bounceOp) chunkDone() {
	op.remaining--
	if op.remaining > 0 {
		return
	}
	onDone := op.onDone
	op.bounceState = bounceState{}
	op.f.bounces.Put(op)
	if onDone != nil {
		onDone()
	}
}
