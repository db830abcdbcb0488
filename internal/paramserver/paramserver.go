// Package paramserver implements the two centralized baselines the
// paper compares against.
//
// CentralPS is the conventional parameter server on the host CPU
// (Section II-B): every worker pushes gradients up through the host
// bridge and pulls parameters back down, so the CPU's serial-bus lanes
// — shared by all workers — are the structural bottleneck.
//
// DENSE is the paper's naive disaggregated design (Figure 5): the
// parameter server runs on a single CCI memory device, workers keep
// CCI-coherent parameter caches, and all traffic rides the CCI
// load/store path whose line-rate bandwidth the prototype measured at
// around 1 GB/s — further discounted by coherence traffic as more
// workers share the parameter region (Section III-D). DENSE is the
// normalization baseline of Figures 16 and 17.
package paramserver

import (
	"fmt"

	"coarse/internal/model"
	"coarse/internal/sim"
	"coarse/internal/telemetry"
	"coarse/internal/topology"
	"coarse/internal/train"
)

// psUpdateBytesPerSec is CentralPS's server-side aggregation rate:
// memory-bound, 30 GB/s.
const psUpdateBytesPerSec float64 = 30e9

// CentralPS is the host-CPU parameter server baseline.
type CentralPS struct {
	// Shards selects the server placement. 0 keeps the historical
	// behavior: every node's own host CPU aggregates its workers'
	// gradients (the single-node reading of Section II-B, where
	// "central" and "local" coincide). Shards >= 1 places that many
	// true central servers on evenly spread nodes' host CPUs, with
	// layer l served by server l mod Shards — on a multi-node machine
	// every worker's push now crosses the network toward the server,
	// which is exactly the incast bottleneck the paper's Section IV
	// scaling argument is about. Each server aggregates serially at
	// psUpdateBytesPerSec.
	Shards int

	ctx *train.Ctx
	// arrived counts each (layer, reduction tree) pair's pushes landed
	// this iteration, indexed by treeIndex. A tree member's next push of
	// a layer waits for its pull of the current one, so one count per
	// pair serves every iteration.
	arrived []int
	ops     *sim.FreeList[psOp]
	servers []*psServer // nil in the Shards == 0 legacy mode

	pushes, pulls *telemetry.Counter
}

// psServer is one true-central aggregation point: a host CPU plus the
// virtual time its serial aggregation pipeline is busy until.
type psServer struct {
	cpu  *topology.Device
	free sim.Time
}

// treeIndex flattens a (layer, reduction tree) pair.
func treeIndex(ctx *train.Ctx, layer, gid int) int {
	return layer*len(ctx.Plan().Groups()) + gid
}

// NewCentralPS returns the baseline.
func NewCentralPS() *CentralPS {
	return &CentralPS{}
}

// Name implements train.Strategy.
func (s *CentralPS) Name() string { return "CentralPS" }

// WorkerStateBytes implements train.Strategy: workers keep parameters
// and gradients; optimizer state lives on the server.
func (s *CentralPS) WorkerStateBytes(m *model.Model) int64 { return 2 * m.ParamBytes() }

// Setup implements train.Strategy.
func (s *CentralPS) Setup(ctx *train.Ctx) error {
	s.ctx = ctx
	s.arrived = make([]int, len(ctx.Layers())*len(ctx.Plan().Groups()))
	s.ops = sim.NewFreeList[psOp](ctx.Eng)
	s.pushes = ctx.Cfg.Telemetry.Counter("ps/pushes", "ops")
	s.pulls = ctx.Cfg.Telemetry.Counter("ps/pulls", "ops")
	if s.Shards >= 1 {
		nodes := len(ctx.Machine.CPUs)
		for si := 0; si < s.Shards; si++ {
			s.servers = append(s.servers, &psServer{cpu: ctx.Machine.CPUs[si*nodes/s.Shards]})
		}
		reg := ctx.Cfg.Telemetry
		if reg != nil {
			for si, srv := range s.servers {
				srv := srv
				reg.GaugeFunc(fmt.Sprintf("ps/server%d/backlog_ns", si), "ns", func() float64 {
					backlog := srv.free - ctx.Eng.Now()
					if backlog < 0 {
						return 0
					}
					return float64(backlog)
				})
			}
		}
	}
	return nil
}

// GradientReady implements train.Strategy: push to the CPU; once every
// member of the layer's reduction tree arrives the server updates and
// pushes back. On the data-parallel layout the single tree is every
// worker and the volume is the full tensor.
func (s *CentralPS) GradientReady(it, w, layer int) {
	ctx := s.ctx
	plan := ctx.Plan()
	cpu := ctx.Machine.CPUs[ctx.Workers[w].Dev.Node]
	var srv *psServer
	if len(s.servers) > 0 {
		srv = s.servers[layer%len(s.servers)]
		cpu = srv.cpu
	}
	s.pushes.Inc()
	op := s.newOp(it, layer, plan.GroupID(w, layer), w, plan.SyncBytes(layer))
	op.srv, op.cpu = srv, cpu
	ctx.CCI.DMACopy(ctx.Workers[w].Dev, cpu, op.size, op.pushed)
}

// psOp is one push, update or pull in flight. Its callbacks are bound
// once per object, and the record is recycled as its last callback
// runs.
type psOp struct {
	s                 *CentralPS
	it, layer, gid, w int
	size              int64
	srv               *psServer
	cpu               *topology.Device

	pushed, apply, pulled, awake func()
}

func (s *CentralPS) newOp(it, layer, gid, w int, size int64) *psOp {
	op := s.ops.Get()
	if op == nil {
		op = &psOp{s: s}
		op.pushed = op.onPushed
		op.apply = op.onApply
		op.pulled = op.onPulled
		op.awake = op.onAwake
	}
	op.it, op.layer, op.gid, op.w, op.size = it, layer, gid, w, size
	return op
}

// onPushed counts a landed push; the tree's last one schedules the
// server's update.
func (op *psOp) onPushed() {
	s := op.s
	ctx := s.ctx
	arrived := &s.arrived[treeIndex(ctx, op.layer, op.gid)]
	*arrived++
	if *arrived < len(ctx.Plan().GroupMembers(op.gid)) {
		s.ops.Put(op)
		return
	}
	*arrived = 0
	update := sim.Seconds(float64(op.size) / psUpdateBytesPerSec)
	srv := op.srv
	if srv == nil {
		ctx.Eng.Schedule(update, op.apply)
		return
	}
	// True-central mode: the server CPU aggregates serially — a
	// layer's update queues behind whatever the server is already
	// applying (the compute half of the incast bottleneck).
	start := ctx.Eng.Now()
	if srv.free > start {
		start = srv.free
	}
	srv.free = start + update
	ctx.Eng.At(srv.free, op.apply)
}

// onApply pushes the updated parameters back to every tree member.
func (op *psOp) onApply() {
	s, it, layer, gid, size, srv, cpu := op.s, op.it, op.layer, op.gid, op.size, op.srv, op.cpu
	s.ops.Put(op)
	ctx := s.ctx
	// The push-back fan is emitted in one burst: pulls sharing a source
	// CPU, route, and size can ride one aggregated flow (workers on
	// distinct devices route differently and simply stay separate).
	for _, dst := range ctx.Plan().GroupMembers(gid) {
		dstCPU := cpu
		if srv == nil {
			dstCPU = ctx.Machine.CPUs[ctx.Workers[dst].Dev.Node]
		}
		s.pulls.Inc()
		pull := s.newOp(it, layer, gid, dst, size)
		ctx.CCI.DMACopy(dstCPU, ctx.Workers[dst].Dev, size, pull.pulled)
	}
}

// onPulled hands a landed pull to its worker. A silenced worker cannot
// accept it; the hand-off defers until it wakes. Other workers' pulls
// proceed independently.
func (op *psOp) onPulled() { op.s.ctx.RunAwake(op.awake, op.w) }

func (op *psOp) onAwake() {
	s, it, w, layer := op.s, op.it, op.w, op.layer
	s.ops.Put(op)
	s.ctx.MarkReady(it, w, layer)
}

// pipe is a FIFO serial resource with a fixed byte rate: the CCI
// load/store port of the DENSE device. All transfers through the port
// queue behind each other, each paying a fixed per-request service time
// (the on-device generalized processor handles every push/pull).
type pipe struct {
	ctx   *train.Ctx
	rate  float64
	perOp sim.Time
	free  sim.Time
}

// transfer enqueues one port transaction on behalf of a worker. The
// port is FIFO and coherent: a load/store makes no progress while its
// worker's cache agent is chaos-silenced, so service time pauses
// through the worker's silent windows, and every queued transaction
// behind it waits — the head-of-line blocking that makes a
// single-device synchronous design fragile under transient faults.
// Without chaos the service pause is an identity and the bytes are
// unchanged.
func (p *pipe) transfer(worker int, size int64, onDone func()) {
	now := p.ctx.Eng.Now()
	start := p.free
	if now > start {
		start = now
	}
	service := p.perOp + sim.Seconds(float64(size)/p.rate)
	finish := p.ctx.ChaosService(worker, start, service)
	p.free = finish
	p.ctx.Eng.At(finish, onDone)
}

// DENSE's generalized-processor figures.
const (
	// denseProcessorBytesPerSec is the on-device generalized processor's
	// aggregation rate, ARM-class 2 GB/s; the paper's ARM cores are
	// slow, which is what motivated the sync cores (Section IV-A).
	denseProcessorBytesPerSec float64 = 2e9
	// denseRequestOverhead is the per-push/pull service time on the
	// generalized processor, 0.5 ms; it dominates for models with many
	// small tensors (ResNet's BN parameters).
	denseRequestOverhead sim.Time = 500_000
)

// DENSE is the naive single-device CCI parameter server.
type DENSE struct {
	// Shards gives the design k independent memory devices, each with
	// its own port pair and generalized processor, serving layer
	// l ≡ s (mod k). 0 or 1 is the paper's single-device DENSE; the
	// multi-device variant is the apples-to-apples baseline for
	// sharded COARSE (every worker still shares every port with every
	// other worker, so coherence overhead is unchanged — only the FIFO
	// fan-in per port drops).
	Shards int

	ctx *train.Ctx
	// arrived counts pushes per (layer, reduction tree) this iteration,
	// indexed by treeIndex, as in CentralPS.
	arrived []int
	ops     *sim.FreeList[denseOp]
	// Per-device CCI ports, one pair per shard (a single pair in the
	// paper's configuration). Coherence overhead scales with the number
	// of workers sharing the region.
	writePorts []*pipe
	readPorts  []*pipe

	pushes, pulls, pushBytes, pullBytes *telemetry.Counter
}

// NewDENSE returns the baseline.
func NewDENSE() *DENSE {
	return &DENSE{}
}

// Name implements train.Strategy.
func (s *DENSE) Name() string { return "DENSE" }

// WorkerStateBytes implements train.Strategy: the GPU keeps its CCI
// parameter cache and gradients; global parameters and optimizer state
// live on the memory device.
func (s *DENSE) WorkerStateBytes(m *model.Model) int64 { return 2 * m.ParamBytes() }

// Setup implements train.Strategy.
func (s *DENSE) Setup(ctx *train.Ctx) error {
	s.ctx = ctx
	s.arrived = make([]int, len(ctx.Layers())*len(ctx.Plan().Groups()))
	s.ops = sim.NewFreeList[denseOp](ctx.Eng)
	p := ctx.Cfg.CCIParams
	sharers := ctx.NumWorkers()
	k := s.Shards
	if k < 1 {
		k = 1
	}
	for si := 0; si < k; si++ {
		s.writePorts = append(s.writePorts,
			&pipe{ctx: ctx, perOp: denseRequestOverhead, rate: p.SharingPenalty(p.LoadStoreBandwidth(true), sharers)})
		s.readPorts = append(s.readPorts,
			&pipe{ctx: ctx, perOp: denseRequestOverhead, rate: p.SharingPenalty(p.LoadStoreBandwidth(false), sharers)})
	}
	reg := ctx.Cfg.Telemetry
	s.pushes = reg.Counter("dense/pushes", "ops")
	s.pulls = reg.Counter("dense/pulls", "ops")
	s.pushBytes = reg.Counter("dense/push_bytes", "B")
	s.pullBytes = reg.Counter("dense/pull_bytes", "B")
	if reg != nil {
		// Port backlog: virtual time until the FIFO port drains — the
		// queueing the shared load/store port builds up under Figure 5's
		// all-workers-one-device contention. Single-device series keep
		// the historical names; the sharded variant prefixes each
		// device.
		for si := 0; si < k; si++ {
			wName, rName := "dense/write_port/backlog_ns", "dense/read_port/backlog_ns"
			if k > 1 {
				wName = fmt.Sprintf("dense/dev%d/write_port/backlog_ns", si)
				rName = fmt.Sprintf("dense/dev%d/read_port/backlog_ns", si)
			}
			for _, pd := range []struct {
				name string
				p    *pipe
			}{{wName, s.writePorts[si]}, {rName, s.readPorts[si]}} {
				pipe := pd.p
				reg.GaugeFunc(pd.name, "ns", func() float64 {
					backlog := pipe.free - ctx.Eng.Now()
					if backlog < 0 {
						return 0
					}
					return float64(backlog)
				})
			}
		}
	}
	return nil
}

// PortRate exposes a port's coherence-discounted byte rate; tests
// validate it against the coherence protocol's measured overhead.
func (s *DENSE) PortRate(write bool) float64 {
	if write {
		return s.writePorts[0].rate
	}
	return s.readPorts[0].rate
}

// GradientReady implements train.Strategy.
func (s *DENSE) GradientReady(it, w, layer int) {
	plan := s.ctx.Plan()
	op := s.newOp(it, layer, plan.GroupID(w, layer), w, plan.SyncBytes(layer))
	// Push: write into the CCI parameter region through the layer's
	// shared port.
	s.pushes.Inc()
	s.pushBytes.Add(float64(op.size))
	s.writePorts[layer%len(s.writePorts)].transfer(w, op.size, op.pushed)
}

// denseOp is one push, update or pull in flight. Its callbacks are
// bound once per object, and the record is recycled as its last
// callback runs.
type denseOp struct {
	s                 *DENSE
	it, layer, gid, w int
	size              int64

	pushed, updated, pulled func()
}

func (s *DENSE) newOp(it, layer, gid, w int, size int64) *denseOp {
	op := s.ops.Get()
	if op == nil {
		op = &denseOp{s: s}
		op.pushed = op.onPushed
		op.updated = op.onUpdated
		op.pulled = op.onPulled
	}
	op.it, op.layer, op.gid, op.w, op.size = it, layer, gid, w, size
	return op
}

// onPushed counts a landed push; the tree's last one starts the
// generalized processor's update.
func (op *denseOp) onPushed() {
	s := op.s
	ctx := s.ctx
	i := treeIndex(ctx, op.layer, op.gid)
	s.arrived[i]++
	if s.arrived[i] < len(ctx.Plan().GroupMembers(op.gid)) {
		s.ops.Put(op)
		return
	}
	s.arrived[i] = 0
	update := sim.Seconds(float64(op.size) / denseProcessorBytesPerSec)
	ctx.Eng.Schedule(update, op.updated)
}

// onUpdated pulls the updated parameters: each member reads them back
// through its coherent cache and the layer's shared port.
func (op *denseOp) onUpdated() {
	s, it, layer, gid, size := op.s, op.it, op.layer, op.gid, op.size
	s.ops.Put(op)
	ctx := s.ctx
	readPort := s.readPorts[layer%len(s.readPorts)]
	for _, dst := range ctx.Plan().GroupMembers(gid) {
		s.pulls.Inc()
		s.pullBytes.Add(float64(size))
		readPort.transfer(dst, size, s.newOp(it, layer, gid, dst, size).pulled)
	}
}

func (op *denseOp) onPulled() {
	s, it, w, layer := op.s, op.it, op.w, op.layer
	s.ops.Put(op)
	s.ctx.MarkReady(it, w, layer)
}
