// Package core implements COARSE — the Cache cOherent interconnected
// pARameter SErver (paper Section III).
//
// Each worker GPU runs a parameter client; each memory device runs a
// parameter proxy and a parameter storage. A client hands every
// backward-pass gradient to the synchronization machinery:
//
//   - Dual synchronization (Section III-F) splits the parameter volume:
//     the first m bytes produced by the backward pass (the deep layers)
//     are pushed to proxies and synchronized by the memory devices' sync
//     cores, off the GPUs; the final layers — needed first by the next
//     forward pass — are synchronized immediately on the worker GPUs.
//     m minimizes the paper's Equation (1) iteration-time model.
//
//   - Tensor routing (Section III-E) sends small tensors to the
//     latency-best proxy and large tensors to the bandwidth-best proxy,
//     per the profiler's routing table — on the AWS V100 machine that is
//     a *remote* proxy, exploiting anti-locality.
//
//   - Tensor partitioning splits large tensors into equal shards no
//     smaller than the profiled saturation size, filling both directions
//     of the serial bus with pipelined push/pull traffic (Figure 9).
//
//   - Queue-based synchronization (Section III-F) gives every proxy one
//     queue per client, drained concurrently, which avoids the FCFS
//     head-of-line deadlock of Figure 10. The FCFS mode is implemented
//     too, so the deadlock is demonstrable.
package core

import (
	"fmt"
	"strings"

	"coarse/internal/fabric"
	"coarse/internal/memdev"
	"coarse/internal/model"
	"coarse/internal/profiler"
	"coarse/internal/sim"
	"coarse/internal/topology"
	"coarse/internal/train"
)

// Scheduler selects the proxy's service discipline.
type Scheduler int

// Proxy scheduling disciplines.
const (
	// QueueBased is COARSE's deadlock-free discipline: per-client queues
	// drained concurrently.
	QueueBased Scheduler = iota
	// FCFS serves pushes strictly in arrival order; with crossed routing
	// it deadlocks (paper Figure 10). It exists for the demonstration.
	FCFS
)

// Options toggles COARSE's mechanisms; the ablation benches flip them.
type Options struct {
	// Routing enables bandwidth-aware tensor routing; off routes every
	// tensor to the client's local proxy.
	Routing bool
	// Partitioning enables equal-shard tensor partitioning; off pushes
	// whole tensors.
	Partitioning bool
	// Scheduler picks the proxy service discipline.
	Scheduler Scheduler
	// SyncGroups is the number of parallel sync-core groups.
	SyncGroups int
	// ReprofileEvery re-derives routing tables every N iterations
	// (0 disables); the paper's dynamic profiling.
	ReprofileEvery int
	// MFraction overrides the dual-sync split: the fraction of the
	// parameter volume sent to the proxies. Negative (the default) lets
	// the Equation (1) planner choose; 1 turns dual sync off, sending
	// every layer to the proxies. The ablation benches sweep it.
	MFraction float64
	// Checkpoint snapshots parameter storage at the end of every epoch
	// (here: every EpochIters iterations).
	EpochIters int
	// ProxyCache enables the proxy-side parameter cache of Section
	// III-D: the first pull of a synchronized shard reads it out of
	// storage DRAM into the proxy, subsequent pulls of the same shard
	// hit the cache. Off, every pull pays the storage read.
	ProxyCache bool
	// Shards partitions the parameter space across the machine's CCI
	// memory devices into k independent coherence domains: layer l
	// belongs to domain l mod k, and each domain owns a contiguous
	// slice of the device pool with its own proxies, routing tables,
	// sync groups and parameter storage. This is the scale-out
	// configuration: with pooled devices at rack scale, independent
	// domains keep the pull fan-in per device bounded. 0 or 1 keeps the
	// paper's single-domain design (bit-identical behavior).
	Shards int
}

// DefaultOptions enables the full design.
func DefaultOptions() Options {
	return Options{
		Routing:        true,
		Partitioning:   true,
		Scheduler:      QueueBased,
		SyncGroups:     4,
		ReprofileEvery: 50,
		MFraction:      -1,
		ProxyCache:     true,
	}
}

// Strategy is COARSE's train.Strategy implementation.
type Strategy struct {
	Opts Options

	ctx *train.Ctx
	// shards are the parameter-space partitions (one with Shards <= 1,
	// the paper's design). Layer l lives on shards[l % len(shards)].
	shards []*coarseShard
	// proxySynced[layer] records the dual-sync assignment.
	proxySynced []bool
	mBytes      int64

	iters map[int]*iterState

	// stats
	Reprofiles     int
	PushedToBw     int64 // bytes routed to a non-local bandwidth proxy
	PushedToLat    int64
	GPUSyncedBytes int64
	PullHits       int64 // pulls served from a proxy's parameter cache
	PullMisses     int64 // pulls that had to read storage DRAM first
}

// New returns a COARSE strategy with the given options.
func New(opts Options) *Strategy {
	if opts.SyncGroups < 1 {
		opts.SyncGroups = 1
	}
	return &Strategy{Opts: opts}
}

// Name implements train.Strategy.
func (s *Strategy) Name() string { return "COARSE" }

// WorkerStateBytes implements train.Strategy: the GPU keeps parameters
// and gradients plus the client's in-flight shard queue; optimizer state
// lives in the memory devices' extended storage (that headroom is what
// enables the larger batch in Figure 16e).
func (s *Strategy) WorkerStateBytes(m *model.Model) int64 {
	const clientQueue = 64 << 20
	return 2*m.ParamBytes() + clientQueue
}

type iterState struct {
	// shardArrived counts, per shard key, how many clients' copies have
	// reached the proxies.
	shardArrived map[string]int
	// shardsLeft counts, per (worker, layer), shards not yet pulled back.
	shardsLeft map[[2]int]int
	// gpuArrived counts, per (layer, reduction tree), workers that
	// produced the gradient (GPU-synced layers). The tree id is 0 on the
	// data-parallel layout.
	gpuArrived map[[2]int]int
	// workersLeft counts, per proxy-synced (layer, reduction tree),
	// members that have not finished pulling yet.
	workersLeft map[[2]int]int
	// averaged marks layers whose gradients have been numerically
	// averaged (once per layer, at first shard-sync completion — before
	// any worker can consume them).
	averaged map[int]bool
	// layersLeft counts (layer, reduction tree) completions still owed
	// this iteration — the layer count on the data-parallel layout; the
	// iteration's state is dropped (and the epoch checkpoint taken) when
	// it reaches zero.
	layersLeft int
	// assign freezes the dual-sync assignment for this iteration, so a
	// mid-iteration re-profile (which may re-plan the split) cannot put
	// two workers' copies of one layer on different paths.
	assign []bool
}

// coarseShard is one coherence domain: a contiguous slice of the
// machine's memory devices with its own pool, routing tables, proxies
// and sync groups. With Shards <= 1 there is exactly one, covering
// every device — the paper's configuration.
type coarseShard struct {
	idx  int
	devs []*topology.Device
	pool *memdev.Pool
	// tables[w] is worker w's routing table over this shard's devices.
	tables []profiler.Table
	// localProxy[w] is the shard device sharing worker w's switch (or
	// nearest).
	localProxy []int
	prox       []*proxy
	rr         int // round-robin over the shard's sync groups
	// layerBytes is the parameter volume mapped onto this shard.
	layerBytes int64
}

// shardOf returns the coherence domain owning a layer.
func (s *Strategy) shardOf(layer int) *coarseShard { return s.shards[layer%len(s.shards)] }

// proxy is one memory device's communication service.
type proxy struct {
	dev *memdev.Device
	// FCFS mode: one head-of-line queue of un-registered arrivals.
	fifo []*arrival
	// queue-based mode needs no structure here: per-client queues drain
	// concurrently, so arrivals register immediately.

	// cached marks shard keys whose synchronized value this proxy has
	// already staged from storage DRAM (the Section III-D parameter
	// cache). A cached shard's pull skips the storage read.
	cached map[string]bool
}

type arrival struct {
	key    string
	client int
	fn     func()
}

// Setup implements train.Strategy: partition the device pool into
// coherence domains, profile every client against its domains, and
// solve the dual-synchronization split.
func (s *Strategy) Setup(ctx *train.Ctx) error {
	s.ctx = ctx
	s.iters = make(map[int]*iterState)
	devs := ctx.Machine.Devs
	if len(devs) == 0 {
		return fmt.Errorf("coarse: machine %q has no memory devices", ctx.Machine.Label)
	}
	k := s.Opts.Shards
	if k < 1 {
		k = 1
	}
	if k > len(devs) {
		return fmt.Errorf("coarse: %d shards exceed machine %q's %d memory devices", k, ctx.Machine.Label, len(devs))
	}

	// Parameter volume per domain under the layer -> layer mod k map.
	layerBytes := make([]int64, k)
	for l, layer := range ctx.Layers() {
		layerBytes[l%k] += layer.SizeBytes()
	}

	// Offline profiling (engine is idle during Setup).
	prof := profiler.New(ctx.CCI)
	for si := 0; si < k; si++ {
		sdevs := devs[si*len(devs)/k : (si+1)*len(devs)/k]
		sh := &coarseShard{idx: si, devs: sdevs, layerBytes: layerBytes[si]}
		sh.pool = memdev.NewPool(ctx.CCI, sdevs, ctx.Cfg.MemDev, s.Opts.SyncGroups)
		for _, d := range sh.pool.Devices {
			sh.prox = append(sh.prox, &proxy{dev: d, cached: make(map[string]bool)})
			// Extended parameter storage: master weights and both Adam
			// moments for this domain's layers, sharded across its
			// devices. A domain can own zero bytes when the model has
			// fewer layers than there are shards; it then stores
			// nothing.
			if shard := 3 * sh.layerBytes / int64(len(sdevs)); shard > 0 {
				if err := d.Alloc(shard); err != nil {
					return fmt.Errorf("coarse: optimizer shard: %w", err)
				}
			}
		}
		for _, g := range ctx.Workers {
			sh.tables = append(sh.tables, prof.BuildTable(g.Dev, sdevs))
		}
		sh.spreadBwProxies()
		for _, g := range ctx.Workers {
			local := 0
			bestLat := sim.Time(1<<62 - 1)
			for i, dev := range sdevs {
				if ctx.Machine.SameSwitch(g.Dev, dev) {
					local = i
					bestLat = -1
					break
				}
				if lat := ctx.Machine.PathLatency(g.Dev, dev); lat < bestLat {
					bestLat = lat
					local = i
				}
			}
			sh.localProxy = append(sh.localProxy, local)
		}
		s.shards = append(s.shards, sh)
	}

	s.planDualSync()
	s.registerTelemetry()
	return nil
}

// registerTelemetry exposes the strategy's decision counters and the
// per-sync-group shard queue depths as lazy gauges; the trainer's
// sampler turns them into time series. No-op without a registry.
func (s *Strategy) registerTelemetry() {
	reg := s.ctx.Cfg.Telemetry
	if reg == nil {
		return
	}
	reg.GaugeFunc("coarse/reprofiles", "count", func() float64 { return float64(s.Reprofiles) })
	reg.GaugeFunc("coarse/pushed_bw_bytes", "B", func() float64 { return float64(s.PushedToBw) })
	reg.GaugeFunc("coarse/pushed_lat_bytes", "B", func() float64 { return float64(s.PushedToLat) })
	reg.GaugeFunc("coarse/gpu_synced_bytes", "B", func() float64 { return float64(s.GPUSyncedBytes) })
	reg.GaugeFunc("coarse/pull_hits", "count", func() float64 { return float64(s.PullHits) })
	reg.GaugeFunc("coarse/pull_misses", "count", func() float64 { return float64(s.PullMisses) })
	// The GPU tail's ring counters follow reduction tree 0: on the
	// data-parallel layout, the one flat ring over every worker; on a
	// sharded layout, tree 0's ring when the planner picked one.
	s.ctx.SyncComm(0).AttachTelemetry(reg, "coarse/gpu_ring")
	for _, sh := range s.shards {
		// Single-domain series keep the historical names; multi-domain
		// runs prefix each domain.
		prefix := "coarse/syncgroup"
		if len(s.shards) > 1 {
			prefix = fmt.Sprintf("coarse/shard%d/syncgroup", sh.idx)
		}
		for i, grp := range sh.pool.Groups() {
			grp := grp
			reg.GaugeFunc(fmt.Sprintf("%s%d/queue_depth", prefix, i), "shards",
				func() float64 { return float64(grp.QueueDepth()) })
		}
	}
}

// spreadBwProxies load-balances the bandwidth-friendly proxy choice:
// when several proxies tie for a client's best measured bandwidth (all
// remote devices look alike on a symmetric machine), the naive
// first-max pick would aim every client at the same device and turn its
// links into a hotspot. Clients with tied options are spread round-robin
// across their tied-best sets.
func (sh *coarseShard) spreadBwProxies() {
	const tolerance = 0.95
	taken := make(map[int]int) // proxy -> clients already aimed at it
	for w := range sh.tables {
		t := &sh.tables[w]
		best := t.Measurements[t.BwProxy].Bandwidth
		// Candidates within tolerance of the best.
		var cands []int
		for _, m := range t.Measurements {
			if m.Bandwidth >= tolerance*best {
				cands = append(cands, m.Proxy)
			}
		}
		pick := cands[0]
		for _, c := range cands {
			if taken[c] < taken[pick] {
				pick = c
			}
		}
		t.BwProxy = pick
		taken[pick]++
	}
}

// planDualSync decides which layers the proxies synchronize and which
// the worker GPUs do. It implements the paper's Section III-F model with
// the priority principle applied per layer: Equation (1) balances the
// two paths' volumes, but a layer may only take the proxy path when its
// synchronization fits inside its overlap window — the time between its
// gradient's production (during backward) and its parameters' next use
// (during the following forward). The front layers have a zero window
// ("immediately consumed by the forward pass of the next iteration"),
// which is exactly why the paper synchronizes them on the GPUs.
func (s *Strategy) planDualSync() {
	ctx := s.ctx
	layers := ctx.Layers()
	n := ctx.Cfg.Model.ParamBytes()
	s.proxySynced = make([]bool, len(layers))

	if s.Opts.MFraction >= 0 {
		s.assignSplit(int64(s.Opts.MFraction * float64(n)))
		return
	}

	// Per-domain path model. The proxy ring runs over each domain's
	// memory devices, whose count differs from the worker count in
	// shared-proxy (2:1) and sharded configurations.
	k := len(s.shards)
	proxyRingFactor := make([]float64, k)
	bProxy := make([]float64, k)
	bEdge := make([]float64, k)
	for si, sh := range s.shards {
		devs := float64(len(sh.pool.Devices))
		proxyRingFactor[si] = 2 * (devs - 1) / devs
		bProxy[si] = s.ringBandwidth(sh)
		// Alternating-direction groups double the proxy path's usable
		// bandwidth.
		if s.Opts.SyncGroups > 1 {
			bProxy[si] *= 2
		}
		// Client push/pull rides the edge to the routed proxy; when
		// several clients share a proxy its edge splits among them.
		be := sh.tables[0].Measurements[sh.tables[0].BwProxy].Bandwidth
		for _, t := range sh.tables[1:] {
			if bw := t.Measurements[t.BwProxy].Bandwidth; bw < be {
				be = bw
			}
		}
		clientsPerProxy := (ctx.NumWorkers() + len(sh.pool.Devices) - 1) / len(sh.pool.Devices)
		bEdge[si] = be / float64(clientsPerProxy)
	}

	g := ctx.Workers[0]
	tBP := g.BwdTime(ctx.Cfg.Model, ctx.Cfg.Batch).ToSeconds()

	// prefixFwd[l]: forward time before layer l; suffixBwd[l]: backward
	// time until layer l's gradient exists.
	prefixFwd := make([]float64, len(layers))
	acc := 0.0
	for l := range layers {
		prefixFwd[l] = acc
		acc += g.LayerFwdTime(layers[l], ctx.Cfg.Batch).ToSeconds()
	}
	suffixBwd := make([]float64, len(layers))
	acc = 0.0
	for l := len(layers) - 1; l >= 0; l-- {
		acc += g.LayerBwdTime(layers[l], ctx.Cfg.Batch).ToSeconds()
		suffixBwd[l] = acc
	}

	// On a machine without peer-to-peer support there is no disjoint CCI
	// fabric: proxy traffic, GPU-ring traffic, pushes and pulls all
	// bounce through the one host bridge. The proxy path's effective
	// bandwidth and its usable window shrink accordingly (this is the
	// regime where the paper reports COARSE "does not work efficiently").
	windowFrac := 1.0
	if !ctx.Machine.P2PSupported {
		for si := range bProxy {
			bProxy[si] /= 2
		}
		windowFrac = 0.4
	}

	// Walk in production order (deep layers first). A layer is proxied
	// while its own domain's accumulated proxy backlog still fits its
	// window (domains drain independently, so backlog accumulates per
	// shard); afterwards everything shallower takes the GPU ring.
	var m int64
	mShard := make([]int64, k)
	for l := len(layers) - 1; l >= 0; l-- {
		si := l % k
		size := layers[l].SizeBytes()
		backlog := proxyRingFactor[si]*float64(mShard[si]+size)/bProxy[si] + 2*float64(size)/bEdge[si]
		window := (tBP + prefixFwd[l] - suffixBwd[l]) * windowFrac
		if window <= backlog {
			break
		}
		mShard[si] += size
		m += size
	}
	s.assignSplit(m)
}

// assignSplit sets the dual-sync layer assignment: backward produces
// layers in reverse order, and the first m bytes produced go to the
// proxies.
func (s *Strategy) assignSplit(m int64) {
	layers := s.ctx.Layers()
	s.mBytes = m
	var cum int64
	for l := len(layers) - 1; l >= 0; l-- {
		if cum < m {
			s.proxySynced[l] = true
			cum += layers[l].SizeBytes()
		} else {
			s.proxySynced[l] = false
		}
	}
}

// ringBandwidth returns the bottleneck link bandwidth around the ring
// of one domain's memory devices. On machines without peer-to-peer
// support every hop bounces through host memory — two legs sharing the
// host bridge — so the effective rate is half the slower leg.
func (s *Strategy) ringBandwidth(sh *coarseShard) float64 {
	count := len(sh.pool.Devices)
	if count <= 1 {
		return 1e18
	}
	ctx := s.ctx
	dev := func(i int) *topology.Device {
		return sh.pool.Devices[i].Dev
	}
	min := -1.0
	for i := 0; i < count; i++ {
		a, b := dev(i), dev((i+1)%count)
		var bw float64
		if ctx.Machine.P2PSupported {
			bw = ctx.Machine.PathBandwidth(a, b)
		} else {
			cpu := ctx.Machine.CPUs[a.Node]
			up := ctx.Machine.PathBandwidth(a, cpu)
			down := ctx.Machine.PathBandwidth(cpu, b)
			bw = up
			if down < bw {
				bw = down
			}
			bw /= 2
		}
		if min < 0 || bw < min {
			min = bw
		}
	}
	return min
}

// MBytes exposes the dual-sync split for tests and reports.
func (s *Strategy) MBytes() int64 { return s.mBytes }

// ProxySynced reports whether a layer takes the proxy path.
func (s *Strategy) ProxySynced(layer int) bool { return s.proxySynced[layer] }

// Tables exposes the per-client routing tables of the first coherence
// domain (the only one in the paper's single-domain configuration).
func (s *Strategy) Tables() []profiler.Table { return s.shards[0].tables }

// Pool exposes the first domain's memory-device pool (experiments and
// examples read its checkpoint and storage statistics).
func (s *Strategy) Pool() *memdev.Pool { return s.shards[0].pool }

// NumShards reports the number of coherence domains in use.
func (s *Strategy) NumShards() int { return len(s.shards) }

func (s *Strategy) state(it int) *iterState {
	st, ok := s.iters[it]
	if !ok {
		st = &iterState{
			shardArrived: make(map[string]int),
			shardsLeft:   make(map[[2]int]int),
			gpuArrived:   make(map[[2]int]int),
			workersLeft:  make(map[[2]int]int),
			averaged:     make(map[int]bool),
			layersLeft:   s.ctx.Plan().SyncTrees(),
			assign:       append([]bool(nil), s.proxySynced...),
		}
		s.iters[it] = st
	}
	return st
}

// GradientReady implements train.Strategy.
func (s *Strategy) GradientReady(it, w, layer int) {
	if s.Opts.ReprofileEvery > 0 && w == 0 && layer == len(s.ctx.Layers())-1 &&
		it > 0 && it%s.Opts.ReprofileEvery == 0 {
		s.reprofile()
	}
	if s.state(it).assign[layer] {
		s.pushToProxies(it, w, layer)
	} else {
		s.gpuSync(it, w, layer)
	}
}

// gpuSync: the high-priority tail synchronizes directly on worker GPUs,
// reducing the layer's tree over its communicator — the flat
// all-worker ring on the data-parallel layout. The tail is synchronous
// across its members: a hop whose endpoint is chaos-silenced defers
// until it wakes, while the proxy path keeps draining.
func (s *Strategy) gpuSync(it, w, layer int) {
	ctx := s.ctx
	plan := ctx.Plan()
	st := s.state(it)
	gid := plan.GroupID(w, layer)
	members := plan.GroupMembers(gid)
	gk := [2]int{layer, gid}
	st.gpuArrived[gk]++
	if st.gpuArrived[gk] < len(members) {
		return
	}
	size := plan.SyncBytes(layer)
	s.GPUSyncedBytes += size
	done := func() {
		if ctx.Cfg.Numeric {
			ctx.AverageGrads(layer)
			s.captureParam(it, layer)
		}
		for _, dst := range members {
			ctx.MarkReady(it, dst, layer)
		}
		s.layerDone(it)
	}
	ctx.SyncComm(gid).AllReduceBytes(size, done)
}

// pushToProxies: partition, route, push; proxies register arrivals and
// sync shards whose every client copy has arrived.
func (s *Strategy) pushToProxies(it, w, layer int) {
	ctx := s.ctx
	plan := ctx.Plan()
	sh := s.shardOf(layer)
	size := plan.SyncBytes(layer)
	gid := plan.GroupID(w, layer)
	table := sh.tables[w]

	var shardSizes []int64
	if s.Opts.Partitioning && size > table.PartitionBytes {
		k := size / table.PartitionBytes
		base := size / k
		rem := size % k
		for i := int64(0); i < k; i++ {
			sz := base
			if i < rem {
				sz++
			}
			shardSizes = append(shardSizes, sz)
		}
	} else {
		shardSizes = []int64{size}
	}

	st := s.state(it)
	st.shardsLeft[[2]int{w, layer}] = len(shardSizes)
	gk := [2]int{layer, gid}
	if _, ok := st.workersLeft[gk]; !ok {
		st.workersLeft[gk] = len(plan.GroupMembers(gid))
	}

	// One worker's partition pushes are a symmetric fan: size-based
	// routing sends equal-size shards to the same proxy over the same
	// route, back-to-back, so the fabric may carry each size class as
	// one aggregated flow (byte-identical; see fabric.AggTag).
	var tag fabric.AggTag
	for idx, shardSize := range shardSizes {
		dst := sh.localProxy[w]
		if s.Opts.Routing {
			dst = table.Route(shardSize)
		}
		if dst == sh.localProxy[w] {
			s.PushedToLat += shardSize
		} else {
			s.PushedToBw += shardSize
		}
		key := fmt.Sprintf("%d/%d/%d/%d", it, layer, gid, idx)
		shardSize := shardSize
		idx := idx
		ctx.CCI.DMACopyTagged(&tag, ctx.Workers[w].Dev, sh.pool.Devices[dst].Dev, shardSize, func() {
			s.onProxyArrival(it, w, layer, gid, idx, shardSize, dst, key)
		})
	}
}

func (s *Strategy) onProxyArrival(it, w, layer, gid, idx int, shardSize int64, dst int, key string) {
	px := s.shardOf(layer).prox[dst]
	register := func() {
		s.registerShard(it, layer, gid, idx, shardSize, key)
	}
	if s.Opts.Scheduler == QueueBased {
		// Per-client queues drain concurrently: the arrival registers
		// immediately regardless of what else this proxy is serving.
		register()
		return
	}
	// FCFS: only the head of the proxy's single arrival queue may
	// register; everything behind waits for the head's shard to finish.
	px.fifo = append(px.fifo, &arrival{key: key, client: w, fn: register})
	if len(px.fifo) == 1 {
		px.fifo[0].fn()
	}
}

// registerShard counts a shard copy's arrival; when all of the layer's
// tree members' copies are in, the shard synchronizes on a sync group.
func (s *Strategy) registerShard(it, layer, gid, idx int, shardSize int64, key string) {
	ctx := s.ctx
	st := s.state(it)
	st.shardArrived[key]++
	if st.shardArrived[key] < len(ctx.Plan().GroupMembers(gid)) {
		return
	}
	delete(st.shardArrived, key)
	sh := s.shardOf(layer)
	group := sh.pool.Group(sh.rr)
	sh.rr++
	group.AllReduceBytes(shardSize, func() {
		s.onShardSynced(it, layer, gid, idx, shardSize, key)
	})
}

func (s *Strategy) onShardSynced(it, layer, gid, idx int, shardSize int64, key string) {
	ctx := s.ctx
	sh := s.shardOf(layer)
	if ctx.Cfg.Numeric {
		// Average once per layer, before any worker can pull and apply.
		if st := s.state(it); !st.averaged[layer] {
			st.averaged[layer] = true
			ctx.AverageGrads(layer)
			s.captureParam(it, layer)
		}
	}
	// FCFS: the synced shard releases the head of every proxy queue
	// holding it, letting the next arrival register. Keys are
	// layer-scoped, so only the owning domain's proxies can hold them.
	if s.Opts.Scheduler == FCFS {
		for _, px := range sh.prox {
			for len(px.fifo) > 0 && px.fifo[0].key == key {
				px.fifo = px.fifo[1:]
				if len(px.fifo) > 0 {
					px.fifo[0].fn()
				}
			}
		}
	}
	// Pull: every tree member retrieves the shard from its routed proxy.
	// The first pull through a proxy stages the shard out of storage
	// DRAM into the proxy's parameter cache; later pulls of the same
	// shard hit the cache (Section III-D).
	for _, w := range ctx.Plan().GroupMembers(gid) {
		w := w
		src := sh.localProxy[w]
		if s.Opts.Routing {
			src = sh.tables[w].Route(shardSize)
		}
		var stage sim.Time
		if px := sh.prox[src]; s.Opts.ProxyCache && px.cached[key] {
			s.PullHits++
		} else {
			s.PullMisses++
			stage = px.dev.DRAMTime(shardSize)
			if s.Opts.ProxyCache {
				px.cached[key] = true
			}
		}
		ctx.Eng.Schedule(stage, func() {
			s.pullShard(it, w, layer, gid, shardSize, src)
		})
	}
}

// pullShard moves one synchronized shard from its proxy back to a
// worker and accounts layer completion. Queue-based synchronization is
// what keeps this path fault-tolerant: shards synchronize on the
// memory devices' sync cores regardless of worker health, and only the
// *silenced* worker's own pull hand-off defers until it wakes — every
// other worker's pulls land immediately (no head-of-line blocking, the
// same property that avoids the Figure 10 deadlock).
func (s *Strategy) pullShard(it, w, layer, gid int, shardSize int64, src int) {
	ctx := s.ctx
	ctx.CCI.DMACopy(s.shardOf(layer).pool.Devices[src].Dev, ctx.Workers[w].Dev, shardSize, func() {
		ctx.RunAwake(func() { s.finishPull(it, w, layer, gid) }, w)
	})
}

func (s *Strategy) finishPull(it, w, layer, gid int) {
	st := s.state(it)
	k := [2]int{w, layer}
	st.shardsLeft[k]--
	if st.shardsLeft[k] > 0 {
		return
	}
	delete(st.shardsLeft, k)
	s.ctx.MarkReady(it, w, layer)
	gk := [2]int{layer, gid}
	st.workersLeft[gk]--
	if st.workersLeft[gk] == 0 {
		delete(st.workersLeft, gk)
		s.layerDone(it)
	}
}

// captureParam writes the master copy of a layer's parameters into its
// home device's storage (numeric mode, epoch boundaries only): the
// parameter-storage tier of Section III-D holding the state the epoch
// checkpoint snapshots. The captured value includes the boundary
// iteration's SGD update (exactly what every worker will apply at its
// next forward pass).
func (s *Strategy) captureParam(it, layer int) {
	ctx := s.ctx
	if !ctx.Cfg.Numeric || s.Opts.EpochIters <= 0 || (it+1)%s.Opts.EpochIters != 0 {
		return
	}
	s.homeDevice(layer).Store.Put(ctx.Params[0][layer].Name, ctx.PreviewUpdate(0, layer))
}

// homeDevice returns the storage device holding a layer's master copy:
// within the layer's coherence domain, homes rotate across the domain's
// devices. With one domain this is the historical layer-mod-devices map.
func (s *Strategy) homeDevice(layer int) *memdev.Device {
	sh := s.shardOf(layer)
	return sh.pool.Devices[(layer/len(s.shards))%len(sh.pool.Devices)]
}

// RestoreLatest loads the most recent epoch checkpoint back into every
// worker's parameters, returning false when no checkpoint exists. It is
// the recovery path of Section IV-A: a failed worker resumes from the
// storage tier's snapshot instead of retraining from scratch.
func (s *Strategy) RestoreLatest() bool {
	for _, sh := range s.shards {
		for _, d := range sh.pool.Devices {
			if !d.Ckpt.Recover() {
				return false
			}
		}
	}
	ctx := s.ctx
	for layer := range ctx.Layers() {
		data := s.homeDevice(layer).Store.Get(ctx.Params[0][layer].Name)
		if data == nil {
			return false
		}
		for w := 0; w < ctx.NumWorkers(); w++ {
			copy(ctx.Params[w][layer].Data, data)
		}
	}
	return true
}

// layerDone accounts a fully synchronized layer; when the whole
// iteration has synchronized, its state is dropped and the epoch-end
// checkpoint fires.
func (s *Strategy) layerDone(it int) {
	st, ok := s.iters[it]
	if !ok {
		return
	}
	st.layersLeft--
	if st.layersLeft > 0 {
		return
	}
	delete(s.iters, it)
	// The iteration's shards will never be pulled again: evict them
	// from the proxy caches.
	prefix := fmt.Sprintf("%d/", it)
	for _, sh := range s.shards {
		for _, px := range sh.prox {
			for key := range px.cached {
				if strings.HasPrefix(key, prefix) {
					delete(px.cached, key)
				}
			}
		}
	}
	if s.Opts.EpochIters > 0 && (it+1)%s.Opts.EpochIters == 0 {
		for _, sh := range s.shards {
			for _, d := range sh.pool.Devices {
				d.Ckpt.EpochEnd()
			}
		}
	}
}

// reprofile re-derives routing tables analytically (dynamic profiling,
// Section III-E: "while training is in progress, COARSE periodically
// profiles the communication and updates the routing and partitioning
// strategies"). Interconnect conditions may have changed since the
// offline profile — a degraded lane, a noisy neighbor — so the tables,
// the tie-spreading and the dual-sync split are all recomputed.
func (s *Strategy) reprofile() {
	for _, sh := range s.shards {
		for w, g := range s.ctx.Workers {
			sh.tables[w] = profiler.AnalyticTable(s.ctx.CCI, g.Dev, sh.devs)
		}
		sh.spreadBwProxies()
	}
	s.planDualSync()
	s.Reprofiles++
}
