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
	// reprofiler is the lowest-indexed worker owning the last layer:
	// the first to produce an iteration's gradients on every layout.
	reprofiler int

	// live holds the iterations still synchronizing, a few at most: a
	// worker's next forward pass waits for its current iteration's
	// synchronization. Their states, and the records of the shards and
	// reductions in flight, are recycled through the free lists.
	live   []*iterState
	states *sim.FreeList[iterState]
	ops    *sim.FreeList[shardOp]

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

// shardKey names one shard: the idx-th partition of a layer's
// reduction tree in iteration it.
type shardKey struct{ it, layer, gid, idx int }

// iterState is one iteration's synchronization bookkeeping, in slices
// indexed by dense coordinates rather than maps: a recycled state is
// reset in place for a later iteration, so once the first iterations
// have sized it, bookkeeping allocates nothing.
type iterState struct {
	it int
	// pairs holds each (layer, reduction tree) pair's state, indexed
	// layer*trees + gid. The tree id is 0 on the data-parallel layout.
	pairs []pairState
	trees int
	// shardsLeft counts, per (worker, layer) at w*layers + layer,
	// shards not yet pulled back.
	shardsLeft []int32
	// layersLeft counts (layer, reduction tree) completions still owed
	// this iteration — the layer count on the data-parallel layout; the
	// iteration's state is dropped when it reaches zero.
	layersLeft int
	// assign freezes the dual-sync assignment for this iteration, so a
	// mid-iteration re-profile (which may re-plan the split) cannot put
	// two workers' copies of one layer on different paths.
	assign []bool
}

// pairState is one (layer, reduction tree) pair's synchronization in
// one iteration.
type pairState struct {
	// gpuArrived counts members that produced the gradient
	// (GPU-synced layers).
	gpuArrived int32
	// workersLeft counts members that have not finished pulling yet
	// (proxy-synced layers); zero until the pair's first push.
	workersLeft int32
	// shards holds the pair's shards by index; it keeps the longest
	// partition any member has pushed, and only the first k entries of
	// a k-shard partition are used.
	shards []shardState
}

// shardState is one shard's synchronization in one iteration.
type shardState struct {
	// arrived counts the clients' copies that have reached the proxies.
	arrived int32
	// cached lists the proxies (indices in the layer's domain) that
	// have already staged the shard from storage DRAM (the Section III-D
	// parameter cache): the first len(cachedIn) of them inline, the rest
	// in more. A cached shard's pull skips the storage read; the
	// iteration's shards are never pulled again once it ends, so the
	// cache goes with its state.
	ncached  int32
	cachedIn [4]int32
	more     []int32
}

// cachedAt reports whether proxy px has staged the shard.
func (sh *shardState) cachedAt(px int) bool {
	n := min(int(sh.ncached), len(sh.cachedIn))
	for _, c := range sh.cachedIn[:n] {
		if int(c) == px {
			return true
		}
	}
	for _, c := range sh.more {
		if int(c) == px {
			return true
		}
	}
	return false
}

// cache records that proxy px has staged the shard.
func (sh *shardState) cache(px int) {
	if int(sh.ncached) < len(sh.cachedIn) {
		sh.cachedIn[sh.ncached] = int32(px)
	} else {
		sh.more = append(sh.more, int32(px))
	}
	sh.ncached++
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
	fifo []arrival
	// queue-based mode needs no structure here: per-client queues drain
	// concurrently, so arrivals register immediately.
}

// arrival is one shard copy waiting in an FCFS proxy queue.
type arrival struct {
	key  shardKey
	size int64
}

// Setup implements train.Strategy: partition the device pool into
// coherence domains, profile every client against its domains, and
// solve the dual-synchronization split.
func (s *Strategy) Setup(ctx *train.Ctx) error {
	s.ctx = ctx
	s.live = nil
	s.states = sim.NewFreeList[iterState](ctx.Eng)
	s.ops = sim.NewFreeList[shardOp](ctx.Eng)
	last := len(ctx.Layers()) - 1
	for w := range ctx.Workers {
		if ctx.Plan().OwnsLayer(w, last) {
			s.reprofiler = w
			break
		}
	}
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
			sh.prox = append(sh.prox, &proxy{dev: d})
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
	taken := make([]int, len(sh.devs)) // proxy -> clients already aimed at it
	cands := make([]int, 0, len(sh.devs))
	for w := range sh.tables {
		t := &sh.tables[w]
		best := t.Measurements[t.BwProxy].Bandwidth
		// Candidates within tolerance of the best.
		cands = cands[:0]
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

// NumShards reports the number of coherence domains in use.
func (s *Strategy) NumShards() int { return len(s.shards) }

// state returns iteration it's synchronization state, taking a
// recycled one for an iteration's first call.
func (s *Strategy) state(it int) *iterState {
	if st := s.find(it); st != nil {
		return st
	}
	st := s.states.Get()
	if st == nil {
		ctx := s.ctx
		layers := len(ctx.Layers())
		trees := len(ctx.Plan().Groups())
		st = &iterState{
			pairs:      make([]pairState, layers*trees),
			trees:      trees,
			shardsLeft: make([]int32, ctx.NumWorkers()*layers),
		}
	}
	st.it = it
	st.layersLeft = s.ctx.Plan().SyncTrees()
	st.assign = append(st.assign[:0], s.proxySynced...)
	s.live = append(s.live, st)
	return st
}

// pair returns the state of a (layer, reduction tree) pair.
func (st *iterState) pair(layer, gid int) *pairState {
	return &st.pairs[layer*st.trees+gid]
}

// shard returns a shard's state.
func (st *iterState) shard(key shardKey) *shardState {
	return &st.pair(key.layer, key.gid).shards[key.idx]
}

// find returns iteration it's state, or nil when it has none.
func (s *Strategy) find(it int) *iterState {
	for _, st := range s.live {
		if st.it == it {
			return st
		}
	}
	return nil
}

// drop recycles a finished iteration's state.
func (s *Strategy) drop(st *iterState) {
	for i, x := range s.live {
		if x == st {
			last := len(s.live) - 1
			copy(s.live[i:], s.live[i+1:])
			s.live[last] = nil
			s.live = s.live[:last]
			break
		}
	}
	for i := range st.pairs {
		ps := &st.pairs[i]
		ps.gpuArrived, ps.workersLeft = 0, 0
		for j := range ps.shards {
			sh := &ps.shards[j]
			sh.arrived, sh.ncached, sh.more = 0, 0, sh.more[:0]
		}
	}
	clear(st.shardsLeft)
	s.states.Put(st)
}

// shardOp is one shard or reduction in flight: a shard copy's push or
// pull, a shard's sync-group reduction, or a GPU-synced layer's
// reduction. Its callbacks are bound once per object, and the record
// is recycled as its last callback runs.
type shardOp struct {
	s    *Strategy
	key  shardKey
	w    int // the pushing or pulling worker
	px   int // the proxy pushed to or pulled from
	size int64

	arrived, synced, pull, pulled, awake, reduced func()
}

func (s *Strategy) newOp(key shardKey, w, px int, size int64) *shardOp {
	op := s.ops.Get()
	if op == nil {
		op = &shardOp{s: s}
		op.arrived = op.onArrived
		op.synced = op.onSynced
		op.pull = op.startPull
		op.pulled = op.onPulled
		op.awake = op.onAwake
		op.reduced = op.onReduced
	}
	op.key, op.w, op.px, op.size = key, w, px, size
	return op
}

// GradientReady implements train.Strategy.
func (s *Strategy) GradientReady(it, w, layer int) {
	if s.Opts.ReprofileEvery > 0 && w == s.reprofiler && layer == len(s.ctx.Layers())-1 &&
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
	ps := st.pair(layer, gid)
	ps.gpuArrived++
	if int(ps.gpuArrived) < len(plan.GroupMembers(gid)) {
		return
	}
	size := plan.SyncBytes(layer)
	s.GPUSyncedBytes += size
	op := s.newOp(shardKey{it: it, layer: layer, gid: gid}, -1, -1, size)
	ctx.SyncComm(gid).AllReduceBytes(size, op.reduced)
}

// onReduced completes a GPU-synced layer.
func (op *shardOp) onReduced() {
	s, key := op.s, op.key
	s.ops.Put(op)
	ctx := s.ctx
	for _, dst := range ctx.Plan().GroupMembers(key.gid) {
		ctx.MarkReady(key.it, dst, key.layer)
	}
	s.layerDone(key.it)
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

	// Equal shards, the first size%k one byte larger.
	k := int64(1)
	if s.Opts.Partitioning && size > table.PartitionBytes {
		k = size / table.PartitionBytes
	}
	base, rem := size/k, size%k

	st := s.state(it)
	st.shardsLeft[w*len(ctx.Layers())+layer] = int32(k)
	ps := st.pair(layer, gid)
	if ps.workersLeft == 0 {
		ps.workersLeft = int32(len(plan.GroupMembers(gid)))
	}
	if n := int(k); len(ps.shards) < n {
		ps.shards = append(ps.shards, make([]shardState, n-len(ps.shards))...)
	}

	// One worker's partition pushes are a symmetric fan: size-based
	// routing sends equal-size shards to the same proxy over the same
	// route, back-to-back, so the fabric may carry each size class as
	// one aggregated flow (byte-identical; see the fabric package
	// comment).
	for idx := int64(0); idx < k; idx++ {
		shardSize := base
		if idx < rem {
			shardSize++
		}
		dst := sh.localProxy[w]
		if s.Opts.Routing {
			dst = table.Route(shardSize)
		}
		if dst == sh.localProxy[w] {
			s.PushedToLat += shardSize
		} else {
			s.PushedToBw += shardSize
		}
		op := s.newOp(shardKey{it, layer, gid, int(idx)}, w, dst, shardSize)
		ctx.CCI.DMACopy(ctx.Workers[w].Dev, sh.pool.Devices[dst].Dev, shardSize, op.arrived)
	}
}

// onArrived lands one pushed shard copy at its proxy.
func (op *shardOp) onArrived() {
	s, key, dst, size := op.s, op.key, op.px, op.size
	s.ops.Put(op)
	if s.Opts.Scheduler == QueueBased {
		// Per-client queues drain concurrently: the arrival registers
		// immediately regardless of what else this proxy is serving.
		s.registerShard(key, size)
		return
	}
	// FCFS: only the head of the proxy's single arrival queue may
	// register; everything behind waits for the head's shard to finish.
	px := s.shardOf(key.layer).prox[dst]
	px.fifo = append(px.fifo, arrival{key: key, size: size})
	if len(px.fifo) == 1 {
		s.registerShard(key, size)
	}
}

// registerShard counts a shard copy's arrival; when all of the layer's
// tree members' copies are in, the shard synchronizes on a sync group.
func (s *Strategy) registerShard(key shardKey, shardSize int64) {
	shard := s.state(key.it).shard(key)
	shard.arrived++
	if int(shard.arrived) < len(s.ctx.Plan().GroupMembers(key.gid)) {
		return
	}
	sh := s.shardOf(key.layer)
	group := sh.pool.Group(sh.rr)
	sh.rr++
	group.AllReduceBytes(shardSize, s.newOp(key, -1, -1, shardSize).synced)
}

// onSynced pulls a synchronized shard back to every tree member.
func (op *shardOp) onSynced() {
	s, key, shardSize := op.s, op.key, op.size
	s.ops.Put(op)
	ctx := s.ctx
	sh := s.shardOf(key.layer)
	st := s.state(key.it)
	// FCFS: the synced shard releases the head of every proxy queue
	// holding it, letting the next arrival register. Keys are
	// layer-scoped, so only the owning domain's proxies can hold them.
	if s.Opts.Scheduler == FCFS {
		for _, px := range sh.prox {
			for len(px.fifo) > 0 && px.fifo[0].key == key {
				px.fifo = px.fifo[1:]
				if len(px.fifo) > 0 {
					s.registerShard(px.fifo[0].key, px.fifo[0].size)
				}
			}
		}
	}
	// Pull: every tree member retrieves the shard from its routed proxy.
	// The first pull through a proxy stages the shard out of storage
	// DRAM into the proxy's parameter cache; later pulls of the same
	// shard hit the cache (Section III-D).
	shard := st.shard(key)
	for _, w := range ctx.Plan().GroupMembers(key.gid) {
		src := sh.localProxy[w]
		if s.Opts.Routing {
			src = sh.tables[w].Route(shardSize)
		}
		var stage sim.Time
		if s.Opts.ProxyCache && shard.cachedAt(src) {
			s.PullHits++
		} else {
			s.PullMisses++
			stage = sh.prox[src].dev.DRAMTime(shardSize)
			if s.Opts.ProxyCache {
				shard.cache(src)
			}
		}
		ctx.Eng.Schedule(stage, s.newOp(key, w, src, shardSize).pull)
	}
}

// startPull moves one synchronized shard from its proxy back to a
// worker. Queue-based synchronization is what keeps this path
// fault-tolerant: shards synchronize on the memory devices' sync cores
// regardless of worker health, and only the *silenced* worker's own
// pull hand-off defers until it wakes — every other worker's pulls land
// immediately (no head-of-line blocking, the same property that avoids
// the Figure 10 deadlock).
func (op *shardOp) startPull() {
	ctx := op.s.ctx
	ctx.CCI.DMACopy(op.s.shardOf(op.key.layer).pool.Devices[op.px].Dev, ctx.Workers[op.w].Dev, op.size, op.pulled)
}

func (op *shardOp) onPulled() { op.s.ctx.RunAwake(op.awake, op.w) }

// onAwake accounts a landed pull and the layer's completion.
func (op *shardOp) onAwake() {
	s, key, w := op.s, op.key, op.w
	s.ops.Put(op)
	ctx := s.ctx
	st := s.state(key.it)
	k := w*len(ctx.Layers()) + key.layer
	st.shardsLeft[k]--
	if st.shardsLeft[k] > 0 {
		return
	}
	ctx.MarkReady(key.it, w, key.layer)
	ps := st.pair(key.layer, key.gid)
	ps.workersLeft--
	if ps.workersLeft == 0 {
		s.layerDone(key.it)
	}
}

// layerDone accounts a fully synchronized layer; when the whole
// iteration has synchronized, its state (with the proxy caches of its
// shards) is dropped.
func (s *Strategy) layerDone(it int) {
	st := s.find(it)
	if st == nil {
		return
	}
	st.layersLeft--
	if st.layersLeft > 0 {
		return
	}
	s.drop(st)
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
