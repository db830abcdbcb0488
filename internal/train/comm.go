package train

import (
	"coarse/internal/collective"
	"coarse/internal/parallel"
	"coarse/internal/sim"
	"coarse/internal/telemetry"
	"coarse/internal/topology"
)

// commTopo builds the placement oracle the collective planner consults
// from the machine: worker node/rack positions and whether pooled CCI
// devices sit at the rack tier (the configuration where a rack-spanning
// reduction can offload onto the device ring).
func commTopo(c *Ctx) parallel.CommTopo {
	m := c.Machine
	rackDevs := false
	for _, att := range m.Spec.ExtraMemDevs {
		if att.Tier == topology.TierRack {
			rackDevs = true
			break
		}
	}
	return parallel.CommTopo{
		Node:     func(w int) int { return m.Workers[w].Node },
		Rack:     m.RackOf,
		RackDevs: rackDevs && len(m.Devs) > 0,
		// The data-parallel layout keeps the paper's flat worker ring.
		FlatRing: c.Cfg.FlatCollectives || c.Cfg.Layout.Trivial(),
	}
}

// GroupComm executes collectives for one communicator (a gradient
// reduction tree, a tensor-parallel group, an expert-parallel group)
// with the algorithm the topology-aware planner picked for its
// membership span: a flat ring within a node, a hierarchical reduce
// across nodes, or the COARSE-style offload — push to the rack's CCI
// device, reduce on the device ring, pull back — where rack-tier
// devices sit on the path.
type GroupComm struct {
	ctx     *Ctx
	members []int
	alg     parallel.Alg

	ring *collective.Ring      // AlgRing
	hier *collective.Hierarchy // AlgHier

	// AlgOffload state.
	memberDev []*topology.Device // per member: its rack's pooled device
	ringDevs  []*topology.Device // distinct devices, Machine.Devs order
	devRing   *collective.Ring

	// Recycled per-call records of offloadReduce and AllToAll.
	offloads  *sim.FreeList[offloadOp]
	exchanges *sim.FreeList[exchangeOp]

	stat *int64 // payload accumulator for CommStats; may be nil
}

// newGroupComm plans and builds the communicator for a sorted member
// set, adding every reduction payload to stat. hier overrides the
// planner's choice with the hierarchical reduce for any multi-member
// set.
func newGroupComm(c *Ctx, members []int, stat *int64, hier bool) *GroupComm {
	gc := &GroupComm{
		ctx:     c,
		members: members,
		alg:     parallel.Choose(members, commTopo(c)),
		stat:    stat,
	}
	gc.offloads = sim.NewFreeList[offloadOp](c.Eng)
	gc.exchanges = sim.NewFreeList[exchangeOp](c.Eng)
	if hier && gc.alg != parallel.AlgNone {
		gc.alg = parallel.AlgHier
	}
	switch gc.alg {
	case parallel.AlgRing:
		gc.buildRing()
	case parallel.AlgHier:
		gc.buildHier()
	case parallel.AlgOffload:
		gc.buildOffload()
	}
	return gc
}

// Alg returns the algorithm this communicator runs.
func (gc *GroupComm) Alg() parallel.Alg { return gc.alg }

// AttachTelemetry registers <prefix>/sends and <prefix>/sent_bytes
// counters on the communicator's flat ring. The other algorithms have
// no ring to count; their series are registered all the same and stay
// zero, so a dump's schema does not depend on the planner's choice.
// Safe with a nil registry.
func (gc *GroupComm) AttachTelemetry(reg *telemetry.Registry, prefix string) {
	if gc.ring != nil {
		gc.ring.AttachTelemetry(reg, prefix)
		return
	}
	reg.Counter(prefix+"/sends", "ops")
	reg.Counter(prefix+"/sent_bytes", "B")
}

func (gc *GroupComm) buildRing() {
	c := gc.ctx
	n := len(gc.members)
	send := func(i int, reverse bool, size int64, onDone func()) {
		j := (i + 1) % n
		if reverse {
			j = (i - 1 + n) % n
		}
		wi, wj := gc.members[i], gc.members[j]
		// Hops go through the CCI fabric, so machines without
		// peer-to-peer support (the T4 instance) pay the host bounce. A
		// hop with a chaos-silenced endpoint completes only once it
		// wakes: the ring is synchronous, so one silent member freezes
		// the whole step.
		c.CCI.DMACopy(c.Workers[wi].Dev, c.Workers[wj].Dev, size, c.newHop(onDone, wi, wj))
	}
	gc.ring = collective.NewRing(c.Eng, n, send)
}

func (gc *GroupComm) buildHier() {
	c := gc.ctx
	// Machines number workers node by node, so GroupBy's
	// first-appearance order over sorted members is node-id order.
	groups := parallel.GroupBy(gc.members, func(w int) int { return c.Workers[w].Dev.Node })
	gc.hier = collective.NewHierarchy(c.Eng, groups, gc.pairSend)
}

// pairSend moves size bytes between two workers.
func (gc *GroupComm) pairSend(from, to int, size int64, onDone func()) {
	c := gc.ctx
	c.CCI.DMACopy(c.Workers[from].Dev, c.Workers[to].Dev, size, c.newHop(onDone, from, to))
}

// buildOffload resolves each member's rack device (the rack's own
// pooled device, or the nearest rack-tier device by path latency when
// its rack has none) and a ring over the distinct devices in
// Machine.Devs order.
func (gc *GroupComm) buildOffload() {
	c := gc.ctx
	m := c.Machine
	base := len(m.Devs) - len(m.Spec.ExtraMemDevs)
	var rackTier []*topology.Device
	devRack := map[*topology.Device]int{}
	for i, att := range m.Spec.ExtraMemDevs {
		if att.Tier == topology.TierRack {
			d := m.Devs[base+i]
			rackTier = append(rackTier, d)
			devRack[d] = att.Rack
		}
	}
	gc.memberDev = make([]*topology.Device, len(gc.members))
	inRing := map[*topology.Device]bool{}
	for i, w := range gc.members {
		var pick *topology.Device
		for _, d := range rackTier {
			if devRack[d] == m.RackOf(w) {
				pick = d
				break
			}
		}
		if pick == nil {
			for _, d := range rackTier {
				if pick == nil || m.PathLatency(c.Workers[w].Dev, d) < m.PathLatency(c.Workers[w].Dev, pick) {
					pick = d
				}
			}
		}
		gc.memberDev[i] = pick
		if !inRing[pick] {
			inRing[pick] = true
		}
	}
	for _, d := range rackTier {
		if inRing[d] {
			gc.ringDevs = append(gc.ringDevs, d)
		}
	}
	p := len(gc.ringDevs)
	send := func(i int, reverse bool, size int64, onDone func()) {
		j := (i + 1) % p
		if reverse {
			j = (i - 1 + p) % p
		}
		c.CCI.DMACopy(gc.ringDevs[i], gc.ringDevs[j], size, onDone)
	}
	gc.devRing = collective.NewRing(c.Eng, p, send)
}

// AllReduceBytes runs one reduction of bytes payload over the planned
// algorithm and calls onDone when every member holds the result.
func (gc *GroupComm) AllReduceBytes(bytes int64, onDone func()) {
	if gc.stat != nil {
		*gc.stat += bytes
	}
	switch gc.alg {
	case parallel.AlgNone:
		gc.ctx.Eng.Schedule(0, onDone)
	case parallel.AlgRing:
		gc.ring.AllReduceBytes(bytes, false, onDone)
	case parallel.AlgHier:
		gc.hier.AllReduceBytes(bytes, onDone)
	case parallel.AlgOffload:
		gc.offloadReduce(bytes, onDone)
	}
}

// offloadReduce is the COARSE-style path: every member pushes its
// contribution to its rack's device, the devices ring-reduce across
// racks on fabric the workers never touch, and members pull the result.
func (gc *GroupComm) offloadReduce(bytes int64, onDone func()) {
	c := gc.ctx
	op := gc.offloads.Get()
	if op == nil {
		op = &offloadOp{gc: gc}
		op.pushed = op.pushDone
		op.reduced = op.pull
		op.pulled = op.pullDone
	}
	op.bytes, op.left, op.onDone = bytes, len(gc.members), onDone
	for i, w := range gc.members {
		c.CCI.DMACopy(c.Workers[w].Dev, gc.memberDev[i], bytes, c.newHop(op.pushed, w))
	}
}

// offloadOp is one offloadReduce call in flight; its callbacks are
// bound once per object.
type offloadOp struct {
	gc     *GroupComm
	bytes  int64
	left   int // pushes, then pulls, still to land
	onDone func()

	pushed, reduced, pulled func()
}

func (op *offloadOp) pushDone() {
	op.left--
	if op.left == 0 {
		op.gc.devRing.AllReduceBytes(op.bytes, false, op.reduced)
	}
}

func (op *offloadOp) pull() {
	gc := op.gc
	c := gc.ctx
	op.left = len(gc.members)
	for i, w := range gc.members {
		c.CCI.DMACopy(gc.memberDev[i], c.Workers[w].Dev, op.bytes, c.newHop(op.pulled, w))
	}
}

func (op *offloadOp) pullDone() {
	op.left--
	if op.left > 0 {
		return
	}
	onDone := op.onDone
	op.onDone = nil
	op.gc.offloads.Put(op)
	onDone()
}

// AllToAll issues the pairwise exchange of a routing matrix — m[i][j]
// bytes from member i to member j — and calls onDone when every
// off-diagonal payload has landed. Diagonal (self-routed) entries move
// no fabric bytes. The off-diagonal volume counts into
// CommStats.EPTokens.
func (gc *GroupComm) AllToAll(m [][]int64, onDone func()) {
	c := gc.ctx
	pending := 0
	for i, row := range m {
		for j, v := range row {
			if i != j && v > 0 {
				pending++
			}
		}
	}
	c.trainer.stats.EPTokens += parallel.OffDiagonal(m)
	if pending == 0 {
		c.Eng.Schedule(0, onDone)
		return
	}
	op := gc.exchanges.Get()
	if op == nil {
		op = &exchangeOp{gc: gc}
		op.landed = op.land
	}
	op.pending, op.onDone = pending, onDone
	for i, row := range m {
		for j, v := range row {
			if i == j || v <= 0 {
				continue
			}
			gc.pairSend(gc.members[i], gc.members[j], v, op.landed)
		}
	}
}

// exchangeOp is one AllToAll call in flight; landed is bound once per
// object.
type exchangeOp struct {
	gc      *GroupComm
	pending int
	onDone  func()
	landed  func()
}

func (op *exchangeOp) land() {
	op.pending--
	if op.pending > 0 {
		return
	}
	onDone := op.onDone
	op.onDone = nil
	op.gc.exchanges.Put(op)
	onDone()
}

// hop is one collective transfer between its landing and the
// completion callback, which runs once the transfer's workers are awake
// (Ctx.RunAwake). fire is bound once per object, so a hop allocates no
// wrapper closure; the record returns to the free list as it fires.
type hop struct {
	c      *Ctx
	onDone func()
	w      [2]int
	n      int // workers in w
	fire   func()
}

// newHop returns the completion callback of a transfer whose onDone
// must wait for workers (one or two) to be awake.
func (c *Ctx) newHop(onDone func(), workers ...int) func() {
	h := c.hops.Get()
	if h == nil {
		h = &hop{c: c}
		h.fire = h.land
	}
	h.onDone = onDone
	h.n = copy(h.w[:], workers)
	return h.fire
}

func (h *hop) land() {
	c, onDone, w, n := h.c, h.onDone, h.w, h.n
	h.onDone = nil
	c.hops.Put(h)
	c.RunAwake(onDone, w[:n]...)
}
