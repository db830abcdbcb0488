// Package fabric simulates an interconnect at flow granularity.
//
// Links are full-duplex: each link owns two independent directed channels
// with their own capacity, which is what lets the simulation reproduce the
// paper's bidirectional-bandwidth effects (Section III-E: a PCIe link
// carries a push and a pull concurrently at close to 2x the unidirectional
// rate). A transfer is a Flow over a path of channels. Whenever the set of
// active flows changes, the network recomputes every flow's rate with
// progressive-filling max-min fairness, so contention on shared hops (a
// switch uplink, the CPU host bridge) emerges from the topology rather
// than from per-experiment constants.
//
// # Hot-path structure
//
// Rate recomputation is requested by three triggers — flow admission,
// flow completion, capacity change — but runs lazily: triggers mark the
// network dirty and the actual progressive-filling pass is coalesced to
// one per virtual instant via a sim.Engine end-of-instant hook. Any
// observer that needs current rates mid-instant (telemetry gauges,
// Flow.Rate) forces the pending pass first through Flush, so observable
// state is exactly what the eager per-trigger implementation produced,
// while N same-instant triggers pay for one pass instead of N.
//
// The pass itself allocates nothing and gathers nothing: it fills from
// state the network already maintains. Each filled channel's scratch
// (residual, unassigned members, a cursor into its active list) lives
// in struct-of-arrays owned by the Network, indexed by dense channel id
// and initialized from the channel's capacity and live count. Each
// round scans the channels still holding unassigned flows, not the
// flows' hops, and the bottleneck's own active list names the flows it
// freezes, so a pass costs the hops once plus rounds times live
// channels (see fill). Finished flows leave the per-channel active
// lists by tombstone + amortized compaction so completion cost no
// longer scales with the number of concurrent flows on every hop.
// Flows finish roughly in admission order, so tombstones gather at a
// list's front; each channel keeps a head cursor past them, and walks
// start there and stop once they have seen every live member.
//
// Every pass, full or partial, ends with one utilization fold (ffFold)
// over a maintained list of non-idle channels. It re-sums a channel's
// folded rate only when the pass stamped the channel: one on the path
// of a flow admitted, completed or joined since the last pass, or of a
// flow whose rate bits the pass changed. Every other channel keeps its
// cached rate, since a re-sum would add the same float64 summands in
// the same order. The reference pass (SetReferenceFillingForTest)
// re-sums every channel instead.
//
// Completions do not sit in the engine's event queue one per flow. Each
// live entry keeps its completion key — deadline and dispatch rank — on
// itself, and the network holds one event, armed at the earliest key.
// The end-of-instant flush re-derives every key in one walk and lists
// the entries tied at the earliest deadline (the due list); when the
// event fires, the first of them completes and the event is re-armed
// at the next. Only due entries can fire before the next flush, since
// every completion and admission requests one, so the mid-instant
// bookkeeping walks the due list alone. The end of a flow's latency
// phase and each member of a completing group's fan-out dispatch
// through one callback bound once per Flow object; with ephemeral flows
// and events recycled, a steady transfer stream allocates nothing.
//
// Determinism is byte-exact with respect to the historical eager
// implementation, which cancelled and re-created every completion
// event on every trigger and thereby re-ranked them after everything
// already scheduled in the instant. The incremental version reproduces
// those same-nanosecond tie-breaks without the queue traffic by
// reserving a contiguous block of dispatch ranks per instant
// (sim.Engine.ReserveSeq) that the end-of-instant flush attaches to
// completion keys in flow-admission order; a SeqMark snapshot detects
// whether any foreign event took a rank since the block was reserved,
// in which case (and only then) the block is re-reserved and the due
// entries take fresh ranks. See refreshCompletions and
// scheduleCompletions.
//
// # Scale accelerations
//
// Two further optimizations reshape the hot path enough that the
// byte-identity argument deserves its own paragraph. Both are always
// on; SetReferenceFillingForTest switches them off for the tests that
// use the plain progressive-filling pass as their oracle.
//
// Flow aggregation: collective phases emit fans of pairwise-identical
// transfers — same path, same size, admitted back-to-back at one
// instant. The fabric finds such fans itself: an ephemeral admission
// that repeats the previous admission (also ephemeral, at the same
// instant, over the same channels in the same order, of the same size)
// folds into that entry as a multiplicity count instead of a new
// entry. Rates do not depend on the grouping: a fill is a function of
// the capacities and the multiset of (path, multiplicity), and it
// charges a group's channels m times by clamped repeated subtraction
// (never share*m: float multiply is not repeated addition), so
// residuals, rates, and stall decisions are bitwise what m separate
// entries produce. Only the previous admission qualifies because of
// what still follows admission order: the members keep consecutive
// completion ranks, and a channel's folded rate adds them at the
// position m separate entries would hold. Handle flows (StartFlow)
// never join or get joined, since their callers read their own entry.
// The join compares the flows' copied channel ids, so two callers that
// pass different slices for one route still fold. Completion
// fans back out: the group's carrier completes at the first of the m
// consecutive ranks reserved for the group and the remaining members
// each fire an event at the following ranks, so per-member completion
// dispatches — count, order, and interleaving with everything else —
// are exactly the unaggregated schedule's. On the repo benchmark
// (benchmark/, 2-CPU Intel Xeon VM, go1.24.0, 10 alternating pairs
// against the same build without it) aggregation cut paper-fig16's
// run_s by 19% (10/10), allocs_k from 79.0k to 70.3k and alloc_mb from
// 6.64 to 5.51 MB; the other workloads admit no fan it folds.
//
// Partial passes: a pass refills only the components of the flow graph
// (channels joined by the live entries crossing them) that its
// triggers can have changed, and every other entry keeps its rate,
// freeze and folded channel rates (partialPass). The window's triggers
// seed it. Members completed since the last pass seed nothing when no
// entry is stalled and no survivor was frozen on their channels: they
// never crossed a surviving round's bottleneck, so their shares were
// never subtracted there nor their members counted there, and each
// surviving round replays bitwise. Otherwise each of their channels
// seeds a breadth-first walk that collects one component's entries and
// channels. An entrant alone on every channel it crosses — an offline
// profiler probe, one flow of a ring step — is a component of its own,
// rated in the one round fill would run for it: the smallest
// per-member capacity along its path, an exact tie going to the lowest
// channel id. Every other entrant seeds a walk from its first channel.
// A window with no seed runs the utilization fold alone, re-summing
// the departed channels. The refill is exact because max-min filling
// decomposes over components: a component no trigger reached holds the
// same entries on the same channels as at the last pass, and fill
// breaks exact ties by channel id alone, never by the order in which
// components or channels were reached, so a component filled on its
// own performs, float for float, the rounds, subtractions and
// bottlenecks the full pass performs for it. A walk gives up, and the
// full pass runs, on reaching a channel that carries more than an
// eighth of the live members (compHotShare), checking the seed
// channels before walking anything: on fabrics that form one
// component around a busy channel (a parameter-server fan-in, a
// pooled-memory fabric) the full pass costs less than the walk plus the
// fill. Below eight live members every occupied channel is busy, so a
// small fabric walks nothing. A member joining a group a mid-instant
// pass already rated, capacity changes, and chaos actuations (which
// arrive as capacity changes) always force a full pass, which is what
// makes a partial pass exact rather than approximate. On the 1024-worker
// COARSE weak-scaling cell, 99.8% of passes are partial.
package fabric

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"coarse/internal/sim"
)

// Channel is one direction of a link, held by value inside its Link.
// Capacity is in bytes per second. Per-reshare scratch does not live
// here: it sits in struct-of-arrays on the owning Network, indexed by
// the channel's dense id, so the progressive-filling pass walks flat
// arrays instead of these structs.
type Channel struct {
	link     *Link // owner: Name is its name plus which of its two channels this is
	id       int32 // dense index into the network's channel SoA scratch
	head     int32 // active[:head] are all tombstones (see channelRate)
	capacity float64
	latency  sim.Time
	net      *Network // owner; reads force a pending reshare to run

	active []*Flow // flows crossing this channel, tombstones included
	live   int     // unfinished entries in active
	dead   int     // finished (tombstoned) entries in active

	// accounting
	bytesCarried float64
	busyIntegral float64  // integral of allocated rate over time, bytes
	lastAccount  sim.Time // last time busyIntegral was folded
	currentRate  float64  // sum of allocated flow rates right now

	inActive bool // member of the network's non-idle channel list
}

// Name returns the channel's diagnostic name: its link's name followed
// by "/fwd" or "/rev". It is built on each call; nothing on a hot path
// reads it.
func (c *Channel) Name() string {
	if c == &c.link.fwd {
		return c.link.name + "/fwd"
	}
	return c.link.name + "/rev"
}

// Capacity returns the channel capacity in bytes per second.
func (c *Channel) Capacity() float64 { return c.capacity }

// Latency returns the channel propagation latency.
func (c *Channel) Latency() sim.Time { return c.latency }

// BytesCarried returns the total payload bytes that have finished
// crossing this channel.
func (c *Channel) BytesCarried() float64 { return c.bytesCarried }

// CurrentRate returns the sum of the max-min rates currently allocated
// to flows on this channel, in bytes per second. It changes only at
// reshares, so sampling it yields the exact piecewise-constant rate
// series. Reading it forces any reshare pending at the current instant
// to run first.
func (c *Channel) CurrentRate() float64 {
	c.net.Flush()
	return c.currentRate
}

// ActiveFlowCount returns the number of flows currently crossing the
// channel (bandwidth phase only).
func (c *Channel) ActiveFlowCount() int { return c.live }

// IntegratedBytes returns the exact integral of the channel's
// allocated rate over [0, now] — the bytes' worth of busy time
// accumulated so far, extrapolating the current rate from the last
// accounting fold to now. Utilization is this integral normalized by
// capacity*now; telemetry samples it so the dumped series integrates
// to the run aggregates bit-for-bit. Reading it forces any reshare
// pending at the current instant to run first.
func (c *Channel) IntegratedBytes(now sim.Time) float64 {
	c.net.Flush()
	return c.busyIntegral + c.currentRate*(now-c.lastAccount).ToSeconds()
}

// Utilization returns the mean fraction of capacity used on [0, now].
func (c *Channel) Utilization(now sim.Time) float64 {
	if now <= 0 || c.capacity <= 0 {
		return 0
	}
	return c.IntegratedBytes(now) / (c.capacity * now.ToSeconds())
}

func (c *Channel) account(now sim.Time, newRate float64) {
	dt := (now - c.lastAccount).ToSeconds()
	if dt > 0 {
		c.busyIntegral += c.currentRate * dt
	}
	c.lastAccount = now
	c.currentRate = newRate
}

// Link is a full-duplex connection between two topology endpoints. Its
// two channels live inside it, so a link is one allocation (see
// TestLinkSizeClass). fwd comes first, so in a 64-byte-aligned Link
// each channel's fields other than its cold link pointer sit in two
// cache lines, as they did in a channel of its own.
type Link struct {
	fwd  Channel
	rev  Channel
	name string
}

// Name returns the link name given at creation.
func (l *Link) Name() string { return l.name }

// Fwd returns the forward-direction channel (A to B).
func (l *Link) Fwd() *Channel { return &l.fwd }

// Rev returns the reverse-direction channel (B to A).
func (l *Link) Rev() *Channel { return &l.rev }

// Flow is a single in-flight transfer across a path of channels — or,
// when flow aggregation folded symmetric siblings into it, the shared
// entry for a whole group of them (mult > 1). Per-member state that
// matters for byte identity (completion dispatch position, onDone,
// per-channel byte accounting) is re-materialized at completion; all
// other state is provably identical across members and stored once.
//
// Field order keeps the struct within the allocator's 192-byte size
// class (see TestFlowSizeClass).
type Flow struct {
	pathIDs   []int32 // dense ids of the route's channels, in route order; kept across recycles
	size      float64 // per member
	remaining float64 // per member (members stay bitwise identical)
	rate      float64 // per member
	prevRate  float64 // rate before the running full pass refilled it
	lastTick  sim.Time
	fire      func()     // the entry's one event callback (dispatch), bound once per object
	due       sim.Time   // completion deadline while armed; farFuture once parked
	fanEv     *sim.Event // next member's event while a group fans out
	onDone    func()
	started   bool
	finished  bool
	ephemeral bool // started via StartEphemeral: recycled once unreferenced
	pending   bool // admitted since the last pass (in Network.instAdmits)
	armed     bool // due and doneRank are the entry's completion key
	net       *Network
	start     sim.Time
	finish    sim.Time

	mult     int      // live members sharing this entry (1 = plain flow)
	dones    []func() // per-member onDone once a second member joins; a spare buffer (see spareDones)
	doneBase int      // index into dones of the first still-live member
	doneRank uint64   // completion rank; group members fan out at doneRank+1..+mult-1
	bneck    int32    // channel that froze this entry when last rated, -1 none
	listRefs int32    // tombstone references still held by active lists
	visit    uint64   // component-search stamp (Network.ffEpoch)
}

// Size returns the flow's total payload in bytes.
func (f *Flow) Size() float64 { return f.size }

// Remaining returns the bytes not yet delivered as of the last rate
// change (remaining is settled lazily: it is exact at every reshare
// instant and at completion).
func (f *Flow) Remaining() float64 { return f.remaining }

// Rate returns the flow's current max-min allocated rate in bytes/sec,
// forcing any reshare pending at the current instant to run first.
func (f *Flow) Rate() float64 {
	f.net.Flush()
	return f.rate
}

// Finished reports whether the flow has fully delivered its payload.
func (f *Flow) Finished() bool { return f.finished }

// StartTime returns when the flow entered the bandwidth phase.
func (f *Flow) StartTime() sim.Time { return f.start }

// FinishTime returns when the flow delivered its last byte; it is only
// meaningful once Finished reports true.
func (f *Flow) FinishTime() sim.Time { return f.finish }

// Network owns the channels and active flows and drives rate allocation.
type Network struct {
	eng       *sim.Engine
	flows     []*Flow // admission order, tombstones included
	liveFlows int
	deadFlows int // finished (tombstoned) entries in flows
	links     []*Link
	channels  []*Channel // both directions of every link, dense-id order

	// Channel SoA scratch for the progressive-filling pass, indexed by
	// dense channel id. fill initializes the entries of the channels it
	// fills, so stale scratch is never read and an idle channel costs
	// nothing per pass.
	chResidual   []float64
	chUnassigned []int32
	fillCh       []int32 // channels still holding unassigned entries

	ratesDirty  bool     // rates are stale; a pass must run before any rate read
	eventsDirty bool     // completion deadlines await settling at instant end
	lastSettle  sim.Time // last instant settle folded elapsed time

	// Completion bookkeeping (see refreshCompletions and
	// scheduleCompletions).
	doneEv       *sim.Event // the one completion event, at due[dueHead]'s key; nil once fired
	doneFn       func()     // n.fireDue, bound once: doneEv's callback
	due          []*Flow    // entries the last flush placed at dueFloor, in rank order
	dueHead      int        // first due entry that may still be armed and unparked
	seqMark      uint64     // engine SeqMark at our last rank refresh
	rankBase     uint64     // first rank of the block reserved at the last refresh
	rankReserved int        // ranks reserved in the current block
	dueInstant   sim.Time   // instant whose due-entry park scan has run
	dueFloor     sim.Time   // no armed entry is due before this

	// hot-path telemetry
	requests    uint64 // reshare triggers observed
	passes      uint64 // progressive-filling passes actually run
	rescheduled uint64 // completion deadlines moved by a flush
	skipped     uint64 // completion deadlines a flush left in place

	// reference disables the scale accelerations (see
	// SetReferenceFillingForTest).
	reference bool

	// Flow aggregation (see the package comment).
	lastAdmitted *Flow    // last entry admitted; joins require no interleaving
	lastAdmitAt  sim.Time // instant lastAdmitted was admitted at
	aggregated   uint64   // members folded into a group entry instead of admitted
	groupObs     func(int)

	// Partial passes (see partialPass).
	trigMask    uint8   // trigger kinds observed since the last pass
	ffValid     bool    // freeze bookkeeping below reflects the last pass
	stalled     int     // rated live entries whose rate is 0
	frozenCount []int32 // rated live entries frozen per channel, dense id
	ffPaths     []int32 // path ids of members completed, or joined late, since the last pass
	chTouched   []uint64
	ffEpoch     uint64
	activeCh    []*Channel // non-idle channels, the fold worklist
	ffPasses    uint64     // partial passes
	compPasses  uint64     // of which rated at least one entry

	// Entries admitted since the last pass, in admission order, and the
	// partial pass's walk scratch (channel queue, reached entries, and
	// the end of each component's run of queued channels).
	instAdmits  []*Flow
	joinedLate  bool // a member joined a group that already holds a rate
	compQueue   []*Channel
	compEntries []*Flow
	compBounds  []int

	flowPool *sim.FreeList[Flow] // recycled ephemeral flows, each keeping its pathIDs buffer and fire
	flushFn  func()              // n.flush, bound once: the end-of-instant hook

	// Capacities that Flow.pathIDs and Flow.dones are allocated at:
	// minPathIDs, or the longest path seen so far rounded up by pow2
	// when that is longer, and the largest group seen so far, rounded
	// up by pow2. A recycled record keeps its pathIDs buffer; a
	// finished group's dones buffer returns to spareDone (see
	// spareDones).
	pathIDsCap int
	donesCap   int
	spareDone  [][]func()
}

// Trigger kinds accumulated in trigMask between reallocation passes.
const (
	trigAdmit uint8 = 1 << iota
	trigComplete
	trigCapacity
)

// referenceFilling is read by NewNetwork; see SetReferenceFillingForTest.
var referenceFilling atomic.Bool

// SetReferenceFillingForTest makes the networks NewNetwork builds from
// now on fold no transfer into a group entry and never serve a partial
// pass, so every reallocation is the plain progressive-filling pass
// over every flow and channel. Tests run a workload both ways and
// require identical bytes. It returns a func that restores the
// previous setting.
func SetReferenceFillingForTest(on bool) (restore func()) {
	prev := referenceFilling.Swap(on)
	return func() { referenceFilling.Store(prev) }
}

// listCompactMin is the tombstone floor below which active lists are
// not compacted while their channel still carries a live member.
const listCompactMin = 16

// compHotShare: a partial pass's walk gives up on reaching a channel
// that carries more than 1/compHotShare of the live members (see
// partialPass).
const compHotShare = 8

// minPathIDs is the least capacity a flow's path-id buffer is
// allocated at: the longest route on the presets and generated
// machines is 12 hops. A record's buffer, allocated with the record,
// then fits every route it is recycled for, so how many buffers a run
// allocates does not depend on the order the free list hands records
// out in, nor on which routes the transfers that grew the list took.
const minPathIDs = 12

// farFuture is the deadline a parked due entry waits at: far enough
// that it can never dispatch before the end-of-instant flush re-derives
// it.
const farFuture = sim.Time(math.MaxInt64)

// NewNetwork creates an empty network bound to a simulation engine.
func NewNetwork(eng *sim.Engine) *Network {
	n := &Network{
		eng:        eng,
		lastSettle: -1,
		dueInstant: -1,
		reference:  referenceFilling.Load(),
		flowPool:   sim.NewFreeList[Flow](eng),
		pathIDsCap: minPathIDs,
	}
	n.flushFn = n.flush
	n.doneFn = n.fireDue
	return n
}

// Engine returns the simulation engine the network schedules on.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Links returns all links created on this network, in creation order.
func (n *Network) Links() []*Link { return n.links }

// ActiveFlows returns the number of flows in their bandwidth phase.
func (n *Network) ActiveFlows() int { return n.liveFlows }

// ReshareRequests returns the number of reshare triggers observed: one
// per flow admission, completion, or capacity change. This is the
// series the fabric/reshares telemetry gauge samples (and what
// Reshares itself counted before passes were coalesced).
func (n *Network) ReshareRequests() uint64 { return n.requests }

// Reshares returns the number of max-min fair reallocation passes the
// network has actually run. Same-instant triggers are coalesced into
// one pass, so this is at most ReshareRequests; the difference is
// ResharesCoalesced.
func (n *Network) Reshares() uint64 { return n.passes }

// ResharesCoalesced returns how many reshare triggers were absorbed by
// a pass that served more than one trigger.
func (n *Network) ResharesCoalesced() uint64 { return n.requests - n.passes }

// CompletionsRescheduled returns how many completion deadlines (one
// per member) a flush set afresh: newly derived, moved to a new
// instant, or revived from a park or stall.
func (n *Network) CompletionsRescheduled() uint64 { return n.rescheduled }

// CompletionsSkipped returns how many completion deadlines (one per
// member) a flush left in place because the flow's completion instant
// did not move (exact integer-nanosecond comparison).
func (n *Network) CompletionsSkipped() uint64 { return n.skipped }

// FlowsAggregated returns how many transfers were folded into an
// existing group entry instead of admitted as their own flow: the
// ephemeral admissions that repeated the previous one (see the package
// comment).
func (n *Network) FlowsAggregated() uint64 { return n.aggregated }

// FastForwardPasses returns how many reallocation passes were partial:
// served by refilling only the components their triggers can have
// changed, or none (see partialPass). They are included in Reshares,
// whose count is identical with the accelerations on or off.
func (n *Network) FastForwardPasses() uint64 { return n.ffPasses }

// ComponentPasses counts the partial passes that rated at least one
// entry, by a walk or as a lone entrant, a subset of FastForwardPasses.
func (n *Network) ComponentPasses() uint64 { return n.compPasses }

// OnGroupComplete registers an observer called with the member count
// of every aggregated group as its completion fans out; telemetry uses
// it for the group-size histogram. Only one observer is kept.
func (n *Network) OnGroupComplete(fn func(members int)) { n.groupObs = fn }

// NewLink creates a full-duplex link. fwdCap and revCap are bytes per
// second for the two directions; most physical links are symmetric but
// e.g. the paper's FPGA prototype writes slower than it reads.
func (n *Network) NewLink(name string, fwdCap, revCap float64, latency sim.Time) *Link {
	if fwdCap <= 0 || revCap <= 0 {
		panic(fmt.Sprintf("fabric: link %q with non-positive capacity", name))
	}
	if latency < 0 {
		panic(fmt.Sprintf("fabric: link %q with negative latency", name))
	}
	l := &Link{name: name}
	l.fwd = Channel{link: l, id: int32(len(n.channels)), capacity: fwdCap, latency: latency, net: n}
	l.rev = Channel{link: l, id: int32(len(n.channels)) + 1, capacity: revCap, latency: latency, net: n}
	n.channels = append(n.channels, &l.fwd, &l.rev)
	n.links = append(n.links, l)
	n.ffValid = false // the next pass is a full one, which sizes the channel scratch
	return l
}

// PathLatency sums the propagation latency along a path.
func PathLatency(path []*Channel) sim.Time {
	var total sim.Time
	for _, c := range path {
		total += c.latency
	}
	return total
}

// StartFlow begins a transfer of size bytes along path. The flow first
// waits out the path propagation latency, then enters the shared
// bandwidth phase. onDone (may be nil) fires when the last byte arrives.
// A zero-size flow completes right after the latency phase.
func (n *Network) StartFlow(path []*Channel, size float64, onDone func()) *Flow {
	f := n.newFlow()
	n.start(f, path, size, onDone)
	return f
}

// StartEphemeral is StartFlow for callers that do not retain the flow
// handle: the Flow object is recycled once it has finished and left
// every active list, so steady-state transfer traffic allocates
// nothing per flow. The flow must not be referenced after onDone
// returns (there is no way to, short of capturing it inside onDone —
// don't). An ephemeral transfer that repeats the previous admission
// may be folded into its entry (see the package comment).
func (n *Network) StartEphemeral(path []*Channel, size float64, onDone func()) {
	f := n.newFlow()
	f.ephemeral = true
	n.start(f, path, size, onDone)
}

func (n *Network) start(f *Flow, path []*Channel, size float64, onDone func()) {
	if len(path) == 0 {
		panic("fabric: flow with empty path")
	}
	if size < 0 {
		panic("fabric: flow with negative size")
	}
	// The flow's route is this copy of the channel ids: nothing keeps
	// the caller's slice, which it may reuse as soon as start returns.
	if cap(f.pathIDs) < len(path) {
		n.pathIDsCap = max(n.pathIDsCap, pow2(len(path)))
		f.pathIDs = make([]int32, 0, n.pathIDsCap)
	}
	f.pathIDs = f.pathIDs[:len(path)]
	var latency sim.Time
	for i, c := range path {
		f.pathIDs[i] = c.id
		latency += c.latency
	}
	f.size = size
	f.remaining = size
	f.onDone = onDone
	f.net = n
	f.mult = 1
	f.bneck = -1
	n.eng.Schedule(latency, f.fire)
}

// dispatch is the callback of an entry's own events, bound once per
// Flow object as f.fire, so a transfer's admission and fan-out events
// allocate no closures. Not yet started means the latency phase ended;
// otherwise the next member of a completing group fans out. Completions
// themselves arrive through the network's one completion event
// (fireDue).
func (f *Flow) dispatch() {
	if !f.started {
		f.net.admit(f)
		return
	}
	f.net.fanNext(f)
}

// Transfer is a convenience wrapper for StartFlow with an int64 size.
func (n *Network) Transfer(path []*Channel, size int64, onDone func()) *Flow {
	return n.StartFlow(path, float64(size), onDone)
}

// TransferEphemeral is a convenience wrapper for StartEphemeral with
// an int64 size.
func (n *Network) TransferEphemeral(path []*Channel, size int64, onDone func()) {
	n.StartEphemeral(path, float64(size), onDone)
}

func (n *Network) admit(f *Flow) {
	now := n.eng.Now()
	f.started = true
	f.start = now
	if f.remaining == 0 {
		f.finished = true
		f.finish = now
		if done := f.onDone; done != nil {
			f.onDone = nil
			done()
		}
		if f.ephemeral {
			n.flowPool.Put(f)
		}
		return
	}
	n.requests++
	n.settle(now)
	// Join the previous admission's entry if this one exactly repeats it:
	// both ephemeral (a handle flow's caller reads its own entry), the
	// same instant, the same channels in the same order and the same
	// size. The length and last channel are compared before the whole
	// route: routes out of one source share their first hops. Joining
	// only the previous admission is load-bearing for byte identity: an
	// interleaved foreign entry would sit between the members in
	// admission order, changing per-channel float fold order. The
	// instant check runs first: it proves lastAdmitted was recorded at
	// this very instant, so the pointer is alive (a non-empty flow
	// admitted now cannot complete, compact, and be recycled before now
	// ends — its deadline rounds up to at least one nanosecond).
	if g := n.lastAdmitted; n.lastAdmitAt == now && g != nil && !n.reference && f.ephemeral && g.ephemeral &&
		g.size == f.size && len(g.pathIDs) == len(f.pathIDs) &&
		g.pathIDs[len(g.pathIDs)-1] == f.pathIDs[len(f.pathIDs)-1] && slices.Equal(g.pathIDs, f.pathIDs) {
		if len(g.dones) == 0 {
			g.dones = append(n.growDones(n.spareDones(), 2), g.onDone)
			g.onDone = nil
		}
		g.dones = append(n.growDones(g.dones, g.mult+1), f.onDone)
		g.mult++
		n.liveFlows++
		for _, id := range g.pathIDs {
			n.channels[id].live++
		}
		n.aggregated++
		n.trigMask |= trigAdmit
		if !g.pending {
			// A mid-instant pass already rated the group; growing its
			// multiplicity invalidates that rate, which only a full
			// pass re-derives. The group's channels changed members, so
			// that pass's fold re-sums them.
			n.joinedLate = true
			n.ffPaths = append(n.ffPaths, g.pathIDs...)
		}
		n.flowPool.Put(f)
		n.refreshCompletions(now)
		n.markDirty()
		return
	}
	n.flows = append(n.flows, f)
	n.liveFlows++
	n.lastAdmitted, n.lastAdmitAt = f, now
	f.lastTick = now
	f.pending = true
	n.instAdmits = append(n.instAdmits, f)
	f.listRefs = int32(len(f.pathIDs) + 1)
	for _, id := range f.pathIDs {
		c := n.channels[id]
		c.active = append(c.active, f)
		c.live++
		if !c.inActive {
			c.inActive = true
			n.activeCh = append(n.activeCh, c)
		}
	}
	n.trigMask |= trigAdmit
	n.refreshCompletions(now)
	n.markDirty()
}

// settle folds elapsed time into every active flow's remaining count so a
// rate change applies from "now" onward. It runs at most once per
// instant: repeat calls at the same virtual time are no-ops by
// construction (dt is zero for every flow).
func (n *Network) settle(now sim.Time) {
	if n.lastSettle == now {
		return
	}
	n.lastSettle = now
	for _, f := range n.flows {
		if f.finished {
			continue
		}
		dt := (now - f.lastTick).ToSeconds()
		if dt > 0 {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
		f.lastTick = now
	}
}

// refreshCompletions fixes the tie-break ranks of the live entries'
// completions "as of" the current trigger point, without deriving
// rates or deadlines. The eager implementation cancelled and re-created
// every completion event on every trigger, so after the last fabric
// trigger of an instant each completion carried a fresh sequence number
// — outranking every event scheduled earlier in the instant, outranked
// by anything scheduled later (e.g. by a completion's own onDone).
// Same-nanosecond ties must keep resolving exactly that way, but paying
// an O(flows) pass per trigger for it is what made reshares quadratic,
// so the refresh is lazy:
//
//   - A contiguous rank block is reserved (sim.Engine.ReserveSeq) for
//     the live entries at the trigger; the end-of-instant flush attaches
//     block ranks to completion keys in admission order, which is
//     exactly the order the eager re-create consumed sequence numbers in.
//   - If no event anywhere acquired a rank since the block was
//     reserved (sim.Engine.SeqMark unchanged), re-reserving at this
//     trigger would be a monotone relabeling of the same block —
//     invisible to dispatch order — so the trigger is O(1): keep the
//     block, extending it if admissions outgrew it. Pure completion
//     cascades stay on this path because the flush places keys with
//     reserved ranks and consumes no fresh ones.
//   - Otherwise some foreign event now outranks the block, where the
//     eager re-create would have ranked completions above it. Entries
//     due at this very instant take fresh ranks immediately (they may
//     fire before the flush), then a fresh block is reserved for the
//     deadlines the flush will place.
//
// Independently, once per instant, due entries that can no longer fire
// now — bytes still pending after the settle, or a stalled rate — are
// parked at farFuture, rank kept (it is dead weight until the flush
// re-places them anyway). The eager code re-created these with the true
// post-pass deadline; the flush does the equivalent at instant end.
//
// Both walks visit only the due list. Every trigger marks the network
// dirty and every flush re-derives every deadline, so between two
// flushes only entries the last flush placed at the earliest deadline
// can reach the current instant: any other deadline lies beyond an
// instant whose end runs a flush first. The walks finish by pointing
// the network's one completion event at the earliest remaining key
// (armDue).
func (n *Network) refreshCompletions(now sim.Time) {
	// Either walk has work only once the due deadline has been reached:
	// dueFloor is the minimum the last flush placed, and keys only move
	// later between flushes.
	reached := n.dueFloor <= now
	moved := false
	if n.dueInstant != now {
		n.dueInstant = now
		if reached {
			for _, f := range n.due[n.dueHead:] {
				if f.armed && f.due <= now && (f.remaining != 0 || f.rate <= 0) {
					f.due = farFuture
					moved = true
				}
			}
		}
	}
	if n.eng.SeqMark() == n.seqMark {
		if n.liveFlows > n.rankReserved {
			n.eng.ReserveSeq(n.liveFlows - n.rankReserved)
			n.rankReserved = n.liveFlows
			n.seqMark = n.eng.SeqMark()
		}
	} else {
		if reached {
			for _, f := range n.due[n.dueHead:] {
				if f.armed && f.due <= now {
					// Due at this instant and still able to fire at it:
					// re-rank above the foreign events, in admission order.
					// A group entry takes one fresh rank per member — exactly
					// what the members' own re-creates would — keeping the
					// member ranks consecutive for the completion fan-out.
					f.doneRank = n.eng.ReserveSeq(f.mult)
					moved = true
				}
			}
		}
		n.rankBase = n.eng.ReserveSeq(n.liveFlows)
		n.rankReserved = n.liveFlows
		n.seqMark = n.eng.SeqMark()
	}
	if moved || n.doneEv == nil {
		n.armDue()
	}
}

// armDue points the network's one completion event at the earliest
// completion key left in the due list: the first armed, unparked entry,
// since ranks ascend along the list and re-ranks keep that order. A
// fired event stays unarmed when no such entry is left; a queued one
// whose entries were all parked follows them to farFuture. Either way
// the flush the current instant's trigger requested re-derives every
// deadline before the clock can move.
func (n *Network) armDue() {
	head := n.dueHead
	for ; n.dueHead < len(n.due); n.dueHead++ {
		if f := n.due[n.dueHead]; f.armed && f.due != farFuture {
			n.placeDone(f)
			return
		}
	}
	if n.doneEv != nil && head < len(n.due) {
		n.eng.PlaceRanked(n.doneEv, farFuture, n.due[head].doneRank)
	}
}

// placeDone arms the network's completion event at f's key.
func (n *Network) placeDone(f *Flow) {
	if n.doneEv == nil {
		n.doneEv = n.eng.AtRanked(f.due, f.doneRank, n.doneFn)
		return
	}
	n.eng.PlaceRanked(n.doneEv, f.due, f.doneRank)
}

// fireDue is the network completion event's callback: the due entry
// the event was armed for completes. The event is recycled first, so
// the re-arm that completion's trigger performs reuses its storage.
func (n *Network) fireDue() {
	n.eng.Recycle(n.doneEv)
	n.doneEv = nil
	n.complete(n.due[n.dueHead])
}

// markDirty records a reshare trigger and arranges for one coalesced
// reallocation pass at the end of the current virtual instant.
func (n *Network) markDirty() {
	if !n.eventsDirty {
		n.eventsDirty = true
		n.eng.AtInstantEnd(n.flushFn)
	}
	n.ratesDirty = true
}

// Flush derives the rates pending at the current instant, if any.
// Observers of rate-derived state (telemetry gauges, Flow.Rate,
// utilization reads) call it so that coalescing is invisible: they see
// exactly the piecewise-constant state the eager per-trigger
// implementation exposed at the same virtual time. Completion
// deadlines are NOT settled here — they only need to be final by the
// end of the instant, and settling them mid-instant would perturb the
// tie-break ranks refreshCompletions fixed at the last trigger.
func (n *Network) Flush() {
	if n.ratesDirty {
		n.ratesDirty = false
		n.reallocate(n.eng.Now())
	}
}

// flush is the end-of-instant hook: derive rates if still stale, then
// settle completion deadlines.
func (n *Network) flush() {
	now := n.eng.Now()
	if n.ratesDirty {
		n.ratesDirty = false
		n.reallocate(now)
	}
	if n.eventsDirty {
		n.eventsDirty = false
		n.scheduleCompletions(now)
	}
}

// reallocate recomputes max-min fair rates by progressive filling and
// folds per-channel utilization accounting. It does not touch
// completion keys; scheduleCompletions does that at instant end.
//
// partialPass serves every pass it can; the rest are full passes. A
// full pass marks every live entry unassigned and fills the
// maintained non-idle channel list (fill), whose rates and bottlenecks
// depend only on the live entries' paths and multiplicities, not on
// the order they were admitted in.
//
// The fold after a full pass re-sums only the channels whose folded
// rate can have moved: the trigger channels, stamped before passDone
// forgets them, and the path of every entry whose rate bits the fill
// changed. Any other channel keeps the same live entries at the same
// rates, so a re-sum would add the same float64 summands in the same
// order as the cached one did.
func (n *Network) reallocate(now sim.Time) {
	// Capacity changes and late group joins alter rated entries in ways
	// the trigger channels do not capture; only the full pass serves them.
	if !n.reference && n.ffValid && n.trigMask&trigCapacity == 0 && !n.joinedLate && n.partialPass(now) {
		n.passDone()
		return
	}
	n.passes++
	if len(n.chResidual) < len(n.channels) {
		n.chResidual = make([]float64, len(n.channels))
		n.chUnassigned = make([]int32, len(n.channels))
		n.frozenCount = make([]int32, len(n.channels))
		n.chTouched = make([]uint64, len(n.channels))
	}
	// Stamp every trigger channel of the window — the paths of members
	// completed or joined late, and of entries admitted — before
	// passDone forgets them.
	n.ffEpoch++
	ep := n.ffEpoch
	for _, id := range n.ffPaths {
		n.chTouched[id] = ep
	}
	for _, f := range n.instAdmits {
		for _, id := range f.pathIDs {
			n.chTouched[id] = ep
		}
	}
	n.passDone()
	for _, f := range n.flows {
		if !f.finished {
			f.prevRate = f.rate
			f.rate = -1 // fill's unassigned marker
		}
	}
	n.fill(n.activeCh)
	// Record which channel froze each entry: departures seed no walk
	// only while they leave channels nobody surviving was frozen on.
	// Rebuilt from scratch every full pass.
	clear(n.frozenCount)
	n.stalled = 0
	for _, f := range n.flows {
		if f.finished {
			continue
		}
		n.freeze(f)
		if math.Float64bits(f.rate) != math.Float64bits(f.prevRate) {
			for _, id := range f.pathIDs {
				n.chTouched[id] = ep
			}
		}
	}
	n.ffValid = true
	if !n.reference {
		n.ffFold(now, ep)
		return
	}
	// The reference pass re-sums every channel, skipping those with no
	// live flows and a zero current rate exactly as ffFold does.
	for _, c := range n.channels {
		if c.live == 0 && c.currentRate == 0 {
			continue
		}
		c.account(now, channelRate(c))
	}
}

// fill runs one progressive filling over the live entries crossing the
// given channels, which must include every channel those entries cross
// (the non-idle channel list for a full pass, one component's channels
// for a partial one), and sets each entry's rate and bneck. The
// caller marks every entry to fill unassigned (rate -1) beforehand.
//
// The filling is the textbook one, run over channels rather than flow
// hops. Each channel's scratch starts at its capacity and its live
// member count — a group entry counts once per member, as each member
// crosses its channels once — and each round scans the channels still
// holding unassigned entries for the smallest fair share; an exact tie
// goes to the lowest channel id. The bottleneck's own active list, from
// its head cursor, then names the entries it freezes, and each is
// charged along its path. Every charge in a round subtracts the same
// share, so a channel's residual depends only on how many members froze
// on it, not on the order they froze in: the rates and bottlenecks are
// a function of the capacities and the multiset of (path, multiplicity)
// alone, whatever the admission order or grouping.
func (n *Network) fill(chans []*Channel) {
	res, un := n.chResidual, n.chUnassigned
	live := n.fillCh[:0]
	for _, c := range chans {
		if c.live == 0 {
			continue
		}
		res[c.id] = c.capacity
		un[c.id] = int32(c.live)
		live = append(live, c.id)
	}
	for {
		bneck := int32(-1)
		share := 0.0
		keep := live[:0]
		for _, id := range live {
			if un[id] == 0 {
				continue
			}
			keep = append(keep, id)
			s := res[id] / float64(un[id])
			if bneck < 0 || s < share || s == share && id < bneck {
				bneck, share = id, s
			}
		}
		live = keep
		if bneck < 0 {
			break
		}
		// Every unassigned entry crossing the bottleneck gets the share. A
		// group entry charges its channels once per member by repeated
		// subtraction — residual - m*share would round differently; m
		// sequential clamped subtractions are bitwise what m member
		// entries do.
		c := n.channels[bneck]
		act := c.active
		for i := c.head; un[bneck] > 0; i++ {
			f := act[i]
			if f.finished || f.rate >= 0 {
				continue
			}
			f.rate = share
			f.bneck = bneck
			if m := f.mult; m == 1 {
				for _, id := range f.pathIDs {
					res[id] -= share
					if res[id] < 0 {
						res[id] = 0
					}
					un[id]--
				}
			} else {
				for _, id := range f.pathIDs {
					r := res[id]
					for j := 0; j < m; j++ {
						r -= share
						if r < 0 {
							r = 0
						}
					}
					res[id] = r
					un[id] -= int32(m)
				}
			}
		}
	}
	n.fillCh = live
}

// passDone closes the trigger window: every pass — full or
// partial — consumes the accumulated trigger mask, the
// completed-path list, and the pending-entrant list.
func (n *Network) passDone() {
	n.trigMask = 0
	n.ffPaths = n.ffPaths[:0]
	for _, f := range n.instAdmits {
		f.pending = false
	}
	n.instAdmits = n.instAdmits[:0]
	n.joinedLate = false
}

// partialPass serves the pass by refilling only the components of the
// flow graph its triggers can have changed, and reports whether it did;
// false leaves the pass to the full fill. The flow graph joins channels
// by the live entries crossing them. The caller has ruled out capacity
// changes and late group joins. The window's triggers seed the refill:
//
//   - Members completed since the last pass seed nothing when no entry
//     is stalled and no survivor was frozen on their channels
//     (ffStable): every surviving rate is then bitwise the cached one.
//     Otherwise each of their channels seeds a walk.
//   - An entrant alone on every channel it crosses is a one-entry
//     component, rated in the one round fill would run for it
//     (rateAlone).
//   - Every other entrant seeds a walk from its first channel.
//
// refill walks and fills the seeded components. A window with no seed
// is a fold-only pass.
//
// The walks give up, changing no rate or freeze, on a busy channel: one
// carrying more than 1/compHotShare of the live members, which ties
// most of the graph into one component (a rack-scale parameter-server
// fan-in, a pooled-memory fabric) that a full pass fills for less than
// the walk plus the fill. The seed channels are checked before anything
// is walked, so such fabrics pay one comparison per channel. Below
// compHotShare live members every occupied channel is busy, so small
// fabrics take the full pass unless no walk is needed.
func (n *Network) partialPass(now sim.Time) bool {
	n.ffEpoch++
	ep := n.ffEpoch
	// Read before any entrant is rated: only survivors' freezes count.
	hot := n.stalled != 0 || !n.ffStable()
	walk, rated := hot, false
	for _, f := range n.instAdmits {
		if n.rateAlone(f, ep) {
			rated = true
			continue
		}
		for _, id := range f.pathIDs {
			if n.busy(id) {
				return false
			}
		}
		walk = true
	}
	if walk {
		if !n.refill(ep, hot) {
			return false
		}
		rated = rated || len(n.compEntries) > 0
	}
	n.passes++
	n.ffPasses++
	if rated {
		n.compPasses++
	}
	// The departed channels no walk reached still lost members: stamp
	// them too, so the fold re-sums exactly the channels whose entries
	// changed.
	for _, id := range n.ffPaths {
		n.chTouched[id] = ep
	}
	n.ffFold(now, ep)
	return true
}

// refill walks the components the window's walk seeds reach — the
// departed channels when hot, and every entrant not rated alone — one
// walk (reach) per component, then fills each on its own: the reached
// entries retire their old freezes, each component is filled over its
// own channels, and the new freezes are recorded. It reports false,
// having changed no rate or freeze, when a walk gives up.
func (n *Network) refill(ep uint64, hot bool) bool {
	n.compQueue, n.compEntries, n.compBounds = n.compQueue[:0], n.compEntries[:0], n.compBounds[:0]
	if hot {
		// Checked before anything is walked, as the walked entrants'
		// channels are; a lone entrant's channel is never walked.
		for _, id := range n.ffPaths {
			if n.chTouched[id] != ep && n.busy(id) {
				return false
			}
		}
		for _, id := range n.ffPaths {
			if !n.reach(id, ep) {
				return false
			}
		}
	}
	// A lone entrant's channels are stamped already, so its walk stops
	// at once.
	for _, f := range n.instAdmits {
		if !n.reach(f.pathIDs[0], ep) {
			return false
		}
	}
	ents := n.compEntries
	for _, f := range ents {
		if !f.pending {
			// Retire the freeze the entry's last rating recorded; an
			// entrant admitted since the last pass has none.
			if f.bneck >= 0 {
				n.frozenCount[f.bneck]--
			} else {
				n.stalled--
			}
		}
		f.rate = -1 // fill's unassigned marker
	}
	// A component's channel run may open with departed channels that
	// reached no entry; fill skips them as idle.
	lo := 0
	for _, hi := range n.compBounds {
		n.fill(n.compQueue[lo:hi])
		lo = hi
	}
	for _, f := range ents {
		n.freeze(f)
	}
	return true
}

// rateAlone rates f and reports true when it is alone on every channel
// it crosses, stamping its channels with ep; otherwise it changes
// nothing. Such an entry is a component of its own, which fill would
// rate in one round: the share is the smallest per-member capacity
// along its path, an exact tie going to the lowest channel id, and
// capacity/float64(m) is the very division fill performs on fresh
// scratch.
func (n *Network) rateAlone(f *Flow, ep uint64) bool {
	share, bneck, ok := n.loneShare(f.pathIDs, f.mult, f.mult)
	if !ok {
		return false
	}
	for _, id := range f.pathIDs {
		n.chTouched[id] = ep
	}
	f.rate, f.bneck = share, bneck
	n.freeze(f)
	return true
}

// loneShare returns the share fill gives an entry of m members alone on
// the given channels, in the one round it runs for it, and the channel
// that freezes it: the smallest capacity/float64(m) along them, the
// very division fill performs on fresh scratch, an exact tie going to
// the lowest channel id. It reports false when a channel carries other
// than live members: the entry's own m once it is admitted, none
// before (a lone transfer's closed form, soloForm, asks with m = 1).
func (n *Network) loneShare(ids []int32, m, live int) (share float64, bneck int32, ok bool) {
	fm := float64(m)
	share, bneck = math.Inf(1), -1
	for _, id := range ids {
		c := n.channels[id]
		if c.live != live {
			return 0, -1, false
		}
		if s := c.capacity / fm; s < share || s == share && id < bneck {
			share, bneck = s, id
		}
	}
	return share, bneck, true
}

// busy reports whether a channel carries more than 1/compHotShare of
// the live members (see partialPass).
func (n *Network) busy(id int32) bool { return compHotShare*n.channels[id].live > n.liveFlows }

// reach walks, breadth first, the component holding channel root unless
// a walk of this pass already reached it, appending its channels to
// compQueue, its entries to compEntries and the end of its channel run
// to compBounds. It reports false, leaving the walk unfinished, on
// pushing a busy channel. Each channel's walk first moves its head
// cursor past the tombstones at its front, and stops once it has seen
// every live member.
func (n *Network) reach(root int32, ep uint64) bool {
	if n.chTouched[root] == ep {
		return true
	}
	first := len(n.compEntries)
	h := len(n.compQueue)
	if !n.push(root, ep) {
		return false
	}
	for ; h < len(n.compQueue); h++ {
		c := n.compQueue[h]
		act := c.active
		i := c.head
		for int(i) < len(act) && act[i].finished {
			i++
		}
		c.head = i
		seen := 0
		for _, f := range act[i:] {
			if f.finished {
				continue
			}
			if f.visit != ep {
				f.visit = ep
				n.compEntries = append(n.compEntries, f)
				for _, id := range f.pathIDs {
					if !n.push(id, ep) {
						return false
					}
				}
			}
			if seen += f.mult; seen == c.live {
				break
			}
		}
	}
	if len(n.compEntries) > first {
		n.compBounds = append(n.compBounds, len(n.compQueue))
	}
	return true
}

// push queues channel id for the walk unless it is stamped with ep
// already, and reports false when it is busy.
func (n *Network) push(id int32, ep uint64) bool {
	if n.chTouched[id] == ep {
		return true
	}
	n.chTouched[id] = ep
	n.compQueue = append(n.compQueue, n.channels[id])
	return !n.busy(id)
}

// freeze records one rated entry in the freeze bookkeeping: the
// channel that froze it (f.bneck), or the stalled count when its rate
// is 0.
func (n *Network) freeze(f *Flow) {
	if f.rate <= 0 {
		n.stalled++
		f.bneck = -1
		return
	}
	n.frozenCount[f.bneck]++
}

// channelRate sums the live flow rates crossing a channel, walking the
// active list in admission order — the bitwise-pinned fold order. A
// group entry contributes per member by repeated addition (rate*m
// would round differently from m member entries summing in sequence).
//
// Flows finish roughly in admission order, so a list's tombstones
// gather at its front. The walk starts at the channel's head cursor,
// first moving it past the finished entries there, and stops once it
// has seen every live member: the entries it skips are all finished,
// which the whole-list sum skips too, so the summands and their order
// are the same.
func channelRate(c *Channel) float64 {
	if c.live == 0 {
		return 0.0
	}
	act := c.active
	i := c.head
	for act[i].finished {
		i++
	}
	c.head = i
	rate := 0.0
	seen := 0
	for _, f := range act[i:] {
		if f.finished {
			continue
		}
		if f.rate > 0 {
			if f.mult == 1 {
				rate += f.rate
			} else {
				for j := 0; j < f.mult; j++ {
					rate += f.rate
				}
			}
		}
		if seen += f.mult; seen == c.live {
			break
		}
	}
	return rate
}

// ffStable reports whether no surviving entry was frozen on any
// channel of the paths completed since the last pass. Combined with no
// stalled entries, this proves that without the window's entrants
// every surviving filling round replays bitwise: completed flows never
// crossed a surviving round's bottleneck (their shares were never
// subtracted there and their members never counted there), so each
// surviving share's dividend and divisor are unchanged. The entrants'
// components are refilled apart (see partialPass).
func (n *Network) ffStable() bool {
	for _, id := range n.ffPaths {
		if n.frozenCount[id] != 0 {
			return false
		}
	}
	return true
}

// ffFold is the utilization fold every pass kind runs, over the
// maintained non-idle channel list: channels stamped with the pass's
// touch epoch re-sum their active lists; the rest keep their cached
// folded rate (a re-sum would add the identical float64 summands in
// the identical order).
//
// A channel with no live flows and a zero current rate is dropped from
// the list without accounting: folding it would add rate*dt = 0 to the
// integral and re-store a zero rate, and IntegratedBytes extrapolates
// the zero rate past the stale lastAccount stamp, so the skip is exact.
// Every other channel is visited so one that just went idle stops
// accumulating busy time. A dropped channel re-enters the list on the
// next admission that crosses it. Summation order is the channel's
// active list in admission order — the order the eager implementation
// summed — so the folded integrals are bit-identical.
func (n *Network) ffFold(now sim.Time, ep uint64) {
	keep := n.activeCh[:0]
	for _, c := range n.activeCh {
		if c.live == 0 && c.currentRate == 0 {
			c.inActive = false
			continue
		}
		rate := c.currentRate
		if n.chTouched[c.id] == ep {
			rate = channelRate(c)
		}
		c.account(now, rate)
		if c.live == 0 && c.currentRate == 0 {
			c.inActive = false
			continue
		}
		keep = append(keep, c)
	}
	for i := len(keep); i < len(n.activeCh); i++ {
		n.activeCh[i] = nil
	}
	n.activeCh = keep
}

// scheduleCompletions settles every live entry's completion deadline
// from the rates of the last pass and attaches the tie-break ranks
// reserved by refreshCompletions, walking entries in admission order so
// rank r(i) = rankBase + i — the exact sequence the eager re-create
// consumed at the instant's last trigger. It runs once per dirty
// instant, at instant end, and consumes no fresh sequence numbers,
// which is what keeps the SeqMark valid across pure completion
// cascades.
//
// The keys stay on the entries; the walk does no queue operation per
// entry. It collects the entries tied at the earliest deadline, in rank
// order, into the due list, and arms the network's one completion event
// at the first of them. That is exact: the event fires at the earliest
// key among all entries, as the earliest of per-entry events would, and
// no other entry can come due before the next flush re-derives its
// deadline (see refreshCompletions). An entry whose deadline did not
// move is counted as skipped, the rest as rescheduled. A stalled entry
// is disarmed and re-keyed by the flush after the trigger that
// un-stalls it; when every live entry is stalled, the event is
// cancelled.
func (n *Network) scheduleCompletions(now sim.Time) {
	rank := n.rankBase
	floor := farFuture
	due := n.due[:0]
	for _, f := range n.flows {
		if f.finished {
			continue
		}
		r := rank
		rank += uint64(f.mult) // a group entry owns one rank per member
		if f.rate <= 0 {
			f.armed = false
			continue // re-keyed by the flush after the next change
		}
		target := deadline(now, f.remaining, f.rate)
		if f.armed && f.due == target {
			n.skipped += uint64(f.mult)
		} else {
			n.rescheduled += uint64(f.mult)
		}
		f.due, f.doneRank, f.armed = target, r, true
		if target < floor {
			floor = target
			due = due[:0]
		}
		if target == floor {
			due = append(due, f)
		}
	}
	n.due, n.dueHead, n.dueFloor = due, 0, floor
	if len(due) > 0 {
		n.placeDone(due[0])
	} else if n.doneEv != nil {
		n.eng.Cancel(n.doneEv)
	}
}

// deadline is the completion instant of remaining bytes delivered at
// rate from now on: the nanosecond the last byte arrives in, rounded
// up.
func deadline(now sim.Time, remaining, rate float64) sim.Time {
	return now + sim.Time(math.Ceil(remaining/rate*1e9))
}

// complete handles the entry's completion. For a plain flow it
// completes the one member; for an aggregated group it is the carrier:
// the first live member completes immediately, and the rest fan out
// (fanNext) at the consecutive reserved ranks doneRank+1.. — exactly
// the positions the unaggregated members' events held, with nothing
// able to interleave between consecutive ranks.
//
// The fan-out is conditional on the settle leaving the representative's
// remaining at exactly zero. When rate*dt lands short by float dust,
// the unaggregated world parks the not-yet-fired siblings
// (refreshCompletions' due-entry walk sees remaining != 0) and the
// flush re-places them one deadline tick later — so the group must do
// the same: no echoes, and the entry (disarmed, mult counting the
// survivors) gets a fresh key from the next flush at the dust deadline,
// resuming from doneBase. A member's own onDone may also force a pass
// mid-fan-out (exactly as it could between unaggregated completions);
// the partially-drained entry represents that correctly.
func (n *Network) complete(f *Flow) {
	f.armed = false
	j := f.doneBase
	f.doneBase++
	// Read before the member completes: the last member finishes the
	// entry, which may then be recycled and restarted by its onDone.
	group := f.mult > 1
	n.completeMember(f, j)
	if group && f.remaining == 0 {
		f.fanEv = n.eng.AtRanked(n.eng.Now(), f.doneRank+1, f.fire)
	}
}

// fanNext completes a group's next member. The members fan out one
// event each at ranks doneRank+1.. of the carrier's instant. Nothing
// else can hold a rank inside the reserved range, so the members
// dispatch back to back and one queued event at a time suffices: each
// member's event is recycled as it fires and re-armed at the next rank
// before the member completes, with doneRank as the rank cursor and
// doneBase naming the member. A group of any size thus costs no
// closure and no event allocation.
func (n *Network) fanNext(f *Flow) {
	n.eng.Recycle(f.fanEv)
	f.fanEv = nil
	f.doneRank++
	j := f.doneBase
	f.doneBase++
	if f.mult > 1 {
		f.fanEv = n.eng.AtRanked(n.eng.Now(), f.doneRank+1, f.fire)
	}
	n.completeMember(f, j)
}

// completeMember retires one member of an entry — the whole entry when
// it is a plain flow. j indexes the member's callback in f.dones. The
// operation sequence per member is exactly the historical complete()'s,
// so counters, settle points, rank refreshes, and onDone ordering are
// byte-identical to the unaggregated schedule.
func (n *Network) completeMember(f *Flow, j int) {
	now := n.eng.Now()
	n.requests++
	n.settle(now)
	n.liveFlows--
	f.mult--
	for _, id := range f.pathIDs {
		c := n.channels[id]
		c.bytesCarried += f.size
		c.live--
	}
	// The member's departure invalidates cached allocations along its
	// path unless no survivor was frozen there; record the path for the
	// skip check regardless of whether the entry is drained.
	n.ffPaths = append(n.ffPaths, f.pathIDs...)
	n.trigMask |= trigComplete
	// Take the member's callback before the entry's dones buffer is
	// handed on below.
	var done func()
	if len(f.dones) > 0 {
		done = f.dones[j]
		f.dones[j] = nil
	} else {
		done = f.onDone
		f.onDone = nil // a recycled flow keeps nothing its callback captured
	}
	if f.mult == 0 {
		if n.groupObs != nil && len(f.dones) > 1 {
			n.groupObs(len(f.dones))
		}
		// Every member's callback has been taken: hand the buffer on
		// now, not when the entry's tombstones are compacted. One
		// sized before the largest group so far was seen is dropped,
		// so every spare fits any group.
		if f.dones != nil {
			if cap(f.dones) == n.donesCap {
				n.spareDone = append(n.spareDone, f.dones[:0])
			}
			f.dones = nil
		}
		f.remaining = 0
		f.finished = true
		f.finish = now
		if f.bneck >= 0 {
			n.frozenCount[f.bneck]--
			f.bneck = -1
		}
		// Leave the active lists by tombstone: iteration skips finished
		// flows, and a list compacts once tombstones reach half its
		// length, or at once when its channel has no live member left.
		// The second rule recycles the flows of a channel that carries
		// a few transfers per iteration at the iteration's pace; left
		// to the first, their tombstones (and so the flow records) would
		// pile up over many iterations before one compaction.
		n.deadFlows++
		for _, id := range f.pathIDs {
			c := n.channels[id]
			c.dead++
			if c.live == 0 || c.dead >= listCompactMin && c.dead*2 > len(c.active) {
				c.active = n.compactList(c.active)
				c.dead = 0
				c.head = 0
			}
		}
		if n.deadFlows >= listCompactMin && n.deadFlows*2 > len(n.flows) {
			n.flows = n.compactList(n.flows)
			n.deadFlows = 0
		}
	}
	n.refreshCompletions(now)
	n.markDirty()
	if done != nil {
		done()
	}
}

// compactList removes finished flows from a list in place, preserving
// admission order, and drops each removed tombstone's list reference —
// the point at which an ephemeral flow with no remaining references is
// recycled.
func (n *Network) compactList(s []*Flow) []*Flow {
	live := s[:0]
	for _, f := range s {
		if f.finished {
			f.listRefs--
			if f.listRefs == 0 && f.ephemeral {
				n.flowPool.Put(f)
			}
			continue
		}
		live = append(live, f)
	}
	for i := len(live); i < len(s); i++ {
		s[i] = nil
	}
	return live
}

func (n *Network) newFlow() *Flow {
	if f := n.flowPool.Get(); f != nil {
		ids := f.pathIDs[:0] // keep the path-id buffer across recycles
		fire := f.fire       // and the bound callback
		*f = Flow{}
		f.pathIDs = ids
		f.fire = fire
		return f
	}
	f := &Flow{}
	f.fire = f.dispatch
	return f
}

// pow2 rounds n up to a power of two: at least the capacity append's
// doubling would reach, and a size class of its own.
func pow2(n int) int { return 1 << bits.Len(uint(n-1)) }

// growDones returns s with capacity for need group members,
// reallocating it at donesCap when short. A need above donesCap first
// raises donesCap to need rounded up to a power of two and drops the
// spare buffers, which are now too small.
func (n *Network) growDones(s []func(), need int) []func() {
	if cap(s) >= need {
		return s
	}
	if need > n.donesCap {
		n.donesCap = pow2(need)
		clear(n.spareDone)
		n.spareDone = n.spareDone[:0]
	}
	grown := make([]func(), len(s), n.donesCap)
	copy(grown, s)
	return grown
}

// spareDones pops a spare dones buffer, or returns nil when none is
// left. Buffers stay with the network rather than with the records
// that led groups: the LIFO flow pool makes a different record the
// leader from one iteration to the next, and a buffer kept on its
// record would sit in the pool, so every record that ever led a group
// would need one of its own.
func (n *Network) spareDones() []func() {
	k := len(n.spareDone)
	if k == 0 {
		return nil
	}
	buf := n.spareDone[k-1]
	n.spareDone[k-1] = nil
	n.spareDone = n.spareDone[:k-1]
	return buf
}

// SetLinkCapacity changes a link's per-direction capacities at the
// current virtual time — a degraded lane, a throttled switch port, a
// noisy multi-tenant neighbor. In-flight flows are settled at their old
// rates first, then every allocation is recomputed. This is what makes
// the paper's dynamic re-profiling observable: conditions genuinely
// change under a running workload.
func (n *Network) SetLinkCapacity(l *Link, fwdCap, revCap float64) {
	if fwdCap <= 0 || revCap <= 0 {
		panic(fmt.Sprintf("fabric: link %q capacity change to non-positive", l.name))
	}
	now := n.eng.Now()
	n.requests++
	n.settle(now)
	l.fwd.account(now, l.fwd.currentRate)
	l.rev.account(now, l.rev.currentRate)
	l.fwd.capacity = fwdCap
	l.rev.capacity = revCap
	n.trigMask |= trigCapacity
	n.refreshCompletions(now)
	n.markDirty()
}
