package collective

import (
	"fmt"

	"coarse/internal/sim"
)

// PairSendFunc issues a timed transfer of size bytes between two
// specific participants.
type PairSendFunc func(from, to int, size int64, onDone func())

// Hierarchy performs two-level collectives for multi-node machines:
// an intra-node ring allreduce per node, a cross-node ring among node
// leaders, then an intra-node broadcast. Each cross-node round moves
// the full payload only between leaders, so the slow datacenter links
// carry 2(m-1)/m·n bytes instead of a flat ring's repeated crossings —
// the standard hierarchical optimization (an extension beyond the
// paper's flat-ring baseline).
type Hierarchy struct {
	eng    *sim.Engine
	groups [][]int // participant ids per node, in ring order
	send   PairSendFunc
	// ALUBytesPerSec models reduction throughput, as in Ring.
	ALUBytesPerSec float64

	// The per-node rings and the leader ring, built once so their
	// record free lists are reused across calls.
	nodeRings  []*Ring
	leaderRing *Ring
	ops        *sim.FreeList[hierOp]
	bcasts     *sim.FreeList[bcastOp]
}

// NewHierarchy builds a hierarchy over the given per-node participant
// groups. Every participant id must appear in exactly one group.
func NewHierarchy(eng *sim.Engine, groups [][]int, send PairSendFunc) *Hierarchy {
	if len(groups) == 0 {
		panic("collective: empty hierarchy")
	}
	seen := map[int]bool{}
	for _, g := range groups {
		if len(g) == 0 {
			panic("collective: empty node group")
		}
		for _, id := range g {
			if seen[id] {
				panic(fmt.Sprintf("collective: participant %d in two groups", id))
			}
			seen[id] = true
		}
	}
	h := &Hierarchy{
		eng:    eng,
		groups: groups,
		send:   send,
		ops:    sim.NewFreeList[hierOp](eng),
		bcasts: sim.NewFreeList[bcastOp](eng),
	}
	leaders := make([]int, len(groups))
	for i, g := range groups {
		h.nodeRings = append(h.nodeRings, h.ringOver(g))
		leaders[i] = g[0]
	}
	h.leaderRing = h.ringOver(leaders)
	return h
}

// ringOver adapts a participant-id subset to a Ring.
func (h *Hierarchy) ringOver(ids []int) *Ring {
	send := func(i int, reverse bool, size int64, onDone func()) {
		j := (i + 1) % len(ids)
		if reverse {
			j = (i - 1 + len(ids)) % len(ids)
		}
		if len(ids) == 1 {
			h.eng.Schedule(0, onDone)
			return
		}
		h.send(ids[i], ids[j], size, onDone)
	}
	return NewRing(h.eng, len(ids), send)
}

// syncALU hands the hierarchy's current ALU throughput to its rings.
func (h *Hierarchy) syncALU() {
	for _, r := range h.nodeRings {
		r.ALUBytesPerSec = h.ALUBytesPerSec
	}
	h.leaderRing.ALUBytesPerSec = h.ALUBytesPerSec
}

// AllReduceBytes runs the two-level timing for a payload of totalBytes.
// Each call runs on a recycled hierOp record.
func (h *Hierarchy) AllReduceBytes(totalBytes int64, onDone func()) {
	h.syncALU()
	op := h.ops.Get()
	if op == nil {
		op = &hierOp{h: h}
		op.nodeDone = op.nodeReduced
		op.leadersDone = op.leadersReduced
		op.bcastDone = op.broadcasted
	}
	op.bytes, op.onDone = totalBytes, onDone
	// Phase 1: intra-node allreduce, all nodes concurrently.
	op.left = len(h.groups)
	for _, r := range h.nodeRings {
		r.AllReduceBytes(totalBytes, false, op.nodeDone)
	}
}

// hierOp is one Hierarchy.AllReduceBytes call in flight; its callbacks
// are bound once per object.
type hierOp struct {
	h      *Hierarchy
	bytes  int64
	left   int // node rings, then broadcasts, still running
	onDone func()

	nodeDone, leadersDone, bcastDone func()
}

// nodeReduced counts one node ring's end; after the last, phase 2
// allreduces across the node leaders.
func (op *hierOp) nodeReduced() {
	op.left--
	if op.left == 0 {
		op.h.leaderRing.AllReduceBytes(op.bytes, false, op.leadersDone)
	}
}

// leadersReduced starts phase 3: leaders broadcast within their nodes.
func (op *hierOp) leadersReduced() {
	op.left = len(op.h.groups)
	for _, g := range op.h.groups {
		op.h.broadcastBytes(g, op.bytes, op.bcastDone)
	}
}

func (op *hierOp) broadcasted() {
	op.left--
	if op.left > 0 {
		return
	}
	onDone := op.onDone
	op.onDone = nil
	op.h.ops.Put(op)
	if onDone != nil {
		onDone()
	}
}

// broadcastBytes pipelines the payload down the node's chain on a
// recycled bcastOp record.
func (h *Hierarchy) broadcastBytes(ids []int, bytes int64, onDone func()) {
	if len(ids) == 1 {
		h.eng.Schedule(0, onDone)
		return
	}
	op := h.bcasts.Get()
	if op == nil {
		op = &bcastOp{h: h}
		op.hop = op.landed
	}
	op.ids, op.bytes, op.i, op.onDone = ids, bytes, 0, onDone
	h.send(ids[0], ids[1], bytes, op.hop)
}

// bcastOp is one broadcastBytes chain in flight: ids[i] has just sent
// to ids[i+1]. hop is bound once per object.
type bcastOp struct {
	h      *Hierarchy
	ids    []int
	bytes  int64
	i      int
	onDone func()
	hop    func()
}

func (op *bcastOp) landed() {
	op.i++
	if op.i < len(op.ids)-1 {
		op.h.send(op.ids[op.i], op.ids[op.i+1], op.bytes, op.hop)
		return
	}
	onDone := op.onDone
	op.ids, op.onDone = nil, nil
	op.h.bcasts.Put(op)
	onDone()
}
