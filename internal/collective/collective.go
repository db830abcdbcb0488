// Package collective times MPI-like collective communication over the
// simulated fabric: a ring allreduce (p-1 reduce-scatter rounds, then
// p-1 all-gather rounds) and a two-level hierarchy of rings.
//
// The collectives move byte counts, not data: every step's transfers
// are issued on the simulation engine through a caller-supplied send
// function, so ring bandwidth, direction and contention come from the
// fabric. The ring can run in either direction; the memory devices'
// sync groups run two rings in opposite directions to fill both halves
// of each full-duplex link (paper Figure 11b).
package collective

import (
	"fmt"

	"coarse/internal/sim"
	"coarse/internal/telemetry"
)

// SendFunc issues a timed transfer of size bytes from participant i to
// its ring neighbor in the given direction (reverse=false means i+1,
// reverse=true means i-1) and calls onDone when the payload lands.
type SendFunc func(i int, reverse bool, size int64, onDone func())

// Ring performs ring collectives among p participants.
type Ring struct {
	eng  *sim.Engine
	p    int
	send SendFunc
	// ALUBytesPerSec models the per-participant reduction throughput;
	// zero means reduction is free (GPU reductions are bandwidth-trivial).
	ALUBytesPerSec float64

	// Telemetry handles; nil (no-op) until AttachTelemetry is called.
	sends     *telemetry.Counter
	sentBytes *telemetry.Counter

	ops *sim.FreeList[bytesOp] // recycled AllReduceBytes records
}

// AttachTelemetry registers <prefix>/sends and <prefix>/sent_bytes
// counters that every ring step increments. Safe with a nil registry.
func (r *Ring) AttachTelemetry(reg *telemetry.Registry, prefix string) {
	r.sends = reg.Counter(prefix+"/sends", "ops")
	r.sentBytes = reg.Counter(prefix+"/sent_bytes", "B")
}

// xmit wraps the caller's SendFunc with step accounting.
func (r *Ring) xmit(i int, reverse bool, size int64, onDone func()) {
	r.sends.Inc()
	r.sentBytes.Add(float64(size))
	r.send(i, reverse, size, onDone)
}

// NewRing creates a ring of p participants using send for transfers.
func NewRing(eng *sim.Engine, p int, send SendFunc) *Ring {
	if p < 1 {
		panic(fmt.Sprintf("collective: ring of %d", p))
	}
	return &Ring{eng: eng, p: p, send: send, ops: sim.NewFreeList[bytesOp](eng)}
}

// AllReduceBytes runs the allreduce timing for a payload of totalBytes
// without moving data: 2(p-1) rounds in which every participant sends
// one totalBytes/p segment to its neighbor, with ALU time charged on the
// p-1 reduction rounds. The first totalBytes mod p segments carry one
// extra byte. Each call runs on a recycled bytesOp record, so the
// rounds allocate nothing once the ring's free list has grown.
func (r *Ring) AllReduceBytes(totalBytes int64, reverse bool, onDone func()) {
	if totalBytes < 0 {
		panic("collective: negative payload")
	}
	if r.p == 1 {
		r.eng.Schedule(0, onDone)
		return
	}
	op := r.ops.Get()
	if op == nil {
		op = r.newBytesOp()
	}
	op.reverse = reverse
	op.segBase = totalBytes / int64(r.p)
	op.segExtra = totalBytes % int64(r.p)
	op.step = 0
	op.onDone = onDone
	for i := range op.sendSeg {
		op.sendSeg[i] = i
	}
	op.round()
}

// bytesOp is one AllReduceBytes call in flight. Its callbacks are bound
// once per object: arrive[i] runs when participant i's segment lands,
// after when one arrival's reduction is done.
type bytesOp struct {
	r                 *Ring
	reverse           bool
	segBase, segExtra int64
	step, remaining   int
	sendSeg, spare    []int // segment each participant forwards this round; rotation scratch
	onDone            func()
	arrive            []func()
	after             func()
}

func (r *Ring) newBytesOp() *bytesOp {
	op := &bytesOp{
		r:       r,
		sendSeg: make([]int, r.p),
		spare:   make([]int, r.p),
		arrive:  make([]func(), r.p),
	}
	for i := range op.arrive {
		i := i
		op.arrive[i] = func() { op.arrived(i) }
	}
	op.after = op.reduced
	return op
}

func (op *bytesOp) segSize(s int) int64 {
	if int64(s) < op.segExtra {
		return op.segBase + 1
	}
	return op.segBase
}

// round starts step op.step, or finishes the call after the last one.
func (op *bytesOp) round() {
	r := op.r
	if op.step == 2*(r.p-1) {
		onDone := op.onDone
		op.onDone = nil
		r.ops.Put(op)
		if onDone != nil {
			onDone()
		}
		return
	}
	op.remaining = r.p
	for i := 0; i < r.p; i++ {
		r.xmit(i, op.reverse, op.segSize(op.sendSeg[i]), op.arrive[i])
	}
}

// arrived charges the reduction of participant i's segment on the p-1
// reduce-scatter rounds. sendSeg stays as sent until every arrival of
// the round is reduced, so it still names i's segment.
func (op *bytesOp) arrived(i int) {
	if op.step < op.r.p-1 {
		op.r.afterCompute(op.segSize(op.sendSeg[i]), op.after)
		return
	}
	op.reduced()
}

// reduced counts one finished arrival; the last of a round rotates the
// segments (each receiver forwards the one it just got) and starts the
// next round.
func (op *bytesOp) reduced() {
	op.remaining--
	if op.remaining > 0 {
		return
	}
	r := op.r
	for j, seg := range op.sendSeg {
		op.spare[r.neighbor(j, op.reverse)] = seg
	}
	op.sendSeg, op.spare = op.spare, op.sendSeg
	op.step++
	op.round()
}

func (r *Ring) neighbor(i int, reverse bool) int {
	if reverse {
		return (i - 1 + r.p) % r.p
	}
	return (i + 1) % r.p
}

func (r *Ring) afterCompute(size int64, fn func()) {
	if r.ALUBytesPerSec <= 0 {
		fn()
		return
	}
	r.eng.Schedule(sim.Seconds(float64(size)/r.ALUBytesPerSec), fn)
}

// RingBytesPerParticipant returns the total bytes each participant sends
// in a full allreduce of n payload bytes: 2(p-1)/p * n, the paper's
// Section III-F traffic model.
func RingBytesPerParticipant(n int64, p int) int64 {
	if p <= 1 {
		return 0
	}
	return 2 * (int64(p) - 1) * n / int64(p)
}
