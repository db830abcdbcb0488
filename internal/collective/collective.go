// Package collective implements MPI-like collective communication over
// the simulated fabric: ring reduce-scatter, all-gather and allreduce.
//
// The collectives are functional — participants hold real float32
// buffers and the reduction actually sums them — and timed: every step's
// transfers are issued on the simulation engine through a caller-supplied
// send function, so ring bandwidth, direction and contention come from
// the fabric. The ring can run in either direction; the memory devices'
// sync groups run two rings in opposite directions to fill both halves
// of each full-duplex link (paper Figure 11b).
package collective

import (
	"fmt"

	"coarse/internal/sim"
	"coarse/internal/telemetry"
	"coarse/internal/tensor"
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

// segment returns the [lo,hi) element range of segment s for buffers of
// length n split p ways.
func segment(n, p, s int) (int, int) {
	base := n / p
	extra := n % p
	lo := s*base + min(s, extra)
	ln := base
	if s < extra {
		ln++
	}
	return lo, lo + ln
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// AllReduce sums the participants' equal-length buffers element-wise so
// every buffer ends up holding the total, then calls onDone. Passing
// average=true divides the result by p. Buffers are mutated in place.
func (r *Ring) AllReduce(buffers [][]float32, reverse, average bool, onDone func()) {
	r.ReduceScatter(buffers, reverse, func() {
		r.AllGather(buffers, reverse, func() {
			if average {
				inv := 1 / float32(r.p)
				for _, b := range buffers {
					for i := range b {
						b[i] *= inv
					}
				}
			}
			if onDone != nil {
				onDone()
			}
		})
	})
}

// ReduceScatter runs the p-1 reduction rounds: afterwards participant i
// holds the fully reduced segment (i+1) mod p (forward direction).
func (r *Ring) ReduceScatter(buffers [][]float32, reverse bool, onDone func()) {
	r.validate(buffers)
	if r.p == 1 {
		r.eng.Schedule(0, onDone)
		return
	}
	n := len(buffers[0])
	// sendSeg[i] tracks which segment participant i forwards this round.
	sendSeg := make([]int, r.p)
	for i := range sendSeg {
		sendSeg[i] = i
	}
	var round func(step int)
	round = func(step int) {
		if step == r.p-1 {
			if onDone != nil {
				onDone()
			}
			return
		}
		remaining := r.p
		for i := 0; i < r.p; i++ {
			i := i
			seg := sendSeg[i]
			lo, hi := segment(n, r.p, seg)
			size := int64(hi-lo) * tensor.BytesPerElem
			dst := r.neighbor(i, reverse)
			r.xmit(i, reverse, size, func() {
				// Payload landed: dst accumulates i's segment into its own.
				tensor.AddSlice(buffers[dst][lo:hi], buffers[i][lo:hi])
				r.afterCompute(size, func() {
					remaining--
					if remaining == 0 {
						// dst now forwards the segment it just reduced.
						next := make([]int, r.p)
						for j := 0; j < r.p; j++ {
							next[r.neighbor(j, reverse)] = sendSeg[j]
						}
						sendSeg = next
						round(step + 1)
					}
				})
			})
		}
	}
	round(0)
}

// AllGather propagates each participant's reduced segment around the
// ring so every buffer holds every segment. It must run in the same
// direction as the preceding ReduceScatter.
func (r *Ring) AllGather(buffers [][]float32, reverse bool, onDone func()) {
	r.validate(buffers)
	if r.p == 1 {
		r.eng.Schedule(0, onDone)
		return
	}
	n := len(buffers[0])
	// After reduce-scatter, participant i owns the segment it last
	// reduced: with p-1 rounds of rotation starting from seg i, that is
	// segment (i+1) mod p forward, (i-1+p) mod p reverse.
	own := make([]int, r.p)
	for i := range own {
		if reverse {
			own[i] = (i - 1 + r.p) % r.p
		} else {
			own[i] = (i + 1) % r.p
		}
	}
	var round func(step int)
	round = func(step int) {
		if step == r.p-1 {
			if onDone != nil {
				onDone()
			}
			return
		}
		remaining := r.p
		for i := 0; i < r.p; i++ {
			i := i
			seg := own[i]
			lo, hi := segment(n, r.p, seg)
			size := int64(hi-lo) * tensor.BytesPerElem
			dst := r.neighbor(i, reverse)
			r.xmit(i, reverse, size, func() {
				copy(buffers[dst][lo:hi], buffers[i][lo:hi])
				remaining--
				if remaining == 0 {
					next := make([]int, r.p)
					for j := 0; j < r.p; j++ {
						next[r.neighbor(j, reverse)] = own[j]
					}
					own = next
					round(step + 1)
				}
			})
		}
	}
	round(0)
}

// Broadcast copies root's buffer to every participant around the ring.
func (r *Ring) Broadcast(buffers [][]float32, root int, onDone func()) {
	r.validate(buffers)
	if r.p == 1 {
		r.eng.Schedule(0, onDone)
		return
	}
	size := int64(len(buffers[0])) * tensor.BytesPerElem
	var hop func(i, hops int)
	hop = func(i, hops int) {
		if hops == r.p-1 {
			if onDone != nil {
				onDone()
			}
			return
		}
		dst := r.neighbor(i, false)
		r.xmit(i, false, size, func() {
			copy(buffers[dst], buffers[i])
			hop(dst, hops+1)
		})
	}
	hop(root, 0)
}

// AllReduceBytes runs the allreduce timing for a payload of totalBytes
// without moving data: 2(p-1) rounds in which every participant sends
// one totalBytes/p segment to its neighbor, with ALU time charged on the
// p-1 reduction rounds. Strategies use it when gradients are simulated
// rather than materialized, keeping the timing path identical to the
// functional one. Each call runs on a recycled bytesOp record, so the
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

func (r *Ring) validate(buffers [][]float32) {
	if len(buffers) != r.p {
		panic(fmt.Sprintf("collective: %d buffers for %d participants", len(buffers), r.p))
	}
	for i, b := range buffers {
		if len(b) != len(buffers[0]) {
			panic(fmt.Sprintf("collective: buffer %d length %d != %d", i, len(b), len(buffers[0])))
		}
	}
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
