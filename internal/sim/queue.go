package sim

import (
	"container/heap"
	"fmt"
	"os"
)

// EventQueue is the engine's pending-event store. Implementations must
// order events by (time, seq) — the exact total order the engine's
// determinism contract is built on — and maintain each queued event's
// index field (>= 0 while queued, -1 once removed) so the engine can
// tell queued events from fired ones in O(1).
//
// Two implementations exist: the binary heap (the historical default)
// and a hierarchical timing wheel (calendar queue) that trades the
// heap's O(log n) push/fix for O(1) bucket operations under the
// cancel/retime churn the fabric's incremental reshare generates. Both
// dispatch every program in the same order, which the randomized
// queueprop tests pin; the choice is performance, never semantics.
type EventQueue interface {
	// Push inserts a new event.
	Push(*Event)
	// Pop removes and returns the minimum (time, seq) event, or nil
	// when empty.
	Pop() *Event
	// Peek returns the minimum (time, seq) event without removing it,
	// or nil when empty. Peek may reorganize internal structure.
	Peek() *Event
	// Fix re-establishes order for a queued event whose at or seq was
	// changed in place (Reschedule, Retime, PlaceRanked).
	Fix(*Event)
	// Len returns the number of queued events, tombstones included.
	Len() int
	// Compact removes every cancelled event, setting its index to -1,
	// and returns how many were removed. Relative order of survivors
	// is unchanged.
	Compact() int
}

// QueueKind selects an EventQueue implementation.
type QueueKind string

const (
	// QueueHeap is the binary-heap event queue, the default.
	QueueHeap QueueKind = "heap"
	// QueueWheel is the hierarchical timing-wheel event queue.
	QueueWheel QueueKind = "wheel"
)

// queueKindEnv overrides the default queue implementation process-wide;
// the CI golden-drift and race lanes use it to run the whole suite on
// the wheel without touching call sites.
const queueKindEnv = "COARSE_EVENT_QUEUE"

// DefaultQueueKind returns the queue implementation NewEngine uses:
// QueueHeap unless the COARSE_EVENT_QUEUE environment variable names
// another kind. A value that names no kind is an error. NewEngine
// cannot fail and uses the heap for it, so the commands check first and
// refuse to run rather than silently replaying the heap on a typo.
func DefaultQueueKind() (QueueKind, error) {
	switch v := QueueKind(os.Getenv(queueKindEnv)); v {
	case "", QueueHeap:
		return QueueHeap, nil
	case QueueWheel:
		return QueueWheel, nil
	default:
		return QueueHeap, fmt.Errorf("%s=%q names no event queue (want %q or %q)", queueKindEnv, string(v), QueueHeap, QueueWheel)
	}
}

// newQueue builds an empty queue of the given kind.
func newQueue(kind QueueKind) EventQueue {
	if kind == QueueWheel {
		return newWheelQueue()
	}
	return &heapQueue{}
}

// heapQueue is the binary-heap EventQueue: events in a slice-backed
// heap ordered by (time, seq), index = heap position.
type heapQueue struct {
	q eventHeap
}

type eventHeap []*Event

func (q eventHeap) Len() int { return len(q) }

func (q eventHeap) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventHeap) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventHeap) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

func (h *heapQueue) Push(e *Event) { heap.Push(&h.q, e) }

func (h *heapQueue) Pop() *Event {
	if len(h.q) == 0 {
		return nil
	}
	return heap.Pop(&h.q).(*Event)
}

func (h *heapQueue) Peek() *Event {
	if len(h.q) == 0 {
		return nil
	}
	return h.q[0]
}

func (h *heapQueue) Fix(e *Event) { heap.Fix(&h.q, e.index) }

func (h *heapQueue) Len() int { return len(h.q) }

// Compact rebuilds the heap without tombstones. Heap order is
// re-established from (time, seq), so compaction is invisible to
// dispatch order.
func (h *heapQueue) Compact() int {
	orig := h.q
	live := orig[:0]
	for _, ev := range orig {
		if ev.cancel {
			ev.index = -1
			continue
		}
		live = append(live, ev)
	}
	removed := len(orig) - len(live)
	for i := len(live); i < len(orig); i++ {
		orig[i] = nil
	}
	h.q = live
	for i, ev := range h.q {
		ev.index = i
	}
	heap.Init(&h.q)
	return removed
}
