package sim

import "container/heap"

// heapQueue is the engine's pending-event store: events in a
// slice-backed binary heap ordered by (time, seq) — the total order the
// engine's determinism contract is built on — with each queued event's
// index holding its heap position (-1 once removed), so the engine can
// tell queued events from fired ones in O(1).
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
	q[i].index = int32(i)
	q[j].index = int32(j)
}

func (q *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = int32(len(*q))
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

// Push inserts a new event.
func (h *heapQueue) Push(e *Event) { heap.Push(&h.q, e) }

// Pop removes and returns the minimum (time, seq) event, or nil when
// empty.
func (h *heapQueue) Pop() *Event {
	if len(h.q) == 0 {
		return nil
	}
	return heap.Pop(&h.q).(*Event)
}

// Peek returns the minimum (time, seq) event without removing it, or
// nil when empty.
func (h *heapQueue) Peek() *Event {
	if len(h.q) == 0 {
		return nil
	}
	return h.q[0]
}

// Fix re-establishes order for a queued event whose at or seq was
// changed in place (Reschedule, Retime, PlaceRanked).
func (h *heapQueue) Fix(e *Event) { heap.Fix(&h.q, int(e.index)) }

// Len returns the number of queued events, tombstones included.
func (h *heapQueue) Len() int { return len(h.q) }

// Compact rebuilds the heap without tombstones, setting each evicted
// event's index to -1, and returns how many it removed. Heap order is
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
		ev.index = int32(i)
	}
	heap.Init(&h.q)
	return removed
}
