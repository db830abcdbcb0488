package sim

// heapQueue is the engine's pending-event store: a slice-backed 4-ary
// heap of events ordered by (time, seq) — the total order the engine's
// determinism contract is built on — with each queued event's index
// holding its heap position (-1 once removed), so the engine can tell
// queued events from fired ones in O(1). The order is compared inline
// rather than through container/heap's interface calls, and the wider
// fan-out halves the depth a pop sifts through. Because (time, seq) is
// a total order, the pop sequence is the same as any other heap's.
type heapQueue struct {
	q []*Event
}

// arity is the heap's fan-out: the children of slot i are
// arity*i+1 .. arity*i+arity.
const arity = 4

// before reports whether a dispatches before b.
func before(a, b *Event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Push inserts a new event.
func (h *heapQueue) Push(e *Event) {
	h.q = append(h.q, e)
	h.up(len(h.q)-1, e)
}

// Pop removes and returns the minimum (time, seq) event, or nil when
// empty.
func (h *heapQueue) Pop() *Event {
	n := len(h.q) - 1
	if n < 0 {
		return nil
	}
	top := h.q[0]
	last := h.q[n]
	h.q[n] = nil
	h.q = h.q[:n]
	if n > 0 {
		h.down(0, last)
	}
	top.index = -1
	return top
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
// changed in place (PlaceRanked), sifting it only in the direction its
// new key requires.
func (h *heapQueue) Fix(e *Event) {
	i := int(e.index)
	if i > 0 && before(e, h.q[(i-1)/arity]) {
		h.up(i, e)
	} else {
		h.down(i, e)
	}
}

// Len returns the number of queued events, tombstones included.
func (h *heapQueue) Len() int { return len(h.q) }

// up moves e, destined for slot i, toward the root past every parent
// it dispatches before, and stores it where it stops.
func (h *heapQueue) up(i int, e *Event) {
	q := h.q
	for i > 0 {
		p := (i - 1) / arity
		pe := q[p]
		if !before(e, pe) {
			break
		}
		q[i] = pe
		pe.index = int32(i)
		i = p
	}
	q[i] = e
	e.index = int32(i)
}

// down moves e, destined for slot i, toward the leaves past every
// smallest child that dispatches before it, and stores it where it
// stops.
func (h *heapQueue) down(i int, e *Event) {
	q := h.q
	n := len(q)
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+arity, n)
		for j := c + 1; j < end; j++ {
			if before(q[j], q[m]) {
				m = j
			}
		}
		if !before(q[m], e) {
			break
		}
		q[i] = q[m]
		q[i].index = int32(i)
		i = m
	}
	q[i] = e
	e.index = int32(i)
}

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
	clear(orig[len(live):])
	h.q = live
	for i := len(live) - 1; i >= 0; i-- {
		h.down(i, live[i])
	}
	return removed
}
