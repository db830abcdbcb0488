package sim

import "slices"

// FreeList is a stack of recycled records. Callers that keep the state
// of one operation in a small record whose callbacks are bound once per
// object (the fabric's Flow.fire idiom) take records from it and return
// them as the operation finishes, so a stream of operations allocates
// nothing once the list has grown to the stream's peak.
//
// Get returns nil when the list is empty; the caller then builds a
// record and binds its callbacks. Put keeps every record, so a list
// never holds more records than were outstanding at once, and the
// engine's ReleasePool empties every list made on it when a run ends.
// The caller clears whatever a record's callbacks captured before Put,
// so the list keeps nothing else alive.
//
// The list makes room for a record when Get reports it empty, not when
// Put returns it, so it grows only when its callers build records:
// once they stop building, nothing allocates, however the records
// return (a fabric compaction hands back many at once, at an
// iteration-dependent moment).
type FreeList[T any] struct {
	items []*T
	made  int // Get calls that found the list empty since the last release
}

// NewFreeList returns an empty list tied to eng's ReleasePool.
func NewFreeList[T any](eng *Engine) *FreeList[T] {
	l := &FreeList[T]{}
	eng.freeLists = append(eng.freeLists, l)
	return l
}

// Get pops a recycled record, or returns nil when there is none.
func (l *FreeList[T]) Get() *T {
	k := len(l.items)
	if k == 0 {
		l.made++
		l.items = slices.Grow(l.items, l.made)
		return nil
	}
	x := l.items[k-1]
	l.items[k-1] = nil
	l.items = l.items[:k-1]
	return x
}

// Put returns a record to the list.
func (l *FreeList[T]) Put(x *T) { l.items = append(l.items, x) }

// Len reports how many records the list holds.
func (l *FreeList[T]) Len() int { return len(l.items) }

func (l *FreeList[T]) release() { l.items, l.made = nil, 0 }

func (l *FreeList[T]) size() int { return len(l.items) }

// releaser is the part of a FreeList the engine's ReleasePool and
// Pooled need.
type releaser interface {
	release()
	size() int
}
