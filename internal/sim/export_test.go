package sim

import "fmt"

// Test-only engine surface: only this package's tests drive the engine
// through these.

// Cancelled reports whether Cancel was called on the event before it fired.
func (e *Event) Cancelled() bool { return e.cancel }

// ScheduleDaemon registers fn to run after delay as a daemon event (see
// AtDaemon).
func (e *Engine) ScheduleDaemon(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: schedule with negative delay %d", delay))
	}
	e.AtDaemon(e.now+delay, fn)
}

// RunFor is RunUntil(Now()+d).
func (e *Engine) RunFor(d Time) Time { return e.RunUntil(e.now + d) }

// NextEventTime returns the timestamp of the earliest pending event, or
// Infinity when the queue is empty.
func (e *Engine) NextEventTime() Time {
	ev := e.peek()
	if ev == nil {
		return Infinity
	}
	return ev.at
}
