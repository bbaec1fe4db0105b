// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives the packet-level network and TCP simulators that stand in
// for ns-2 in this reproduction. Time is kept as int64 nanoseconds so that
// runs are exactly reproducible for a given seed: there is no floating-point
// clock drift, and simultaneous events are broken by scheduling order.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
)

// Time is a simulation timestamp or duration in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds converts a floating-point number of seconds to a Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// event is a scheduled callback. seq breaks ties between events scheduled for
// the same instant: earlier-scheduled events run first, which keeps runs
// deterministic.
type event struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
	index    int // heap index, -1 when popped
}

// Timer is a handle to a scheduled event that can be canceled before it fires.
type Timer struct{ ev *event }

// Cancel prevents the timer's callback from running. Canceling an
// already-fired or already-canceled timer is a no-op. It reports whether the
// call actually canceled a pending event.
func (t *Timer) Cancel() bool {
	if t == nil || t.ev == nil || t.ev.canceled || t.ev.index < 0 {
		return false
	}
	t.ev.canceled = true
	return true
}

// Pending reports whether the timer is still scheduled to fire.
func (t *Timer) Pending() bool {
	return t != nil && t.ev != nil && !t.ev.canceled && t.ev.index >= 0
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Simulator is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all entities in one simulation must share one goroutine.
type Simulator struct {
	now     Time
	events  eventHeap
	seq     uint64
	rng     *rand.Rand
	stopped bool
}

// New returns a simulator with its clock at zero and a deterministic RNG
// seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a logic error in a protocol implementation.
func (s *Simulator) At(t Time, fn func()) *Timer {
	if t < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, s.now))
	}
	ev := &event{at: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.events, ev)
	return &Timer{ev: ev}
}

// After schedules fn to run d nanoseconds from now.
func (s *Simulator) After(d Time, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// Stop makes Run return after the currently executing event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events in timestamp order until the clock would pass `until`,
// the event queue drains, or Stop is called. The clock is left at the time of
// the last executed event (or at `until` if the queue outlived it).
func (s *Simulator) Run(until Time) {
	s.stopped = false
	for len(s.events) > 0 && !s.stopped {
		next := s.events[0]
		if next.at > until {
			s.now = until
			return
		}
		heap.Pop(&s.events)
		if next.canceled {
			continue
		}
		s.now = next.at
		next.fn()
	}
	if len(s.events) == 0 && s.now < until {
		s.now = until
	}
}

// RunAll executes events until the queue drains or Stop is called.
func (s *Simulator) RunAll() {
	s.stopped = false
	for len(s.events) > 0 && !s.stopped {
		next := heap.Pop(&s.events).(*event)
		if next.canceled {
			continue
		}
		s.now = next.at
		next.fn()
	}
}

// Pending returns the number of scheduled (non-canceled) events.
func (s *Simulator) Pending() int {
	n := 0
	for _, ev := range s.events {
		if !ev.canceled {
			n++
		}
	}
	return n
}
