package hub

import (
	"sync"
	"time"

	"dmpstream/internal/clock"
)

// handClock is a clock.Clock that moves only when advance moves it: tests
// set it on a hub after New, as they set batchFrames, and fire the stall
// and grace countdowns in an order they choose, with no race against the
// wall clock.
type handClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*handTimer
}

type handTimer struct {
	c  *handClock
	f  func()
	at time.Time // when it fires; zero while stopped or fired
}

// handHub sets h on a new hand clock and returns the clock.
func handHub(h *Hub) *handClock {
	c := &handClock{now: time.Unix(1, 0)}
	h.clock = c
	return c
}

func (c *handClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *handClock) AfterFunc(d time.Duration, f func()) clock.Timer {
	t := &handTimer{c: c, f: f}
	c.mu.Lock()
	c.timers = append(c.timers, t)
	c.mu.Unlock()
	t.Reset(d)
	return t
}

func (t *handTimer) Reset(d time.Duration) bool { return t.set(d, true) }
func (t *handTimer) Stop() bool                 { return t.set(0, false) }

func (t *handTimer) set(d time.Duration, on bool) (pending bool) {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	pending, t.at = !t.at.IsZero(), time.Time{}
	if on {
		t.at = t.c.now.Add(d)
	}
	return pending
}

// pending counts the timers set to fire: neither stopped nor fired.
func (c *handClock) pending() (n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.timers {
		if !t.at.IsZero() {
			n++
		}
	}
	return n
}

// advance moves the clock d on. The timers due by then fire in turn,
// earliest first, on the caller's goroutine, each with the clock at its
// time; one that a firing sets again within d fires again.
func (c *handClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	end := c.now.Add(d)
	for {
		var next *handTimer
		for _, t := range c.timers {
			if !t.at.IsZero() && !t.at.After(end) && (next == nil || t.at.Before(next.at)) {
				next = t
			}
		}
		if next == nil {
			c.now = end
			return
		}
		c.now, next.at = next.at, time.Time{}
		c.mu.Unlock()
		next.f()
		c.mu.Lock()
	}
}
