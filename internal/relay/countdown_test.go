package relay

import (
	"errors"
	"testing"
	"time"

	"dmpstream/internal/clock"
)

// countdownGrace is countdownRelay's orphan grace.
const countdownGrace = time.Minute

// handClock is a clock.Clock for the relay's one timer, the orphan
// countdown: its time moves, and the timer fires, only in advance, on the
// test's goroutine.
type handClock struct {
	now, at time.Time // at: when the timer fires, zero while stopped or fired
	f       func()
}

func (c *handClock) Now() time.Time { return c.now }
func (c *handClock) AfterFunc(d time.Duration, f func()) clock.Timer {
	c.f = f
	c.Reset(d)
	return c
}
func (c *handClock) Reset(d time.Duration) bool { c.at = c.now.Add(d); return true }
func (c *handClock) Stop() bool                 { c.at = time.Time{}; return true }

// advance moves the clock d on, firing the timer if it falls due.
func (c *handClock) advance(d time.Duration) {
	if c.now = c.now.Add(d); !c.at.IsZero() && !c.at.After(c.now) {
		c.at = time.Time{}
		c.f()
	}
}

// countdownRelay is a one-path relay with nothing upstream, on a hand
// clock: pathUp, pathDown and Close are called as the redial engine and
// the owner call them, and the orphan countdown fires only when the test
// advances the clock.
func countdownRelay() (*Relay, *handClock) {
	hand := &handClock{now: time.Unix(1, 0)}
	r := testRelay(Config{Upstreams: []string{"127.0.0.1:1"}, Paths: 1, OrphanGrace: countdownGrace})
	r.clock = hand
	r.up, r.cand = make([]bool, 1), make([]int, 1)
	r.fwd = newForwarder(r, 0)
	return r, hand
}

// countdown returns r's fate and whether its orphan countdown is armed.
func countdown(r *Relay) (fate, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fate, r.orphan.Armed()
}

// TestOrphanCountdown runs the relay's orphan countdown on a hand clock: a
// firing is acted on only while its countdown is armed and due, and the
// fate it decides is decided once.
func TestOrphanCountdown(t *testing.T) {
	down := errors.New("connection reset")

	t.Run("stale firing", func(t *testing.T) {
		// The path comes back within the grace and dies again. A firing of
		// the first countdown that Stop came too late to cancel lands at its
		// deadline, and is dropped; the second countdown decides.
		r, hand := countdownRelay()
		r.pathUp(0, 0)
		r.pathDown(0, down)
		hand.advance(countdownGrace / 2)
		r.pathUp(0, 1)
		r.pathDown(0, down)
		hand.advance(countdownGrace / 2)
		r.orphanFire()
		if f, _ := countdown(r); f != fateOpen {
			t.Fatalf("a superseded firing decided fate %d", f)
		}
		hand.advance(countdownGrace / 2)
		if f, armed := countdown(r); f != fateOrphaned || armed {
			t.Fatalf("at the second countdown's end: fate %d, armed %v; want orphaned and disarmed", f, armed)
		}
	})

	t.Run("failed redials", func(t *testing.T) {
		// Every failed redial reports another pathDown; none of them pushes
		// the verdict past the first deadline.
		r, hand := countdownRelay()
		r.pathDown(0, down)
		for i := 0; i < 3; i++ {
			hand.advance(countdownGrace / 4)
			r.pathDown(0, down)
		}
		hand.advance(countdownGrace / 4)
		if f, _ := countdown(r); f != fateOrphaned {
			t.Fatalf("at the first deadline: fate %d, want orphaned", f)
		}
		select {
		case <-r.failCh:
		default:
			t.Fatal("orphaned before any header, yet Serve is not told")
		}
	})

	t.Run("close first", func(t *testing.T) {
		r, hand := countdownRelay()
		r.pathDown(0, down)
		r.Close()
		if !hand.at.IsZero() {
			t.Fatal("the timer is still pending after Close")
		}
		r.orphanFire() // a firing Close came too late to cancel
		hand.advance(countdownGrace)
		if f, armed := countdown(r); f != fateCancelled || armed {
			t.Fatalf("after Close and the grace: fate %d, countdown armed %v; want cancelled and disarmed", f, armed)
		}
	})
}
