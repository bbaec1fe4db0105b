package relay

import (
	"errors"
	"testing"
	"time"
)

// countdownRelay is a one-path relay with nothing upstream, whose orphan
// countdown is driven by hand: pathUp, pathDown and Close as the redial
// engine and the owner call them, and orphanFire, the timer's firing,
// called with the time it would fire at. The grace is an hour, so the real
// timer never fires during a test.
func countdownRelay(t *testing.T) *Relay {
	r := testRelay(Config{Upstreams: []string{"127.0.0.1:1"}, Paths: 1, OrphanGrace: time.Hour})
	r.up, r.cand = make([]bool, 1), make([]int, 1)
	r.fwd = newForwarder(r, 0)
	r.orphan = time.AfterFunc(time.Hour, func() { r.orphanFire(time.Now()) })
	r.orphan.Stop()
	t.Cleanup(func() {
		r.mu.Lock()
		r.disarmOrphanLocked()
		r.mu.Unlock()
	})
	return r
}

// countdown returns r's fate and when its armed countdown is due (zero
// while disarmed).
func countdown(r *Relay) (fate, time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fate, r.orphanAt
}

// TestOrphanCountdown runs the relay's orphan countdown rule without a
// timer: a firing is acted on only while its countdown is armed and due,
// and the fate it decides is decided once.
func TestOrphanCountdown(t *testing.T) {
	down := errors.New("connection reset")

	t.Run("stale firing", func(t *testing.T) {
		// The first countdown's firing, stopped too late, lands after the
		// path came back and died again: the second countdown decides.
		r := countdownRelay(t)
		r.pathUp(0, 0)
		r.pathDown(0, down)
		_, first := countdown(r)
		time.Sleep(time.Millisecond)
		r.pathUp(0, 1)
		r.pathDown(0, down)
		_, second := countdown(r)
		if !second.After(first) {
			t.Fatalf("the second death armed %v, not after the first's %v", second, first)
		}
		r.orphanFire(first)
		if f, _ := countdown(r); f != fateOpen {
			t.Fatalf("a superseded firing decided fate %d", f)
		}
		r.orphanFire(second)
		if f, _ := countdown(r); f != fateOrphaned {
			t.Fatalf("the armed countdown's firing left fate %d, want orphaned", f)
		}
	})

	t.Run("failed redials", func(t *testing.T) {
		// Every failed redial reports another pathDown; none of them pushes
		// the verdict past the first deadline.
		r := countdownRelay(t)
		r.pathDown(0, down)
		_, due := countdown(r)
		for i := 0; i < 3; i++ {
			time.Sleep(time.Millisecond)
			r.pathDown(0, down)
		}
		if _, at := countdown(r); !at.Equal(due) {
			t.Fatalf("failed redials moved the verdict from %v to %v", due, at)
		}
		r.orphanFire(due)
		if f, _ := countdown(r); f != fateOrphaned {
			t.Fatalf("the firing at the first deadline left fate %d, want orphaned", f)
		}
		select {
		case <-r.failCh:
		default:
			t.Fatal("orphaned before any header, yet Serve is not told")
		}
	})

	t.Run("close first", func(t *testing.T) {
		r := countdownRelay(t)
		r.pathDown(0, down)
		_, due := countdown(r)
		r.Close()
		r.orphanFire(due)
		if f, at := countdown(r); f != fateCancelled || !at.IsZero() {
			t.Fatalf("after Close and a late firing: fate %d, countdown due %v; want cancelled and disarmed", f, at)
		}
	})
}
