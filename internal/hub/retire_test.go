package hub

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"dmpstream/internal/wire"
)

// TestFinishPathDropsClosedConn: when one of a subscriber's two paths
// dies, the subscriber lives on — and must not keep the dead path (and
// through it the closed connection) reachable through the tail of its
// links slice's backing array.
func TestFinishPathDropsClosedConn(t *testing.T) {
	h := leaseHub(t, Config{})
	sd := h.shards[0]
	dying, staying := newLeaseConn(), newLeaseConn()
	tok := newToken(t)
	// The dying path is the later attach: the slice's last element, the one
	// a shrink-by-append leaves behind in the vacated tail slot.
	for _, c := range []net.Conn{staying, dying} {
		if err := h.AttachJoined(c, wire.Join{StreamID: h.cfg.StreamID, Token: tok}); err != nil {
			t.Fatal(err)
		}
	}
	dying.Close()
	// The dead path notices on its next write; the sibling may win the
	// race for any one packet, so keep publishing until it has.
	var seq int64
	waitFor(t, "the closed path to retire", func() bool {
		publish(t, h, seq, seq+1)
		seq++
		return h.ConnCount() == 1
	})

	sd.mu.Lock()
	defer sd.mu.Unlock()
	sub := sd.subs[tok]
	if sub == nil || len(sub.links) != 1 || sub.links[0].conn != net.Conn(staying) {
		t.Fatalf("surviving subscriber's paths: %+v", sub)
	}
	for i, p := range sub.links[:cap(sub.links)] {
		if p != nil && p.conn == net.Conn(dying) {
			t.Fatalf("closed conn still reachable from links' backing array at index %d (len %d)", i, len(sub.links))
		}
	}
}

// TestGraceExpired runs the re-attach grace countdown's verdict directly,
// with no timer: a countdown a newer death has superseded (stale gen) is a
// no-op, a subscriber whose client re-attached survives its countdown, and
// only a subscriber still without a path at its current countdown's end is
// removed.
func TestGraceExpired(t *testing.T) {
	h := leaseHub(t, Config{})
	sd := h.shards[0]
	orphan := func() *subscriber {
		sub := &subscriber{token: newToken(t), shard: sd, window: h.cfg.LagWindow}
		addSub(sd, sub)
		sd.mu.Lock()
		sub.graceGen = 2 // a second death restarted the countdown
		sub.armed = true
		sd.mu.Unlock()
		return sub
	}

	stale := orphan()
	sd.graceExpired(stale, 1)
	if !h.HasSubscriber(stale.token) {
		t.Fatal("a superseded countdown removed the subscriber")
	}

	back := orphan()
	conn := newLeaseConn()
	if err := h.AttachJoined(conn, wire.Join{StreamID: h.cfg.StreamID, Token: back.token}); err != nil {
		t.Fatal(err)
	}
	sd.graceExpired(back, 2)
	if !h.HasSubscriber(back.token) {
		t.Fatal("a re-attached subscriber was removed when its countdown ran out")
	}

	sd.graceExpired(stale, 2)
	if h.HasSubscriber(stale.token) {
		t.Fatal("a subscriber with no path outlived its current countdown")
	}
	if n := h.SubscriberCount(); n != 1 {
		t.Fatalf("%d subscribers registered, want the re-attached one", n)
	}
	sd.mu.Lock()
	nsubs, orphans := sd.nsubs, len(sd.orphans)
	sd.mu.Unlock()
	if nsubs != 1 || orphans != 0 {
		t.Fatalf("shard counts %d subscribers and %d orphans, want 1 and 0", nsubs, orphans)
	}
}

// TestOrphansStartNoGoroutines: a subscriber left without a path is held
// through its re-attach grace by a timer, not a goroutine, so a thousand
// orphans cost the hub no goroutines. Each still owes the frame its path
// died writing, so all of them outlive the seal and Wait in their grace;
// Close removes them, and no grace timer is left pending.
func TestOrphansStartNoGoroutines(t *testing.T) {
	const n = 1000
	h := leaseHub(t, Config{ReattachGrace: time.Minute})
	sd := h.shards[0]
	for i := 0; i < n; i++ {
		c := newLeaseConn()
		c.failAt = 1 // the first frame write fails
		attach(t, h, c)
	}
	waitFor(t, "every path parked after its header", func() bool {
		sd.mu.Lock()
		defer sd.mu.Unlock()
		return sd.ready.empty() && sd.held.empty()
	})
	before := runtime.NumGoroutine()
	publish(t, h, 0, 1)
	waitFor(t, "every subscriber orphaned", func() bool {
		sd.mu.Lock()
		defer sd.mu.Unlock()
		return len(sd.orphans) == n
	})
	got := runtime.NumGoroutine()
	t.Logf("%d goroutines before the paths died, %d with %d orphans", before, got, n)
	if got > before+8 {
		t.Fatalf("%d goroutines with %d orphans, %d before their paths died", got, n, before)
	}

	var timers []*time.Timer
	sd.mu.Lock()
	for _, o := range sd.orphans {
		timers = append(timers, o.grace)
	}
	sd.mu.Unlock()
	h.Stop()
	h.Wait()
	if got := owedOrphans(h); got != n || h.SubscriberCount() != n {
		t.Fatalf("%d subscribers, %d of them owed orphans, after the seal and Wait; want %d owed orphans", h.SubscriberCount(), got, n)
	}
	h.Close()
	if got := h.SubscriberCount(); got != 0 {
		t.Fatalf("%d subscribers left after Close, want 0", got)
	}
	pending := 0
	for _, tm := range timers {
		if tm == nil || tm.Stop() {
			pending++
		}
	}
	if pending > 0 {
		t.Fatalf("%d of %d grace timers missing or still pending after Close", pending, n)
	}
}

// owedOrphans counts the subscribers with no path that the hub still owes
// packets (owedLocked).
func owedOrphans(h *Hub) int {
	n := 0
	for _, sd := range h.shards {
		sd.mu.Lock()
		for _, sub := range sd.subs {
			if len(sub.links) == 0 && sd.owedLocked(sub) {
				n++
			}
		}
		sd.mu.Unlock()
	}
	return n
}

// TestEvictedOrphanLeavesAtGraceEnd: an orphan the lag policy evicts keeps
// its grace running — its token is refused as evicted until the grace
// ends, and then the subscriber is removed and its admission slot freed.
// A subscription evicted with a path gets the same grace once that path
// has retired, rather than leaving its token free to join afresh.
func TestEvictedOrphanLeavesAtGraceEnd(t *testing.T) {
	for _, tc := range []struct {
		name  string
		grace time.Duration
		path  bool // evicted with its path still attached
	}{
		{"orphan", 50 * time.Millisecond, false},
		{"with a path", 250 * time.Millisecond, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := leaseHub(t, Config{ReattachGrace: tc.grace, Policy: Evict})
			sd := h.shards[0]
			c := newLeaseConn()
			if !tc.path {
				c.failAt = 1
			}
			tok := attach(t, h, c)
			publish(t, h, 0, 1)
			if tc.path {
				waitFor(t, "the path to take its frame", func() bool { return c.frames.Load() == 1 })
			} else {
				waitFor(t, "the subscriber orphaned", func() bool {
					sd.mu.Lock()
					defer sd.mu.Unlock()
					return len(sd.orphans) == 1
				})
			}
			sd.mu.Lock()
			sd.evictLocked(sd.subs[tok])
			sd.mu.Unlock()
			waitFor(t, "the evicted path to retire", func() bool { return h.ConnCount() == 0 })
			err := h.AttachJoined(newLeaseConn(), wire.Join{StreamID: h.cfg.StreamID, Token: tok})
			if !errors.Is(err, wire.ErrEvicted) {
				t.Fatalf("re-attach of an evicted subscription: %v, want ErrEvicted", err)
			}
			waitFor(t, "the evicted subscription removed at its grace end", func() bool { return h.SubscriberCount() == 0 })
		})
	}
}

// TestDeathAfterSealRedialDrainsBatch: the last path of a subscription
// dies after the seal with a batch in hand. The batch, and what was behind
// it, is still owed, so the death merges its resend record and starts the
// grace, and a redial takes every packet and the end marker.
func TestDeathAfterSealRedialDrainsBatch(t *testing.T) {
	h := leaseHub(t, Config{ReattachGrace: time.Minute})
	slow, tok := blockedWriter(t, h) // in a write of the first frames of 0..3
	h.Stop()
	slow.Close()
	waitFor(t, "the blocked path to die", func() bool { return h.ConnCount() == 0 })
	if !h.HasSubscriber(tok) {
		t.Fatal("a death after the seal dropped a subscription still owed its batch")
	}
	redial := newLeaseConn()
	if err := h.AttachJoined(redial, wire.Join{StreamID: h.cfg.StreamID, Token: tok}); err != nil {
		t.Fatalf("redial after the seal: %v", err)
	}
	h.Wait()
	if got := redial.frames.Load(); got != 4 || !redial.ended.Load() {
		t.Fatalf("redial took %d frames, end marker %v; want 4 and the marker", got, redial.ended.Load())
	}
	if st := h.Stats(); st.Reattached != 1 || st.Subscribers != 0 {
		t.Fatalf("reattached %d, %d subscribers left; want 1 and 0", st.Reattached, st.Subscribers)
	}
	checkQuiesced(t, h, 2)
}

// TestSealRemovesOrphanOwedNothing: an orphan the sealed stream owes
// nothing — its removed path had taken every packet — leaves at the seal,
// with its grace timer stopped.
func TestSealRemovesOrphanOwedNothing(t *testing.T) {
	h := leaseHub(t, Config{ReattachGrace: time.Minute})
	sd := h.shards[0]
	c := newLeaseConn()
	tok := attach(t, h, c)
	publish(t, h, 0, 3)
	waitFor(t, "the path to take every frame", func() bool { return c.frames.Load() == 3 })
	h.RemovePath(tok, c)
	waitFor(t, "the removed path to retire", func() bool { return h.ConnCount() == 0 })
	sd.mu.Lock()
	grace := sd.subs[tok].grace
	sd.mu.Unlock()
	if grace == nil {
		t.Fatal("removing the last path mid-stream started no grace")
	}
	h.Stop()
	if h.HasSubscriber(tok) {
		t.Fatal("the seal kept an orphan it owes nothing")
	}
	if grace.Stop() {
		t.Fatal("the removed orphan's grace timer is still pending")
	}
}
