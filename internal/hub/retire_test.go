package hub

import (
	"errors"
	"net"
	"runtime"
	"slices"
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

// TestGraceExpired runs the re-attach grace on a hand clock: a
// subscriber whose client re-attached survives its grace's end, a firing
// of an earlier countdown that came too late to be stopped is dropped, and
// only a subscriber still without a path at its current countdown's end is
// removed.
func TestGraceExpired(t *testing.T) {
	const grace = time.Minute
	h := leaseHub(t, Config{ReattachGrace: grace})
	hand := handHub(h)
	sd := h.shards[0]
	lookup := func(tok wire.Token) *subscriber {
		t.Helper()
		sd.mu.Lock()
		defer sd.mu.Unlock()
		if sd.subs[tok] == nil {
			t.Fatal("a subscription was removed before its current countdown ran out")
		}
		return sd.subs[tok]
	}
	redial := func(tok wire.Token) *leaseConn {
		c := newLeaseConn()
		if err := h.AttachJoined(c, wire.Join{StreamID: h.cfg.StreamID, Token: tok}); err != nil {
			t.Fatal(err)
		}
		return c
	}
	// orphan removes path c, the last of tok's subscription, and waits for
	// it to retire, which arms the grace.
	orphan := func(tok wire.Token, c *leaseConn) {
		t.Helper()
		h.RemovePath(tok, c)
		waitFor(t, "the removed path to retire", func() bool {
			sd.mu.Lock()
			defer sd.mu.Unlock()
			return sd.subs[tok].grace.Armed()
		})
	}

	c := newLeaseConn()
	stale := attach(t, h, c)
	orphan(stale, c) // its first countdown, due at grace
	hand.advance(grace / 2)
	orphan(stale, redial(stale)) // back and gone again: due at 3·grace/2
	c = newLeaseConn()
	back := attach(t, h, c)
	orphan(back, c) // due at 3·grace/2
	redial(back)

	hand.advance(grace / 2)
	lookup(stale).graceExpired() // the first countdown's firing, too late for its Stop
	if !h.HasSubscriber(stale) {
		t.Fatal("a superseded countdown's firing removed the subscriber")
	}
	hand.advance(grace / 2)
	if !h.HasSubscriber(back) {
		t.Fatal("a re-attached subscriber was removed when its countdown ran out")
	}
	lookup(back).graceExpired() // its countdown's firing, too late for the re-attach's Stop
	if !h.HasSubscriber(back) {
		t.Fatal("a late firing of a re-attached subscriber's countdown removed it")
	}
	if h.HasSubscriber(stale) {
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
// Close removes them, and leaves no grace countdown armed and no timer
// of the hub's clock pending.
func TestOrphansStartNoGoroutines(t *testing.T) {
	const n = 1000
	h := leaseHub(t, Config{ReattachGrace: time.Minute})
	hand := handHub(h)
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

	sd.mu.Lock()
	orphans := slices.Clone(sd.orphans)
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
	armed := 0
	sd.mu.Lock()
	for _, o := range orphans {
		if o.grace.Armed() {
			armed++
		}
	}
	sd.mu.Unlock()
	if pending := hand.pending(); armed > 0 || pending > 0 {
		t.Fatalf("after Close: %d of %d grace countdowns armed, %d timers pending; want none", armed, n, pending)
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
	const grace = time.Minute
	for _, tc := range []struct {
		name string
		path bool // evicted with its path still attached
	}{{"orphan", false}, {"with a path", true}} {
		t.Run(tc.name, func(t *testing.T) {
			h := leaseHub(t, Config{ReattachGrace: grace, Policy: Evict})
			hand := handHub(h)
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
			hand.advance(grace / 2)
			err := h.AttachJoined(newLeaseConn(), wire.Join{StreamID: h.cfg.StreamID, Token: tok})
			if !errors.Is(err, wire.ErrEvicted) {
				t.Fatalf("re-attach of an evicted subscription: %v, want ErrEvicted", err)
			}
			hand.advance(grace / 2)
			if n := h.SubscriberCount(); n != 0 {
				t.Fatalf("%d subscriptions registered at the evicted one's grace end, want 0", n)
			}
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
// with its grace countdown stopped and no timer of the hub's clock pending.
func TestSealRemovesOrphanOwedNothing(t *testing.T) {
	h := leaseHub(t, Config{ReattachGrace: time.Minute})
	hand := handHub(h)
	sd := h.shards[0]
	c := newLeaseConn()
	tok := attach(t, h, c)
	publish(t, h, 0, 3)
	waitFor(t, "the path to take every frame", func() bool { return c.frames.Load() == 3 })
	h.RemovePath(tok, c)
	waitFor(t, "the removed path to retire", func() bool { return h.ConnCount() == 0 })
	armed := func(sub *subscriber) bool {
		sd.mu.Lock()
		defer sd.mu.Unlock()
		return sub.grace.Armed()
	}
	sd.mu.Lock()
	sub := sd.subs[tok]
	sd.mu.Unlock()
	if !armed(sub) || hand.pending() == 0 {
		t.Fatal("removing the last path mid-stream started no grace")
	}
	h.Stop()
	if h.HasSubscriber(tok) {
		t.Fatal("the seal kept an orphan it owes nothing")
	}
	if pending := hand.pending(); armed(sub) || pending > 0 {
		t.Fatalf("after the seal: the removed orphan's grace armed %v, %d timers pending; want neither", armed(sub), pending)
	}
}
