package hub

import (
	"net"
	"testing"

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
