package hub

import (
	"net"
	"sync"
	"testing"
	"time"

	"dmpstream/internal/core"
	"dmpstream/internal/emunet"
)

// TestHubReattachWithinGrace: a subscriber path is severed mid-stream; the
// client redials inside the grace window with the same token, the hub
// revives the subscription, replays the dead path's resend window, and the
// stream completes with no packet lost.
func TestHubReattachWithinGrace(t *testing.T) {
	const (
		mu      = 300.0
		count   = 900 // ~3 s of stream
		payload = 100
	)
	h, err := New(Config{
		Stream:        core.Config{Mu: mu, PayloadSize: payload, Count: count, WriteStallTimeout: 2 * time.Second},
		StreamID:      "flap",
		ReattachGrace: 5 * time.Second,
		ResendWindow:  128,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go h.Serve(ln)

	relay, err := emunet.Listen("127.0.0.1:0", ln.Addr().String(), emunet.PathConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	evs, err := emunet.ParseFaultScript("sever@600ms")
	if err != nil {
		t.Fatal(err)
	}
	tl := relay.Schedule(evs)
	defer tl.Stop()

	tok := newToken(t)
	addrs := []string{ln.Addr().String(), relay.Addr()}
	client := &core.Client{
		Dial:   func(k int) (net.Conn, error) { return net.Dial("tcp", addrs[k]) },
		Paths:  2,
		Join:   &core.Join{StreamID: "flap", Token: tok},
		Policy: core.RedialPolicy{Base: 400 * time.Millisecond, Multiplier: 1, Budget: 3, Seed: 11},
	}
	tr, err := client.Run()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	h.Stop()
	h.Wait()

	if got := assertExactlyOnce(t, "flapped", tr); got != tr.Expected {
		t.Fatalf("delivered %d of %d distinct packets", got, tr.Expected)
	}
	if missing := tr.Missing(); len(missing) != 0 {
		t.Fatalf("%d packets lost across the flap", len(missing))
	}
	st := h.Stats()
	if st.Reattached != 1 {
		t.Fatalf("reattached = %d, want 1", st.Reattached)
	}
	if st.Resent == 0 {
		t.Fatal("no packets replayed from the dead path's resend window")
	}
	if st.Subscribers != 0 {
		t.Fatalf("%d subscribers left after Stop+Wait", st.Subscribers)
	}
}

// TestHubGraceExpires: a subscriber whose only path dies and never comes
// back must be reaped after the grace window, not retained forever.
func TestHubGraceExpires(t *testing.T) {
	h, err := New(Config{
		Stream:        core.Config{Mu: 200, PayloadSize: 50, WriteStallTimeout: time.Second}, // live until Stop
		StreamID:      "reap",
		ReattachGrace: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go h.Serve(ln)

	conn := dial(t, ln.Addr().String(), "reap", newToken(t), 0)
	// Consume a little of the stream, then die without warning.
	buf := make([]byte, 4096)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for h.Stats().Subscribers != 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead subscriber still attached long after the grace window")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if pe := h.Stats().PathErrors; pe == 0 {
		t.Fatal("abnormal path death not counted in PathErrors")
	}
	h.Stop()
	h.Wait()
}

// TestHubReattachRacesStop drives re-attach joins concurrently with Stop on
// a hub full of subscribers inside their grace windows. Meaningful under
// -race; the invariant is that Stop+Wait always converges with zero
// subscribers and no goroutine left behind.
func TestHubReattachRacesStop(t *testing.T) {
	h, err := New(Config{
		Stream:        core.Config{Mu: 400, PayloadSize: 50, WriteStallTimeout: time.Second}, // live until Stop
		StreamID:      "race",
		ReattachGrace: 5 * time.Second,
		ResendWindow:  32,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go h.Serve(ln)

	// Eight single-path subscribers; kill every path so each subscription
	// sits in its grace window.
	const subs = 8
	toks := make([]core.Token, subs)
	for i := range toks {
		toks[i] = newToken(t)
		conn := dial(t, ln.Addr().String(), "race", toks[i], 0)
		buf := make([]byte, 1024)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(buf); err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}

	// Let the hub notice the deaths (write errors) before racing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := h.Stats()
		live := 0
		for _, s := range st.Subs {
			live += s.Paths
		}
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("paths still live: %+v", st.Subs)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Race: every token redials while Stop fires halfway through.
	var wg sync.WaitGroup
	for i := range toks {
		wg.Add(1)
		go func(tok core.Token) {
			defer wg.Done()
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return
			}
			defer c.Close()
			if err := core.WriteJoin(c, core.Join{StreamID: "race", Token: tok}); err != nil {
				return
			}
			// Drain whatever the hub sends (stream or an immediate close).
			buf := make([]byte, 4096)
			for {
				c.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, err := c.Read(buf); err != nil {
					return
				}
			}
		}(toks[i])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		h.Stop()
	}()
	wg.Wait()
	h.Wait()
	h.Close() // idempotent on a stopped hub; kills any re-attached conns

	if st := h.Stats(); st.Subscribers != 0 {
		t.Fatalf("%d subscribers left after Stop+Wait+Close", st.Subscribers)
	}
}

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
		if err := h.AttachJoined(c, core.Join{StreamID: h.cfg.StreamID, Token: tok}); err != nil {
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
