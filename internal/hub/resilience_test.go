package hub_test

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"dmpstream/internal/core"
	"dmpstream/internal/emunet"
	"dmpstream/internal/hub"
	"dmpstream/internal/wire"
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
	h, err := hub.New(hub.Config{
		Stream:        wire.Config{Mu: mu, PayloadSize: payload, Count: count, WriteStallTimeout: 2 * time.Second},
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
		Join:   &wire.Join{StreamID: "flap", Token: tok},
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
	h, err := hub.New(hub.Config{
		Stream:        wire.Config{Mu: 200, PayloadSize: 50, WriteStallTimeout: time.Second}, // live until Stop
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
	h, err := hub.New(hub.Config{
		Stream:        wire.Config{Mu: 400, PayloadSize: 50, WriteStallTimeout: time.Second}, // live until Stop
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
	toks := make([]wire.Token, subs)
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
		go func(tok wire.Token) {
			defer wg.Done()
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return
			}
			defer c.Close()
			if err := wire.WriteJoin(c, wire.Join{StreamID: "race", Token: tok}); err != nil {
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

// TestOwedOrphanRedialsAfterSeal: a subscription whose only path died with
// packets still on their way is an orphan the seal keeps, because the
// stream still owes it what it missed. A redial through Serve with its
// token after Stop takes the tail and the end marker, and the two paths
// together carry every packet of the sealed stream.
func TestOwedOrphanRedialsAfterSeal(t *testing.T) {
	const payload = 32
	h := newExternalHub(t, hub.Config{
		Stream:        wire.Config{PayloadSize: payload},
		StreamID:      "tail",
		Shards:        1,
		ReattachGrace: time.Minute,
	})
	defer h.Close()
	publish := func(from, to int64) {
		for seq := from; seq < to; seq++ {
			if !h.PublishAt(seq, seq, make([]byte, payload)) {
				t.Fatalf("PublishAt(%d) refused", seq)
			}
		}
	}

	// The first path is a pipe: a frame whose write returned was read.
	server, client := net.Pipe()
	tok := newToken(t)
	if err := h.AttachJoined(server, wire.Join{StreamID: "tail", Token: tok}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wire.ReadStreamHeader(client); err != nil {
		t.Fatal(err)
	}
	publish(0, 10)
	got := make(map[uint32]bool)
	frame := make([]byte, wire.FrameHeaderSize+payload)
	for i := 0; i < 5; i++ {
		if _, err := io.ReadFull(client, frame); err != nil {
			t.Fatal(err)
		}
		pkt, _, err := wire.ParseFrameHeader(frame)
		if err != nil {
			t.Fatal(err)
		}
		got[pkt] = true
	}
	client.Close()
	waitFor(t, "the path to die", func() bool { return h.ConnCount() == 0 })
	publish(10, 20)
	h.Stop()
	if n := h.SubscriberCount(); n != 1 {
		t.Fatalf("%d subscribers after the seal, want the owed orphan", n)
	}

	ln := listenLoopback(t)
	defer ln.Close()
	go h.Serve(ln)
	tr, err := core.Receive([]net.Conn{dial(t, ln.Addr().String(), "tail", tok, 0)})
	if err != nil {
		t.Fatalf("redial after the seal: %v", err)
	}
	if tr.Expected != 20 {
		t.Fatalf("end marker counts %d packets, want 20", tr.Expected)
	}
	for _, a := range tr.Arrivals {
		got[a.Pkt] = true
	}
	for pkt := uint32(0); pkt < 20; pkt++ {
		if !got[pkt] {
			t.Fatalf("packet %d never arrived on either path", pkt)
		}
	}
	h.Wait()
	if n := h.SubscriberCount(); n != 0 {
		t.Fatalf("%d subscribers after the redial drained, want 0", n)
	}
}
