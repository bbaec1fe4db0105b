package registry

import (
	"errors"
	"net"
	"testing"
	"time"

	"dmpstream/internal/core"
	"dmpstream/internal/hub"
	"dmpstream/internal/wire"
)

// dial connects one path to addr and writes the join handshake.
func dial(t *testing.T, addr, streamID string, tok wire.Token) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteJoin(c, wire.Join{StreamID: streamID, Token: tok}); err != nil {
		t.Fatal(err)
	}
	return c
}

func newToken(t *testing.T) wire.Token {
	t.Helper()
	tok, err := wire.NewToken()
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// joinOK dials one path, writes the join and requires the stream header
// back: the join was admitted and routed.
func joinOK(t *testing.T, addr, streamID string, tok wire.Token) net.Conn {
	t.Helper()
	c := dial(t, addr, streamID, tok)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := wire.ReadStreamHeader(c); err != nil {
		c.Close()
		t.Fatalf("join %q not admitted: %v", streamID, err)
	}
	c.SetReadDeadline(time.Time{})
	return c
}

// joinErr dials one path, writes the join and returns the typed error the
// registry (or the routed hub) answered with.
func joinErr(t *testing.T, addr, streamID string, tok wire.Token) error {
	t.Helper()
	c := dial(t, addr, streamID, tok)
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, _, err := wire.ReadStreamHeader(c)
	return err
}

// newRegistry starts a registry with the given per-stream template and ids,
// listening on loopback. Cleanup closes everything.
func newRegistry(t *testing.T, cfg Config, ids ...string) (*Registry, string) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	for _, id := range ids {
		if _, err := r.Create(id); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go r.Serve(ln)
	return r, ln.Addr().String()
}

// waitFor polls pred until it holds or the deadline passes.
func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRegistryRouting is the multi-stream routing acceptance test: joins
// land on the stream their DMPJ names, an ended stream answers stream-ended
// while its siblings keep serving, and an id naming no stream answers
// unknown-stream.
func TestRegistryRouting(t *testing.T) {
	const count = 300
	cfg := Config{Hub: hub.Config{
		Stream: wire.Config{Mu: 400, PayloadSize: 48, Count: count},
	}}
	r, addr := newRegistry(t, cfg, "alpha", "beta", "gamma", "delta")

	// One subscriber per stream, two paths each, all attached before any
	// stream ends so every trace expects the full count. The stream headers
	// stay unread for core.Receive.
	conns := make(map[string][]net.Conn)
	for _, id := range []string{"alpha", "gamma", "delta"} {
		tok := newToken(t)
		conns[id] = []net.Conn{dial(t, addr, id, tok), dial(t, addr, id, tok)}
		h := r.Hub(id)
		waitFor(t, id+" paths attached", func() bool { return h.ConnCount() == 2 })
	}

	// End beta mid-flight; its id must now answer stream-ended at the
	// registry even though its hub is gone from the routing table.
	if err := r.End("beta"); err != nil {
		t.Fatal(err)
	}

	rejects := []struct {
		name     string
		streamID string
		sentinel error
	}{
		{"ended stream", "beta", wire.ErrStreamOver},
		{"unknown stream", "nope", wire.ErrUnknownStream},
		{"empty id", "", wire.ErrUnknownStream},
		{"ended stream, second ask", "beta", wire.ErrStreamOver},
	}
	for _, tc := range rejects {
		err := joinErr(t, addr, tc.streamID, newToken(t))
		if err == nil {
			t.Fatalf("%s: join admitted", tc.name)
		}
		if !errors.Is(err, wire.ErrRejected) || !errors.Is(err, tc.sentinel) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.sentinel)
		}
	}

	// The siblings keep serving: every subscriber drains its rebased stream
	// (join point to end) exactly once and to completion.
	for id, cs := range conns {
		tr, err := core.Receive(cs)
		if err != nil {
			t.Fatalf("%s: receive: %v", id, err)
		}
		for _, c := range cs {
			c.Close()
		}
		// Generation starts at Create, so a subscriber that dialed shortly
		// after sees a rebased stream of count minus its join offset.
		if tr.Expected <= 0 || tr.Expected > count {
			t.Fatalf("%s: expected %d, want 1..%d", id, tr.Expected, count)
		}
		seen := make(map[uint32]bool, len(tr.Arrivals))
		for _, a := range tr.Arrivals {
			if seen[a.Pkt] {
				t.Fatalf("%s: packet %d delivered twice", id, a.Pkt)
			}
			if int64(a.Pkt) >= tr.Expected {
				t.Fatalf("%s: packet %d beyond expected %d", id, a.Pkt, tr.Expected)
			}
			seen[a.Pkt] = true
		}
		if int64(len(seen)) != tr.Expected {
			t.Fatalf("%s: delivered %d distinct packets, want %d", id, len(seen), tr.Expected)
		}
	}

	st := r.Stats()
	if st.StreamEnded != 2 || st.UnknownStream != 2 || st.Rejected != 4 {
		t.Fatalf("reject counters = ended %d / unknown %d / total %d, want 2/2/4",
			st.StreamEnded, st.UnknownStream, st.Rejected)
	}
	if got := len(st.Streams); got != 3 {
		t.Fatalf("live streams = %d, want 3", got)
	}
	if len(st.Ended) != 1 || st.Ended[0] != "beta" {
		t.Fatalf("ended = %v, want [beta]", st.Ended)
	}
}

// TestRegistryLifecycle covers Create/End/DrainStream edge cases: invalid
// and duplicate ids, the tombstone making ids single-use, MaxStreams, and
// ending streams that do not exist.
func TestRegistryLifecycle(t *testing.T) {
	r, err := New(Config{
		Hub:        hub.Config{Stream: wire.Config{Mu: 200, PayloadSize: 16, Count: 1 << 30}},
		MaxStreams: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if _, err := r.Create(""); err == nil {
		t.Fatal("Create(\"\") succeeded")
	}
	if _, err := r.Create("this-id-is-way-too-long!"); err == nil {
		t.Fatal("Create(long id) succeeded")
	}
	if _, err := r.Create("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("a"); !errors.Is(err, ErrStreamExists) {
		t.Fatalf("duplicate Create: %v, want ErrStreamExists", err)
	}
	if _, err := r.Create("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("c"); !errors.Is(err, ErrMaxStreams) {
		t.Fatalf("Create past MaxStreams: %v, want ErrMaxStreams", err)
	}

	if err := r.End("nope"); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("End(unknown): %v, want ErrUnknownStream", err)
	}
	if err := r.End("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.End("a"); !errors.Is(err, ErrStreamEnded) {
		t.Fatalf("End(ended): %v, want ErrStreamEnded", err)
	}
	if _, err := r.Create("a"); !errors.Is(err, ErrStreamEnded) {
		t.Fatalf("Create over tombstone: %v, want ErrStreamEnded", err)
	}
	// Ending a stream frees its MaxStreams slot for a fresh id.
	if _, err := r.Create("c"); err != nil {
		t.Fatal(err)
	}
	if drained, err := r.DrainStream("c", 5*time.Second); err != nil || !drained {
		t.Fatalf("DrainStream(c) = %v, %v, want true, nil", drained, err)
	}
	if ids := r.Streams(); len(ids) != 1 || ids[0] != "b" {
		t.Fatalf("Streams() = %v, want [b]", ids)
	}
}

// TestRegistryAdmissionCaps exercises the registry-wide caps layered over
// the per-hub governor: MaxConns is strict and slot-accurate across
// streams, and MaxSubscribers counts all streams while exempting tokens a
// stream already knows.
func TestRegistryAdmissionCaps(t *testing.T) {
	cfg := Config{
		Hub:            hub.Config{Stream: wire.Config{Mu: 200, PayloadSize: 16, Count: 1 << 30}},
		MaxSubscribers: 2,
		MaxConns:       3,
	}
	r, addr := newRegistry(t, cfg, "one", "two")

	tokA, tokB := newToken(t), newToken(t)
	a := joinOK(t, addr, "one", tokA)
	defer a.Close()
	b := joinOK(t, addr, "two", tokB)
	defer b.Close()

	// Two subscribers across two streams fill MaxSubscribers: a fresh token
	// on either stream is refused...
	if err := joinErr(t, addr, "one", newToken(t)); !errors.Is(err, wire.ErrServerFull) {
		t.Fatalf("fresh token past MaxSubscribers: %v, want ErrServerFull", err)
	}
	// ...but a second path of an admitted token is exempt.
	a2 := joinOK(t, addr, "one", tokA)
	defer a2.Close()

	// Three connections fill MaxConns; even an admitted token's extra path
	// is refused now.
	if err := joinErr(t, addr, "two", tokB); !errors.Is(err, wire.ErrServerFull) {
		t.Fatalf("join past MaxConns: %v, want ErrServerFull", err)
	}
	if got := r.ConnCount(); got != 3 {
		t.Fatalf("ConnCount = %d, want 3", got)
	}

	// Closing a path frees its slot: the countedConn must release exactly
	// once even though both the client and the hub close it.
	a2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for r.ConnCount() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("ConnCount = %d after close, want 2", r.ConnCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
	b2 := joinOK(t, addr, "two", tokB)
	defer b2.Close()
}

// TestRegistryDrain covers the registry-wide graceful ladder: BeginDrain
// refuses fresh tokens on every stream while attached subscribers keep
// receiving, and Drain delivers end markers to all of them.
func TestRegistryDrain(t *testing.T) {
	cfg := Config{Hub: hub.Config{
		Stream: wire.Config{Mu: 400, PayloadSize: 32, Count: 1 << 30},
	}}
	r, addr := newRegistry(t, cfg, "x", "y")

	cx := dial(t, addr, "x", newToken(t))
	defer cx.Close()
	cy := dial(t, addr, "y", newToken(t))
	defer cy.Close()
	for _, id := range []string{"x", "y"} {
		h := r.Hub(id)
		waitFor(t, id+" path attached", func() bool { return h.ConnCount() == 1 })
	}

	r.BeginDrain()
	if err := joinErr(t, addr, "x", newToken(t)); !errors.Is(err, wire.ErrDraining) {
		t.Fatalf("fresh token while draining: %v, want ErrDraining", err)
	}
	if _, err := r.Create("z"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Create while draining: %v, want ErrClosed", err)
	}

	done := make(chan error, 2)
	for _, c := range []net.Conn{cx, cy} {
		go func(c net.Conn) {
			_, err := core.Receive([]net.Conn{c})
			done <- err
		}(c)
	}
	if !r.Drain(10 * time.Second) {
		t.Fatal("Drain timed out with reading subscribers")
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("subscriber after drain: %v", err)
		}
	}
}

// TestRegistryAbsoluteJoin: the registry routes joins by stream id but
// must pass the join through wholesale — including the absolute-numbering
// flag an edge relay sets. A mid-stream absolute join must land with
// origin-absolute packet numbers (first arrival well past zero, end
// marker carrying the origin-absolute total) rather than the default
// join-point rebase.
func TestRegistryAbsoluteJoin(t *testing.T) {
	const count = 400
	cfg := Config{Hub: hub.Config{
		Stream: wire.Config{Mu: 800, PayloadSize: 32, Count: count},
		// A small ring so the tail has visibly moved by the time we join:
		// an absolute join starts at the tail, not at packet zero.
		LagWindow: 16,
	}}
	r, addr := newRegistry(t, cfg, "live")
	h := r.Hub("live")
	waitFor(t, "mid-stream", func() bool { return h.Generated() >= 100 })

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	join := wire.Join{StreamID: "live", Token: newToken(t), Flags: wire.JoinFlagAbsolute}
	if err := wire.WriteJoin(c, join); err != nil {
		t.Fatal(err)
	}
	tr, err := core.Receive([]net.Conn{c})
	if err != nil {
		t.Fatal(err)
	}
	// Absolute numbering: the end marker is the origin-absolute total, not
	// rebased to the join point.
	if tr.Expected != count {
		t.Fatalf("absolute join Expected = %d, want origin-absolute %d", tr.Expected, count)
	}
	var minPkt uint32 = 1<<32 - 1
	seen := make(map[uint32]bool, len(tr.Arrivals))
	for _, a := range tr.Arrivals {
		if a.Pkt < minPkt {
			minPkt = a.Pkt
		}
		if seen[a.Pkt] {
			t.Fatalf("packet %d delivered twice", a.Pkt)
		}
		seen[a.Pkt] = true
	}
	if minPkt < 50 {
		t.Fatalf("first absolute packet = %d, want the moved ring tail (>= 50)", minPkt)
	}
	// Everything from the tail onward arrives at most once, and whatever
	// is missing the hub counted as dropped: the ring holds 20 ms of
	// stream, so a longer scheduler stall makes drop-oldest skip this
	// subscriber ahead. Drops before the first delivered packet raise
	// minPkt instead of the shortfall, hence <= and not ==.
	got, want := int64(len(seen)), count-int64(minPkt)
	if got > want {
		t.Fatalf("delivered %d distinct packets, more than the %d from tail %d to %d",
			got, want, minPkt, count)
	}
	if dropped := h.TotalDropped(); want-got > dropped {
		t.Fatalf("delivered %d of %d packets (tail %d to %d) but the hub counted only %d drops",
			got, want, minPkt, count, dropped)
	}
}
