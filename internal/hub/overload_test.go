package hub_test

import (
	"dmpstream/internal/hub"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"dmpstream/internal/core"
	"dmpstream/internal/wire"
)

// joinOK dials one path, writes the join and requires the stream header
// back: the join was admitted.
func joinOK(t *testing.T, addr, streamID string, tok wire.Token, rcvBuf int) net.Conn {
	t.Helper()
	c := dial(t, addr, streamID, tok, rcvBuf)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := wire.ReadStreamHeader(c); err != nil {
		c.Close()
		t.Fatalf("join not admitted: %v", err)
	}
	c.SetReadDeadline(time.Time{})
	return c
}

// joinErr dials one path, writes the join and returns the typed error the
// hub answered with (nil means the join was, unexpectedly, admitted — the
// connection is closed either way).
func joinErr(t *testing.T, addr, streamID string, tok wire.Token) error {
	t.Helper()
	c := dial(t, addr, streamID, tok, 0)
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, _, err := wire.ReadStreamHeader(c)
	return err
}

// waitStats polls the hub until pred holds or the deadline passes.
func waitStats(t *testing.T, h *hub.Hub, what string, pred func(hub.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !pred(h.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats: %+v", what, h.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHubAdmissionRejects walks every admission refusal over the wire:
// each refused join must carry the matching DMPR code (surfacing as the
// typed wire sentinel client-side), increment Stats.Rejected exactly once,
// and leave admitted subscribers untouched.
func TestHubAdmissionRejects(t *testing.T) {
	h, err := hub.New(hub.Config{
		Stream:         wire.Config{Mu: 200, PayloadSize: 32, Count: 1 << 30},
		StreamID:       "adm",
		MaxSubscribers: 1,
		MaxConns:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go h.Serve(ln)
	addr := ln.Addr().String()

	tokA := newToken(t)
	a1 := joinOK(t, addr, "adm", tokA, 0)
	defer a1.Close()

	var wantRejected int64
	expectReject := func(name, streamID string, tok wire.Token, sentinel error) {
		t.Helper()
		err := joinErr(t, addr, streamID, tok)
		if err == nil {
			t.Fatalf("%s: join admitted", name)
		}
		if !errors.Is(err, wire.ErrRejected) {
			t.Fatalf("%s: not a typed reject: %v", name, err)
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("%s: wrong reject code: %v", name, err)
		}
		wantRejected++
		if got := h.Stats().Rejected; got != wantRejected {
			t.Fatalf("%s: Rejected = %d, want exactly %d", name, got, wantRejected)
		}
	}

	// A second subscriber is over MaxSubscribers; a wrong stream id is
	// refused regardless of capacity.
	expectReject("fresh token past MaxSubscribers", "adm", newToken(t), wire.ErrServerFull)
	expectReject("unknown stream id", "not-adm", newToken(t), wire.ErrUnknownStream)

	// Additional paths of the admitted token are exempt from the
	// subscriber cap...
	a2 := joinOK(t, addr, "adm", tokA, 0)
	defer a2.Close()
	a3 := joinOK(t, addr, "adm", tokA, 0)
	defer a3.Close()
	// ...but not from MaxConns: the fourth connection overall is refused.
	expectReject("admitted token past MaxConns", "adm", tokA, wire.ErrServerFull)

	// The full client stack surfaces the same typed error from Run.
	cl := &core.Client{
		Dial: func(int) (net.Conn, error) { return net.Dial("tcp", addr) },
		Join: &wire.Join{StreamID: "adm", Token: newToken(t)},
	}
	if _, err := cl.Run(); !errors.Is(err, wire.ErrServerFull) {
		t.Fatalf("client Run past MaxSubscribers: %v, want ErrServerFull", err)
	}
	wantRejected++

	// Draining closes admission for fresh tokens before any capacity check.
	h.BeginDrain()
	expectReject("fresh token while draining", "adm", newToken(t), wire.ErrDraining)

	st := h.Stats()
	if st.Rejected != wantRejected {
		t.Fatalf("Rejected = %d, want %d", st.Rejected, wantRejected)
	}
	if st.Subscribers != 1 || st.Conns != 3 {
		t.Fatalf("admitted state disturbed: %d subscribers, %d conns", st.Subscribers, st.Conns)
	}
	if !st.Draining {
		t.Fatal("Stats.Draining false after BeginDrain")
	}
}

// TestHubOverloadDegradation is the deterministic overload acceptance
// test: a prompt subscriber and a fully stalled one share a hub with a
// tight MaxBytes budget while two excess joiners are refused. The
// resource governor must walk the stalled subscriber down the degradation
// ladder (Shed > 0, window shrunk), keep BytesHeld under the budget at
// every sample, and leave the prompt subscriber's stream conserved and
// punctual.
func TestHubOverloadDegradation(t *testing.T) {
	const (
		mu       = 400.0
		payload  = 100
		count    = 1600 // ~4s of stream
		lagWin   = 512
		maxBytes = 16384 // ~146 frames of 112 bytes
	)
	h, err := hub.New(hub.Config{
		Stream:          wire.Config{Mu: mu, PayloadSize: payload, Count: count},
		StreamID:        "over",
		LagWindow:       lagWin,
		Policy:          hub.DropOldest,
		PathWriteBuffer: 4096,
		MaxSubscribers:  2,
		MaxBytes:        maxBytes,
		ReattachGrace:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go h.Serve(ln)
	addr := ln.Addr().String()

	// Subscriber 1 joins and then never reads another byte.
	stalled := joinOK(t, addr, "over", newToken(t), 4096)
	defer stalled.Close()

	// Subscriber 2 consumes promptly through the full client stack.
	type result struct {
		tr  *core.Trace
		err error
	}
	resCh := make(chan result, 1)
	cl := &core.Client{
		Dial: func(int) (net.Conn, error) { return net.Dial("tcp", addr) },
		Join: &wire.Join{StreamID: "over", Token: newToken(t)},
	}
	go func() {
		tr, err := cl.Run()
		resCh <- result{tr, err}
	}()
	waitStats(t, h, "both subscribers admitted", func(st hub.Stats) bool {
		return st.Subscribers == 2
	})

	// Excess joiners: both must get the typed server-full verdict.
	for i := 0; i < 2; i++ {
		if err := joinErr(t, addr, "over", newToken(t)); !errors.Is(err, wire.ErrServerFull) {
			t.Fatalf("excess joiner %d: %v, want ErrServerFull", i, err)
		}
	}

	// Sample the hub for the rest of the stream: the budget is a hard
	// ceiling on subscriber-attributable bytes at every observation.
	for h.Generated() < count {
		if st := h.Stats(); st.BytesHeld > maxBytes {
			t.Fatalf("BytesHeld %d exceeds budget %d; stats: %+v", st.BytesHeld, maxBytes, st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	st := h.Stats()
	if st.BytesHeld > maxBytes {
		t.Fatalf("final BytesHeld %d exceeds budget %d", st.BytesHeld, maxBytes)
	}
	if st.Shed < 1 {
		t.Fatalf("Shed = %d, want >= 1", st.Shed)
	}
	if st.Rejected != 2 {
		t.Fatalf("Rejected = %d, want 2", st.Rejected)
	}
	// The stalled subscriber must have been walked down the ladder: its
	// window shrinks until its holdings fit the budget (512 → 256 → 128
	// at these parameters), and the shrunk window then persists, so the
	// ordinary lag policy keeps it inside the budget from then on.
	degraded := false
	for _, sub := range st.Subs {
		if sub.Evicted || (sub.Sheds > 0 && sub.Window <= lagWin/4) {
			degraded = true
		}
	}
	if !degraded {
		t.Fatalf("no subscriber walked the degradation ladder: %+v", st.Subs)
	}

	// Unblock the stalled path's sender before waiting for shutdown, then
	// require the prompt subscriber's stream intact and punctual.
	stalled.Close()
	res := <-resCh
	if res.err != nil {
		t.Fatalf("prompt subscriber: %v", res.err)
	}
	if got := assertExactlyOnce(t, "prompt", res.tr); got != res.tr.Expected {
		t.Fatalf("prompt subscriber lost packets under overload: %d of %d", got, res.tr.Expected)
	}
	if late, _ := res.tr.LateFraction(2.0); late > 0.02 {
		t.Fatalf("prompt subscriber late fraction %v at τ=2s, want <= 0.02", late)
	}
	h.Wait()
}

// TestHubDrainGraceful: BeginDrain refuses fresh tokens but keeps serving
// (and healing) live subscriptions, and Drain delivers end markers to
// everyone within the deadline.
func TestHubDrainGraceful(t *testing.T) {
	h, err := hub.New(hub.Config{
		Stream:   wire.Config{Mu: 300, PayloadSize: 48, Count: 1 << 30},
		StreamID: "drain",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go h.Serve(ln)
	addr := ln.Addr().String()

	// One full-stack subscriber that must see a conserved, cleanly ended
	// stream, and one raw subscription to exercise the re-attach exemption.
	type result struct {
		tr  *core.Trace
		err error
	}
	resCh := make(chan result, 1)
	cl := &core.Client{
		Dial:  func(int) (net.Conn, error) { return net.Dial("tcp", addr) },
		Paths: 2,
		Join:  &wire.Join{StreamID: "drain", Token: newToken(t)},
	}
	go func() {
		tr, err := cl.Run()
		resCh <- result{tr, err}
	}()

	rawTok := newToken(t)
	raw1 := joinOK(t, addr, "drain", rawTok, 0)
	defer raw1.Close()
	var drainers sync.WaitGroup
	drainers.Add(1)
	go func() {
		defer drainers.Done()
		_, _ = io.Copy(io.Discard, raw1)
	}()
	waitStats(t, h, "both subscribers admitted", func(st hub.Stats) bool {
		return st.Subscribers == 2
	})
	// Let some stream flow first, so the drained clients end with a
	// non-empty stream (an instant drain can beat the first tick after
	// the join, and a zero-packet stream has no end state to conserve).
	mark := h.Generated() + 50
	deadline := time.Now().Add(10 * time.Second)
	for h.Generated() < mark {
		if time.Now().After(deadline) {
			t.Fatal("generation stalled")
		}
		time.Sleep(5 * time.Millisecond)
	}

	h.BeginDrain()
	if !h.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	// Fresh tokens are refused...
	if err := joinErr(t, addr, "drain", newToken(t)); !errors.Is(err, wire.ErrDraining) {
		t.Fatalf("fresh join while draining: %v, want ErrDraining", err)
	}
	// ...but a live token may still add (heal) a path mid-drain.
	raw2 := joinOK(t, addr, "drain", rawTok, 0)
	defer raw2.Close()
	drainers.Add(1)
	go func() {
		defer drainers.Done()
		_, _ = io.Copy(io.Discard, raw2)
	}()

	if !h.Drain(10 * time.Second) {
		t.Fatal("Drain timed out with cooperating subscribers")
	}
	res := <-resCh
	if res.err != nil {
		t.Fatalf("client through drain: %v", res.err)
	}
	if got := assertExactlyOnce(t, "drained", res.tr); got != res.tr.Expected {
		t.Fatalf("drain lost packets: %d of %d", got, res.tr.Expected)
	}
	drainers.Wait()

	// The hub is stopped now: late joins get the stream-ended verdict.
	if err := joinErr(t, addr, "drain", newToken(t)); !errors.Is(err, wire.ErrStreamOver) {
		t.Fatalf("join after drain: %v, want ErrStreamOver", err)
	}
}

// TestHubDrainTimeout: a stalled subscriber cannot hold shutdown hostage —
// Drain reports the missed deadline and force-closes.
func TestHubDrainTimeout(t *testing.T) {
	h, err := hub.New(hub.Config{
		Stream:          wire.Config{Mu: 800, PayloadSize: 1024, Count: 1 << 30},
		StreamID:        "stuck",
		PathWriteBuffer: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go h.Serve(ln)

	stalled := joinOK(t, ln.Addr().String(), "stuck", newToken(t), 4096)
	defer stalled.Close()

	// Let enough backlog build that the stalled path's sender is wedged in
	// Write well past every socket buffer.
	deadline := time.Now().Add(10 * time.Second)
	for h.Generated() < 600 {
		if time.Now().After(deadline) {
			t.Fatal("generation stalled")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if h.Drain(300 * time.Millisecond) {
		t.Fatal("Drain reported success with a wedged subscriber")
	}
	// Drain's timeout path force-closed the hub: Wait must now return.
	h.Wait()
}
