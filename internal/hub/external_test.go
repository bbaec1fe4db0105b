package hub_test

import (
	"dmpstream/internal/hub"
	"errors"
	"net"
	"testing"
	"time"

	"dmpstream/internal/core"
	"dmpstream/internal/wire"
)

// newExternalHub builds an ExternalSource hub for direct PublishAt tests.
func newExternalHub(t testing.TB, cfg hub.Config) *hub.Hub {
	t.Helper()
	cfg.ExternalSource = true
	if cfg.Stream.Mu == 0 {
		cfg.Stream.Mu = 100
	}
	if cfg.Stream.PayloadSize == 0 {
		cfg.Stream.PayloadSize = 32
	}
	h, err := hub.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestExternalPublishAt: in-order ingest counts as generated, late
// duplicates are refused, and head jumps record the skipped span as
// source gaps.
func TestExternalPublishAt(t *testing.T) {
	h := newExternalHub(t, hub.Config{StreamID: "ext", LagWindow: 64})
	defer h.Close()

	payload := make([]byte, 32)
	for seq := int64(0); seq < 10; seq++ {
		if !h.PublishAt(seq, seq*1000, payload) {
			t.Fatalf("in-order publish of seq %d refused", seq)
		}
	}
	if h.PublishAt(4, 4000, payload) {
		t.Fatal("late duplicate (seq 4 behind head 10) must be refused")
	}
	if g := h.Generated(); g != 10 {
		t.Fatalf("generated %d, want 10 (dup must not count)", g)
	}
	if sg := h.Stats().SourceGaps; sg != 0 {
		t.Fatalf("source gaps %d on a contiguous ingest", sg)
	}

	// Jump the head: seqs 10..14 never arrive, 15 does.
	if !h.PublishAt(15, 15000, payload) {
		t.Fatal("head-jump publish refused")
	}
	if sg := h.Stats().SourceGaps; sg != 5 {
		t.Fatalf("source gaps %d after skipping 10..14, want 5", sg)
	}
	if g := h.Generated(); g != 11 {
		t.Fatalf("generated %d, want 11 (gaps are not generated)", g)
	}

	// A source joined mid-stream starts where its first packet is: no gap.
	mid := newExternalHub(t, hub.Config{StreamID: "ext", LagWindow: 64})
	defer mid.Close()
	if !mid.PublishAt(100, 0, payload) {
		t.Fatal("first publish at seq 100 refused")
	}
	if sg := mid.Stats().SourceGaps; sg != 0 {
		t.Fatalf("source gaps %d after a first packet at seq 100, want 0", sg)
	}
}

// TestExternalPublishAtValidation: PublishAt enforces its contract —
// external mode only, exact payload size, non-negative sequence, and
// nothing after the stream is over.
func TestExternalPublishAtValidation(t *testing.T) {
	gen, err := hub.New(hub.Config{Stream: wire.Config{Mu: 1000, PayloadSize: 32, Count: 1}, StreamID: "gen"})
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Close()
	if gen.PublishAt(0, 0, make([]byte, 32)) {
		t.Fatal("PublishAt must refuse a generator-sourced hub")
	}

	h := newExternalHub(t, hub.Config{StreamID: "ext", LagWindow: 64})
	defer h.Close()
	if h.PublishAt(0, 0, make([]byte, 31)) {
		t.Fatal("PublishAt must refuse a short payload (poison residue risk)")
	}
	if h.PublishAt(-1, 0, make([]byte, 32)) {
		t.Fatal("PublishAt must refuse a negative sequence")
	}
	if !h.PublishAt(0, 0, make([]byte, 32)) {
		t.Fatal("valid publish refused")
	}
	h.Stop()
	if h.PublishAt(1, 0, make([]byte, 32)) {
		t.Fatal("PublishAt must refuse a stopped hub")
	}
}

// TestExternalGapReadsAsDrop: a subscriber walking across an ingest gap
// counts drops for the skipped span — it must never be handed another
// packet's bytes — and still receives everything that was published.
func TestExternalGapReadsAsDrop(t *testing.T) {
	h := newExternalHub(t, hub.Config{StreamID: "ext", LagWindow: 64, PoisonPool: true})
	ln := listenLoopback(t)
	defer ln.Close()
	go h.Serve(ln)

	tok := newToken(t)
	conn := dial(t, ln.Addr().String(), "ext", tok, 0)
	defer conn.Close()
	waitSubscribers(t, h, 1)

	payload := make([]byte, 32)
	for seq := int64(0); seq < 5; seq++ {
		payload[0] = byte(seq)
		if !h.PublishAt(seq, seq, payload) {
			t.Fatalf("publish %d refused", seq)
		}
	}
	// Gap: 5..9 lost upstream; 10..14 delivered.
	for seq := int64(10); seq < 15; seq++ {
		payload[0] = byte(seq)
		if !h.PublishAt(seq, seq, payload) {
			t.Fatalf("publish %d refused", seq)
		}
	}
	h.Stop()

	tr, err := core.Receive([]net.Conn{conn})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Expected != 15 {
		t.Fatalf("end marker announced %d, want 15 (head includes the gap)", tr.Expected)
	}
	if len(tr.Arrivals) != 10 {
		t.Fatalf("received %d packets, want the 10 published", len(tr.Arrivals))
	}
	for _, a := range tr.Arrivals {
		if a.Pkt >= 5 && a.Pkt < 10 {
			t.Fatalf("packet %d was never published yet got delivered", a.Pkt)
		}
	}
	if d := h.TotalDropped(); d != 5 {
		t.Fatalf("dropped %d, want exactly the 5-packet gap", d)
	}
	if ps := h.PoolCheck(); ps.DoublePuts != 0 || ps.PoisonTrips != 0 || ps.Aliases != 0 {
		t.Fatalf("pool integrity: %+v", ps)
	}
	h.Close()
}

// TestRebasedJoinStartsOnNewestPacket: a rebased subscription attached
// after packets 0..k is sent packet k at once, numbered 0 — the newest
// packet the hub holds, not the next one it has yet to publish — and its
// frames plus gaps add up to its end marker.
func TestRebasedJoinStartsOnNewestPacket(t *testing.T) {
	const k, more = 6, 4
	h := newExternalHub(t, hub.Config{StreamID: "ext", LagWindow: 64})
	defer h.Close()
	ln := listenLoopback(t)
	defer ln.Close()
	go h.Serve(ln)

	payload := make([]byte, 32)
	publish := func(from, to int64) {
		for seq := from; seq < to; seq++ {
			payload[0] = byte(seq)
			if !h.PublishAt(seq, 1000+seq, payload) {
				t.Fatalf("publish %d refused", seq)
			}
		}
	}
	publish(0, k+1)
	conn := dial(t, ln.Addr().String(), "ext", newToken(t), 0)
	defer conn.Close()
	waitSubscribers(t, h, 1)
	publish(k+1, k+1+more)
	h.Stop()

	firstByte := -1
	tr, err := core.ReceiveOpts([]net.Conn{conn}, core.ReceiverOptions{OnPacket: func(pkt uint32, _ int64, p []byte) {
		if pkt == 0 {
			firstByte = int(p[0])
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Arrivals) == 0 {
		t.Fatal("the joiner received nothing")
	}
	if a := tr.Arrivals[0]; a.Pkt != 0 || a.Gen != 1000+k || firstByte != k {
		t.Fatalf("first frame is numbered %d and carries packet %d (stamp %d), want frame 0 carrying packet %d",
			a.Pkt, firstByte, a.Gen, k)
	}
	if tr.Expected != 1+more || int64(len(tr.Arrivals)+len(tr.Missing())) != tr.Expected {
		t.Fatalf("%d frames + %d gaps, end marker %d; want 1+%d = %d", len(tr.Arrivals), len(tr.Missing()), tr.Expected, more, 1+more)
	}
	if d := h.TotalDropped(); d != 0 {
		t.Fatalf("dropped %d for a joiner that kept up", d)
	}
}

// TestAbsoluteJoin: a join carrying JoinFlagAbsolute keeps the origin's
// numbering (first=0) and starts at the ring tail — the catch-up join an
// edge relay's leaves use.
func TestAbsoluteJoin(t *testing.T) {
	h := newExternalHub(t, hub.Config{StreamID: "abs", LagWindow: 64})
	ln := listenLoopback(t)
	defer ln.Close()
	go h.Serve(ln)

	payload := make([]byte, 32)
	for seq := int64(0); seq < 20; seq++ {
		if !h.PublishAt(seq, seq, payload) {
			t.Fatalf("publish %d refused", seq)
		}
	}

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	j := wire.Join{StreamID: "abs", Token: newToken(t), Flags: wire.JoinFlagAbsolute}
	if err := wire.WriteJoin(c, j); err != nil {
		t.Fatal(err)
	}
	waitSubscribers(t, h, 1)
	h.Stop()

	tr, err := core.Receive([]net.Conn{c})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Expected != 20 {
		t.Fatalf("end marker announced %d, want the absolute head 20", tr.Expected)
	}
	if len(tr.Arrivals) != 20 {
		t.Fatalf("caught up %d packets, want all 20 in the ring", len(tr.Arrivals))
	}
	for _, a := range tr.Arrivals {
		if int64(a.Pkt) >= 20 {
			t.Fatalf("packet %d outside the published range", a.Pkt)
		}
	}
}

// TestFailRejectsWithCode: Fail(code) ends the stream like Stop but
// answers later joins with the given verdict instead of stream-ended —
// and the first code wins over both later Fails and plain Stops.
func TestFailRejectsWithCode(t *testing.T) {
	h := newExternalHub(t, hub.Config{StreamID: "lost", LagWindow: 64})
	defer h.Close()
	ln := listenLoopback(t)
	defer ln.Close()
	go h.Serve(ln)

	if !h.PublishAt(0, 0, make([]byte, 32)) {
		t.Fatal("publish refused")
	}
	h.Fail(wire.RejectUpstreamLost)
	h.Fail(wire.RejectServerFull) // loses: first verdict stands
	h.Wait()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := wire.WriteJoin(c, wire.Join{StreamID: "lost", Token: newToken(t)}); err != nil {
		t.Fatal(err)
	}
	_, _, err = wire.ReadStreamHeader(c)
	if !errors.Is(err, wire.ErrUpstreamLost) {
		t.Fatalf("join after Fail: %v, want errors.Is ErrUpstreamLost", err)
	}
	var rej *wire.RejectError
	if !errors.As(err, &rej) || rej.Code != wire.RejectUpstreamLost {
		t.Fatalf("join after Fail: %v, want RejectUpstreamLost frame", err)
	}
}

// listenLoopback and waitSubscribers are tiny local conveniences.
func listenLoopback(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func waitSubscribers(t *testing.T, h *hub.Hub, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for h.SubscriberCount() != want {
		if time.Now().After(deadline) {
			t.Fatalf("subscribers stuck at %d, want %d", h.SubscriberCount(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
