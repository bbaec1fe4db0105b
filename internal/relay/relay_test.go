package relay

import (
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"dmpstream/internal/core"
	"dmpstream/internal/hub"
	"dmpstream/internal/wire"
)

// fillPattern is the origin's deterministic payload content: leaf
// subscribers re-derive the expected bytes from the (absolute) packet
// number alone, so byte-exactness survives any number of tiers.
func fillPattern(pkt uint32, buf []byte) {
	for i := range buf {
		buf[i] = byte(uint32(i)*2654435761 + pkt*97 + 13)
	}
}

// newOrigin starts an origin hub serving streamID on a loopback listener.
// grace is the hub's ReattachGrace (0 default, negative disables).
func newOrigin(t *testing.T, streamID string, mu float64, payload int, count int64, grace time.Duration) (*hub.Hub, net.Listener) {
	t.Helper()
	h, err := hub.New(hub.Config{
		Stream:        wire.Config{Mu: mu, PayloadSize: payload, Count: count, Fill: fillPattern},
		StreamID:      streamID,
		ReattachGrace: grace,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve(ln)
	return h, ln
}

// newRelay builds a relay on cfg with test-friendly redial defaults and
// starts serving downstream joins on a fresh loopback listener.
func newRelay(t *testing.T, cfg Config) (*Relay, net.Listener) {
	t.Helper()
	if cfg.Redial.Base == 0 {
		cfg.Redial = core.RedialPolicy{Base: 20 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.2, Seed: 7}
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(ln)
	return r, ln
}

// leafClient joins addr as a two-path absolute-numbering subscriber whose
// OnPacket verifies every payload byte against the origin pattern.
// Returns the client plus the verification state.
type leafCheck struct {
	mu       sync.Mutex
	received int64
	badBytes int64
}

func newLeaf(t *testing.T, addr, streamID string, chk *leafCheck) *core.Client {
	t.Helper()
	tok, err := wire.NewToken()
	if err != nil {
		t.Fatal(err)
	}
	return &core.Client{
		Paths: 2,
		Dial: func(int) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 2*time.Second)
		},
		Join:   &wire.Join{StreamID: streamID, Token: tok, Flags: wire.JoinFlagAbsolute},
		Policy: core.RedialPolicy{Base: 20 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.2, Seed: 11},
		Receiver: core.ReceiverOptions{
			OnPacket: func(pkt uint32, _ int64, payload []byte) {
				want := make([]byte, len(payload))
				fillPattern(pkt, want)
				chk.mu.Lock()
				chk.received++
				for i := range payload {
					if payload[i] != want[i] {
						chk.badBytes++
						break
					}
				}
				chk.mu.Unlock()
			},
		},
	}
}

// TestRelayTwoTier is the tentpole acceptance test: origin → relay → two
// leaves, every leaf byte-exact and stream-complete, end-of-stream
// cascading down cleanly.
func TestRelayTwoTier(t *testing.T) {
	const (
		mu      = 400.0
		count   = 600 // ~1.5s of stream
		payload = 120
	)
	origin, oln := newOrigin(t, "tier", mu, payload, count, 0)
	defer origin.Close()
	defer oln.Close()

	r, rln := newRelay(t, Config{
		Upstreams: []string{oln.Addr().String()},
		StreamID:  "tier",
	})
	defer r.Close()
	defer rln.Close()

	select {
	case <-r.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("relay never saw the upstream header")
	}

	var wg sync.WaitGroup
	checks := make([]leafCheck, 2)
	traces := make([]*core.Trace, 2)
	errs := make([]error, 2)
	for i := range checks {
		leaf := newLeaf(t, rln.Addr().String(), "tier", &checks[i])
		wg.Add(1)
		go func(i int, leaf *core.Client) {
			defer wg.Done()
			traces[i], errs[i] = leaf.Run()
		}(i, leaf)
	}
	wg.Wait()

	for i := range checks {
		if errs[i] != nil {
			t.Fatalf("leaf %d: %v", i, errs[i])
		}
		tr := traces[i]
		if tr.Expected != count {
			t.Fatalf("leaf %d: expected %d packets announced, want %d", i, tr.Expected, count)
		}
		if got := int64(len(tr.Arrivals)); got != count {
			t.Fatalf("leaf %d: received %d distinct packets, want %d", i, got, count)
		}
		checks[i].mu.Lock()
		rec, bad := checks[i].received, checks[i].badBytes
		checks[i].mu.Unlock()
		if rec != count || bad != 0 {
			t.Fatalf("leaf %d: %d packets verified, %d byte-mismatched (want %d, 0)", i, rec, bad, count)
		}
	}

	st := r.Stats()
	if st.State != StateEnded {
		t.Fatalf("relay state %v after end-of-stream, want %v", st.State, StateEnded)
	}
	if st.Forwarded != count {
		t.Fatalf("relay forwarded %d, want %d", st.Forwarded, count)
	}
	if st.GapSkips != 0 {
		t.Fatalf("relay skipped %d sequences on a clean run", st.GapSkips)
	}
	if !st.Ended || st.Expected != count {
		t.Fatalf("relay end marker: ended=%v expected=%d, want true, %d", st.Ended, st.Expected, count)
	}
	if ps := st.Hub.Pool; ps.DoublePuts != 0 || ps.PoisonTrips != 0 || ps.Aliases != 0 {
		t.Fatalf("relay hub pool integrity: %+v", ps)
	}
}

// TestRelayLeafNumberedFromFirstPublish: a relay that joins its upstream
// mid-stream starts publishing past sequence 0. A rebased leaf that dialled
// the relay before that first publish is served only after it, and starts
// on it: its frame 0 is the packet the relay published last, nothing is
// counted dropped, and the relay's hub records no source gap.
func TestRelayLeafNumberedFromFirstPublish(t *testing.T) {
	const start = 1000 // where the origin's stream is when the relay commits
	origin, err := hub.New(hub.Config{ExternalSource: true, StreamID: "mid", Stream: wire.Config{Mu: 100, PayloadSize: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	oln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go origin.Serve(oln)
	r, rln := newRelay(t, Config{Upstreams: []string{oln.Addr().String()}, StreamID: "mid", Paths: 1})
	defer r.Close()
	defer rln.Close()
	waitFor(t, "the relay's local hub", func() bool { return r.local.Load() != nil })

	leaf, err := net.DialTimeout("tcp", rln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	tok, err := wire.NewToken()
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteJoin(leaf, wire.Join{StreamID: "mid", Token: tok}); err != nil {
		t.Fatal(err)
	}
	// A relay that served from its first header attaches the leaf now,
	// before any packet; give it the chance.
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if r.local.Load().SubscriberCount() == 1 {
			break
		}
	}

	// Each packet is stamped with its own sequence, so the leaf's record
	// says which origin packet its frame 0 carried.
	payload := make([]byte, 8)
	publish := func(from, to int64) {
		for seq := from; seq < to; seq++ {
			if !origin.PublishAt(seq, seq, payload) {
				t.Fatalf("origin refused packet %d", seq)
			}
		}
	}
	// One packet makes the relay ready; the leaf attaches while it is the
	// only one the relay holds.
	publish(start, start+1)
	waitFor(t, "the leaf to attach", func() bool { h := r.Hub(); return h != nil && h.SubscriberCount() == 1 })
	publish(start+1, start+2*syncDepth)
	origin.Stop()

	tr, err := core.Receive([]net.Conn{leaf})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Arrivals) == 0 {
		t.Fatal("the leaf received nothing")
	}
	if a := tr.Arrivals[0]; a.Pkt != 0 || a.Gen != start {
		t.Fatalf("the leaf's first frame is numbered %d and carries packet %d, want frame 0 carrying packet %d", a.Pkt, a.Gen, start)
	}
	if m := tr.Missing(); len(m) != 0 || len(tr.Arrivals) != 2*syncDepth {
		t.Fatalf("the leaf got %d packets and misses %d, want all %d from packet %d", len(tr.Arrivals), len(m), 2*syncDepth, start)
	}
	h := r.Hub()
	if d := h.TotalDropped(); d != 0 {
		t.Fatalf("relay hub dropped %d packets for a leaf that kept up", d)
	}
	if sg := h.Stats().SourceGaps; sg != 0 {
		t.Fatalf("relay hub counts %d source gaps before its first packet", sg)
	}
}

// TestRelayDrainOneBudget: Drain's two phases — the upstream flush and the
// downstream drain — share one timeout. With a downstream leaf that never
// reads, Drain must give up (false) within about its budget whether the
// upstream is waiting out a redial backoff or its manager never finishes.
func TestRelayDrainOneBudget(t *testing.T) {
	const budget = 300 * time.Millisecond
	// stall attaches a leaf that never reads: the unbuffered pipe blocks
	// the hub's first write to it, so the hub cannot drain.
	stall := func(t *testing.T, h *hub.Hub, id string) {
		leaf, conn := net.Pipe()
		t.Cleanup(func() { leaf.Close() })
		tok, err := wire.NewToken()
		if err != nil {
			t.Fatal(err)
		}
		if err := h.AttachJoined(conn, wire.Join{StreamID: id, Token: tok}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name  string
		relay func(t *testing.T) *Relay
	}{
		{"upstream in redial backoff", func(t *testing.T) *Relay {
			origin, oln := newOrigin(t, "live", 300.0, 100, 0, 0)
			r, err := New(Config{
				Upstreams:   []string{oln.Addr().String()},
				StreamID:    "live",
				Paths:       1,
				Redial:      core.RedialPolicy{Base: time.Minute, Max: time.Minute, Seed: 1},
				OrphanGrace: time.Minute,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(r.Close)
			select {
			case <-r.Ready():
			case <-time.After(5 * time.Second):
				t.Fatal("relay never published")
			}
			stall(t, r.Hub(), "live")
			oln.Close()
			origin.Close()
			waitFor(t, "the upstream path to drop", func() bool { return r.Stats().LivePaths == 0 })
			return r
		}},
		{"upstream manager never finishes", func(t *testing.T) *Relay {
			r := testRelay(Config{StreamID: "stuck"})
			r.fwd = newForwarder(r, 0)
			h, err := hub.New(hub.Config{ExternalSource: true, StreamID: "stuck", Stream: wire.Config{Mu: 100, PayloadSize: 8}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(h.Close)
			r.local.Store(h)
			stall(t, h, "stuck")
			return r
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.relay(t)
			begin := time.Now()
			if r.Drain(budget) {
				t.Fatal("Drain reported success with a leaf that never reads")
			}
			if took := time.Since(begin); took > budget*6/5 {
				t.Fatalf("Drain(%v) took %v", budget, took)
			}
		})
	}
}

// TestRelayOrphanNoUpstream: a relay whose every candidate is unreachable
// must give up after the orphan grace instead of hanging Serve forever.
// The countdown New arms runs on a hand clock, which the test moves past
// the grace.
func TestRelayOrphanNoUpstream(t *testing.T) {
	// A port that was just listening and no longer is: dials get refused.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.Addr().String()
	dead.Close()

	hand := &handClock{now: time.Unix(1, 0)}
	r, err := newOn(hand, Config{
		Upstreams:   []string{addr},
		StreamID:    "lost",
		OrphanGrace: time.Minute,
		Redial:      core.RedialPolicy{Base: 10 * time.Millisecond, Max: 40 * time.Millisecond, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	done := make(chan error, 1)
	go func() { done <- r.Serve(ln) }()
	hand.advance(time.Minute)
	select {
	case err := <-done:
		if !errors.Is(err, ErrNoUpstream) {
			t.Fatalf("Serve returned %v, want ErrNoUpstream", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not give up on an unreachable upstream")
	}
	if st := r.Stats(); st.State != StateOrphaned {
		t.Fatalf("relay state %v, want %v", st.State, StateOrphaned)
	}
}

// TestRelayUpstreamLostPropagates: when the origin dies for good
// mid-stream, subscribers of the relay get a clean end marker for what
// was delivered, and later joins are answered with the typed
// upstream-lost reject (errors.Is-matchable through the client stack).
func TestRelayUpstreamLostPropagates(t *testing.T) {
	origin, oln := newOrigin(t, "live", 300.0, 100, 0, 0) // endless
	// One upstream path: an abnormal cut then leaves no interleave gap, so
	// the flushed ring is contiguous and the leaf's trace provably complete.
	r, rln := newRelay(t, Config{
		Upstreams:   []string{oln.Addr().String()},
		StreamID:    "live",
		Paths:       1,
		OrphanGrace: 250 * time.Millisecond,
	})
	defer r.Close()
	defer rln.Close()

	select {
	case <-r.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("relay never saw the upstream header")
	}

	var chk leafCheck
	leaf := newLeaf(t, rln.Addr().String(), "live", &chk)
	var tr *core.Trace
	var leafErr error
	leafDone := make(chan struct{})
	go func() {
		defer close(leafDone)
		tr, leafErr = leaf.Run()
	}()

	time.Sleep(300 * time.Millisecond) // let some stream flow
	oln.Close()
	origin.Close() // hard kill: no end markers upstream

	select {
	case <-leafDone:
	case <-time.After(10 * time.Second):
		t.Fatal("leaf still running after upstream loss + orphan grace")
	}
	if leafErr != nil {
		t.Fatalf("pre-orphan leaf should end cleanly, got %v", leafErr)
	}
	if tr.Expected <= 0 || int64(len(tr.Arrivals)) != tr.Expected {
		t.Fatalf("pre-orphan leaf: %d of %d packets", len(tr.Arrivals), tr.Expected)
	}
	chk.mu.Lock()
	bad := chk.badBytes
	chk.mu.Unlock()
	if bad != 0 {
		t.Fatalf("%d byte-mismatched packets at the leaf", bad)
	}

	// The relay is now orphaned: a fresh join gets the typed reject.
	if st := r.Stats(); st.State != StateOrphaned {
		t.Fatalf("relay state %v, want %v", st.State, StateOrphaned)
	}
	var lateChk leafCheck
	late := newLeaf(t, rln.Addr().String(), "live", &lateChk)
	late.Policy = core.RedialPolicy{} // a verdict, not a flake: no redial
	_, err := late.Run()
	if !errors.Is(err, wire.ErrUpstreamLost) {
		t.Fatalf("post-orphan join: %v, want errors.Is ErrUpstreamLost", err)
	}
	if !errors.Is(err, wire.ErrRejected) {
		t.Fatalf("post-orphan join: %v should also match ErrRejected", err)
	}
}

// TestRelayDrainCascade: Drain mid-stream detaches the upstream first,
// flushes, then ends the downstream leg with a clean end marker — the
// leaf sees a complete (if truncated) stream, and the origin's
// subscriber count returns to zero.
func TestRelayDrainCascade(t *testing.T) {
	// Negative grace: the origin forgets the relay's subscription the moment
	// its path dies, so the post-drain subscriber count settles promptly.
	origin, oln := newOrigin(t, "live", 300.0, 100, 0, -1) // endless
	defer origin.Close()
	defer oln.Close()

	r, rln := newRelay(t, Config{
		Upstreams: []string{oln.Addr().String()},
		StreamID:  "live",
		Paths:     1, // single path: the drain cut leaves no interleave gap
	})
	defer rln.Close()

	select {
	case <-r.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("relay never saw the upstream header")
	}

	var chk leafCheck
	leaf := newLeaf(t, rln.Addr().String(), "live", &chk)
	var tr *core.Trace
	var leafErr error
	leafDone := make(chan struct{})
	go func() {
		defer close(leafDone)
		tr, leafErr = leaf.Run()
	}()

	time.Sleep(300 * time.Millisecond)
	if !r.Drain(5 * time.Second) {
		t.Fatal("relay drain timed out")
	}

	select {
	case <-leafDone:
	case <-time.After(5 * time.Second):
		t.Fatal("leaf still running after relay drain")
	}
	if leafErr != nil {
		t.Fatalf("drained leaf: %v", leafErr)
	}
	if tr.Expected <= 0 || int64(len(tr.Arrivals)) != tr.Expected {
		t.Fatalf("drained leaf: %d of %d packets", len(tr.Arrivals), tr.Expected)
	}

	// The relay's upstream subscription must be gone at the origin.
	deadline := time.Now().Add(5 * time.Second)
	for origin.SubscriberCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("origin still holds %d subscribers after relay drain", origin.SubscriberCount())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestConfigRejectsBadLocalHub: the local hub is built only once the
// upstream header arrives, but it inherits the hub's bounds at New — a lag
// window past hub.MaxLagWindow is refused before any dial.
func TestConfigRejectsBadLocalHub(t *testing.T) {
	for _, hc := range []hub.Config{
		{LagWindow: hub.MaxLagWindow + 1},
		{MaxConns: -1},
	} {
		r, err := New(Config{Upstreams: []string{"127.0.0.1:1"}, Paths: 1, Hub: hc})
		if err == nil {
			r.Close()
			t.Errorf("local hub config %+v accepted", hc)
		}
	}
}

// TestConfigRejectsBadRedial: an upstream redial policy no schedule can
// follow is a configuration error, even where a zero Base would have
// replaced it with the default.
func TestConfigRejectsBadRedial(t *testing.T) {
	for _, p := range []core.RedialPolicy{
		{Base: time.Millisecond, Jitter: 2},
		{Base: -time.Second},
		{Budget: -1},
		{Base: time.Millisecond, Multiplier: math.Inf(1)},
	} {
		r, err := New(Config{Upstreams: []string{"127.0.0.1:1"}, Paths: 1, Redial: p})
		if err == nil {
			r.Close()
			t.Errorf("redial policy %+v accepted", p)
		}
	}
}

// TestConfigRejectsBadReorderWindow: the reorder ring is sized for the
// window at New, so a window whose span no core.SeqRing takes is refused
// before any dial.
func TestConfigRejectsBadReorderWindow(t *testing.T) {
	for _, w := range []int{-1, core.MaxSeqSpan, math.MaxInt} {
		r, err := New(Config{Upstreams: []string{"127.0.0.1:1"}, Paths: 1, ReorderWindow: w})
		if err == nil {
			r.Close()
			t.Errorf("reorder window %d accepted", w)
		}
	}
}
