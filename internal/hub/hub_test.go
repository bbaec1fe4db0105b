package hub_test

import (
	"dmpstream/internal/hub"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"dmpstream/internal/core"
	"dmpstream/internal/emunet"
	"dmpstream/internal/wire"
)

// dial connects one path to addr and writes the join handshake.
func dial(t *testing.T, addr, streamID string, tok wire.Token, rcvBuf int) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if rcvBuf > 0 {
		c.(*net.TCPConn).SetReadBuffer(rcvBuf)
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

// assertExactlyOnce checks that a subscriber trace carries no duplicate and
// no out-of-range packets, and returns the number of distinct packets.
func assertExactlyOnce(t *testing.T, name string, tr *core.Trace) int64 {
	t.Helper()
	seen := make(map[uint32]bool, len(tr.Arrivals))
	for _, a := range tr.Arrivals {
		if seen[a.Pkt] {
			t.Fatalf("%s: packet %d delivered twice", name, a.Pkt)
		}
		if int64(a.Pkt) >= tr.Expected {
			t.Fatalf("%s: packet %d beyond expected %d", name, a.Pkt, tr.Expected)
		}
		seen[a.Pkt] = true
	}
	return int64(len(seen))
}

// TestHubFanout is the end-to-end acceptance test: one live source through
// the hub to three concurrent subscribers (two paths each, one subscriber
// with an emunet-impaired path) plus a deliberately stalled fourth
// subscriber that the DropOldest policy must skip ahead without degrading
// the others.
func TestHubFanout(t *testing.T) {
	const (
		mu      = 300.0
		count   = 900 // ~3s of stream
		payload = 200
	)
	h, err := hub.New(hub.Config{
		Stream:          wire.Config{Mu: mu, PayloadSize: payload, Count: count},
		StreamID:        "fanout",
		LagWindow:       256,
		Policy:          hub.DropOldest,
		PathWriteBuffer: 4096,
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

	// Impaired path: a WAN relay rate-limiting the hub→subscriber direction
	// to ~80 KB/s with periodic deep congestion episodes.
	ep := emunet.NewPeriodicEpisodes(time.Second, 300*time.Millisecond, 400*time.Millisecond)
	defer ep.Stop()
	relay, err := emunet.Listen("127.0.0.1:0", ln.Addr().String(), emunet.PathConfig{
		RateBps: 80e3, Delay: 5 * time.Millisecond, BufferKiB: 16,
		EpisodeFactor: 0.25, Shared: ep, Downstream: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	// Three healthy subscribers with two paths each; subscriber 2 routes
	// its second path through the impaired relay.
	traces := make([]*core.Trace, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		tok := newToken(t)
		addr2 := ln.Addr().String()
		if i == 2 {
			addr2 = relay.Addr()
		}
		conns := []net.Conn{
			dial(t, ln.Addr().String(), "fanout", tok, 0),
			dial(t, addr2, "fanout", tok, 0),
		}
		wg.Add(1)
		go func(i int, conns []net.Conn) {
			defer wg.Done()
			tr, err := core.Receive(conns)
			if err != nil {
				t.Errorf("subscriber %d: %v", i, err)
			}
			for _, c := range conns {
				c.Close()
			}
			traces[i] = tr
		}(i, conns)
	}

	// The stalled subscriber joins with two paths and never reads a byte.
	stTok := newToken(t)
	stalled := []net.Conn{
		dial(t, ln.Addr().String(), "fanout", stTok, 4096),
		dial(t, ln.Addr().String(), "fanout", stTok, 4096),
	}

	// Mid-stream, the stalled subscriber must have been skipped ahead
	// (drops counted) while the healthy ones track the live edge.
	deadline := time.Now().Add(8 * time.Second)
	var mid hub.Stats
	for {
		mid = h.Stats()
		var st *hub.SubscriberStats
		for i := range mid.Subs {
			if mid.Subs[i].Token == stTok.String() {
				st = &mid.Subs[i]
			}
		}
		if st != nil && st.Dropped > 0 {
			if st.Evicted {
				t.Fatal("DropOldest evicted the stalled subscriber")
			}
			if st.Lag > int64(256+64) {
				t.Fatalf("stalled lag %d exceeds window", st.Lag)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled subscriber never dropped packets: %+v", mid.Subs)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, s := range mid.Subs {
		if s.Token != stTok.String() && s.Dropped != 0 {
			t.Fatalf("healthy subscriber %s dropped %d packets", s.Token, s.Dropped)
		}
	}

	wg.Wait() // healthy subscribers drain to their end markers

	for i, tr := range traces {
		if tr == nil {
			t.Fatalf("subscriber %d: no trace", i)
		}
		uniq := assertExactlyOnce(t, "subscriber", tr)
		// Healthy subscribers must receive every non-dropped packet exactly
		// once: they dropped nothing, so all Expected packets arrive.
		if uniq != tr.Expected || int64(len(tr.Arrivals)) != tr.Expected {
			t.Fatalf("subscriber %d: %d/%d packets (arrivals %d)",
				i, uniq, tr.Expected, len(tr.Arrivals))
		}
		if tr.Expected < count-64 {
			t.Fatalf("subscriber %d joined too late: expected %d of %d", i, tr.Expected, count)
		}
		// The stalled peer must not degrade anyone's late fraction; even
		// the impaired subscriber stays comfortable at a 2s startup delay.
		if pb, _ := tr.LateFraction(2.0); pb > 0.02 {
			t.Fatalf("subscriber %d: late fraction %v at tau=2s", i, pb)
		}
	}

	// Teardown: release the stalled subscriber and drain the hub.
	for _, c := range stalled {
		c.Close()
	}
	h.Stop()
	h.Wait()

	fin := h.Stats()
	if fin.Generated != count {
		t.Fatalf("generated %d of %d", fin.Generated, count)
	}
	if fin.Dropped == 0 {
		t.Fatal("no drops recorded for the stalled subscriber")
	}
	checkOwedOrphansOnly(t, h, fin)
	if fin.Evicted != 0 {
		t.Fatalf("evictions under DropOldest: %d", fin.Evicted)
	}
	if fin.Sent == 0 || fin.GoodputPkts <= 0 {
		t.Fatalf("implausible aggregate goodput: %+v", fin)
	}
}

// TestHubEvictPolicy checks that a stalled subscriber is disconnected under
// Evict while a healthy subscriber is untouched.
func TestHubEvictPolicy(t *testing.T) {
	const count = 800
	h, err := hub.New(hub.Config{
		Stream:          wire.Config{Mu: 400, PayloadSize: 100, Count: count},
		LagWindow:       128,
		Policy:          hub.Evict,
		PathWriteBuffer: 4096,
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

	tok := newToken(t)
	conns := []net.Conn{
		dial(t, ln.Addr().String(), "live", tok, 0),
		dial(t, ln.Addr().String(), "live", tok, 0),
	}
	var tr *core.Trace
	var rErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr, rErr = core.Receive(conns)
		for _, c := range conns {
			c.Close()
		}
	}()

	stall := dial(t, ln.Addr().String(), "live", newToken(t), 4096)
	deadline := time.Now().Add(8 * time.Second)
	for h.Stats().Evicted == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled subscriber never evicted: %+v", h.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The hub closed the stalled path: draining it hits EOF/reset, not an
	// endless stream.
	stall.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, stall); err != nil {
		t.Logf("stalled path closed with: %v", err) // reset is fine too
	}
	stall.Close()

	wg.Wait()
	if rErr != nil {
		t.Fatalf("healthy subscriber: %v", rErr)
	}
	uniq := assertExactlyOnce(t, "healthy", tr)
	if uniq != tr.Expected || tr.Expected < count-64 {
		t.Fatalf("healthy subscriber got %d/%d (stream %d)", uniq, tr.Expected, count)
	}
	if pb, _ := tr.LateFraction(2.0); pb > 0.02 {
		t.Fatalf("healthy late fraction %v after peer eviction", pb)
	}

	h.Stop()
	h.Wait()
	fin := h.Stats()
	if fin.Evicted != 1 {
		t.Fatalf("evicted %d, want 1", fin.Evicted)
	}
	if fin.Dropped != 0 {
		t.Fatalf("drops under Evict: %d", fin.Dropped)
	}
}

// TestHubChurn exercises subscribers joining and leaving mid-stream under
// the race detector: abrupt leavers must not disturb a subscriber that
// stays to the end.
func TestHubChurn(t *testing.T) {
	h, err := hub.New(hub.Config{
		Stream:    wire.Config{Mu: 1000, PayloadSize: 64}, // live until Stop
		LagWindow: 2048,
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

	// One durable subscriber stays for the whole stream.
	tok := newToken(t)
	durable := []net.Conn{
		dial(t, ln.Addr().String(), "live", tok, 0),
		dial(t, ln.Addr().String(), "live", tok, 0),
	}
	var tr *core.Trace
	var rErr error
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		tr, rErr = core.Receive(durable)
		for _, c := range durable {
			c.Close()
		}
	}()

	// Churners join with 1-2 paths, read a little, and hang up abruptly.
	conns := make([][]net.Conn, 8)
	for i := range conns {
		ctok := newToken(t)
		n := 1 + i%2
		for j := 0; j < n; j++ {
			conns[i] = append(conns[i], dial(t, ln.Addr().String(), "live", ctok, 0))
		}
	}
	var cwg sync.WaitGroup
	rng := rand.New(rand.NewSource(1))
	for i := range conns {
		cwg.Add(1)
		go func(i int, hold time.Duration) {
			defer cwg.Done()
			for _, c := range conns[i] {
				c.SetReadDeadline(time.Now().Add(hold))
				io.Copy(io.Discard, c)
				c.Close()
			}
		}(i, time.Duration(50+rng.Intn(200))*time.Millisecond)
	}
	cwg.Wait()

	h.Stop()
	h.Wait()
	rwg.Wait()
	if rErr != nil {
		t.Fatalf("durable subscriber: %v", rErr)
	}
	uniq := assertExactlyOnce(t, "durable", tr)
	if uniq != tr.Expected || tr.Expected == 0 {
		t.Fatalf("durable subscriber got %d/%d", uniq, tr.Expected)
	}
	checkOwedOrphansOnly(t, h, h.Stats())
}

// checkOwedOrphansOnly is the verdict on a hub after Stop and Wait: every
// subscriber left in st is an orphan the sealed stream still owes packets
// — no path, not evicted, a lag or a resend queue to take — kept in its
// re-attach grace; Close then removes them all.
func checkOwedOrphansOnly(t *testing.T, h *hub.Hub, st hub.Stats) {
	t.Helper()
	for _, s := range st.Subs {
		if s.Paths != 0 || s.Evicted || s.Lag == 0 && s.Pending == 0 {
			t.Fatalf("subscriber left after Wait is not an owed orphan: %+v", s)
		}
	}
	t.Logf("%d owed orphans left after Wait", st.Subscribers)
	h.Close()
	if n := h.Stats().Subscribers; n != 0 {
		t.Fatalf("%d subscribers left after Close", n)
	}
}

// TestHubJoinValidation covers the join handshake edges: wrong stream id,
// join after the stream ended, garbage instead of a join.
func TestHubJoinValidation(t *testing.T) {
	h, err := hub.New(hub.Config{Stream: wire.Config{Mu: 2000, PayloadSize: 16, Count: 10}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// Wrong stream id.
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s := accept(t, ln)
	if err := wire.WriteJoin(c, wire.Join{StreamID: "other"}); err != nil {
		t.Fatal(err)
	}
	if err := h.Attach(s); err == nil {
		t.Fatal("wrong stream id accepted")
	}
	c.Close()

	// Garbage instead of a join request.
	c2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s2 := accept(t, ln)
	c2.Write(make([]byte, 64))
	if err := h.Attach(s2); err == nil {
		t.Fatal("garbage join accepted")
	}
	c2.Close()

	// Join after the stream ended.
	deadline := time.Now().Add(5 * time.Second)
	for h.Generated() < 10 {
		if time.Now().After(deadline) {
			t.Fatal("generation never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	h.Stop()
	h.Wait()
	c3, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s3 := accept(t, ln)
	if err := wire.WriteJoin(c3, wire.Join{StreamID: "live"}); err != nil {
		t.Fatal(err)
	}
	if err := h.Attach(s3); err == nil {
		t.Fatal("join after stream end accepted")
	}
	c3.Close()
}

func accept(t *testing.T, ln net.Listener) net.Conn {
	t.Helper()
	s, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestHubConfigValidation(t *testing.T) {
	bad := []hub.Config{
		{Stream: wire.Config{Mu: 0}},
		{Stream: wire.Config{Mu: 10}, LagWindow: -1},
		// The ring's slots are allocated up front: past the bound New
		// refuses rather than dies in the ring's constructor.
		{Stream: wire.Config{Mu: 10}, LagWindow: hub.MaxLagWindow + 1},
		{Stream: wire.Config{Mu: 10}, LagWindow: 1 << 40},
		{Stream: wire.Config{Mu: 10}, Policy: hub.Policy(9)},
		{Stream: wire.Config{Mu: 10}, StreamID: "this-stream-id-is-far-too-long"},
		{Stream: wire.Config{Mu: 10}, PathWriteBuffer: -1},
		{Stream: wire.Config{Mu: 10}, MaxSubscribers: -1},
		{Stream: wire.Config{Mu: 10}, MaxConns: -1},
		{Stream: wire.Config{Mu: 10}, MaxBytes: -1},
		{Stream: wire.Config{Mu: 10}, JoinTimeout: -time.Second},
	}
	for i, cfg := range bad {
		if h, err := hub.New(cfg); err == nil {
			h.Close()
			t.Errorf("config %d accepted", i)
		}
	}
	if err := (hub.Config{Stream: wire.Config{Mu: 10}, LagWindow: hub.MaxLagWindow}).Validate(); err != nil {
		t.Errorf("lag window at the bound refused: %v", err)
	}
}

// TestHubLateJoiner verifies rebased numbering: a subscriber joining
// mid-stream sees a 0-based stream starting on the newest packet at its
// join.
func TestHubLateJoiner(t *testing.T) {
	const count = 600
	h, err := hub.New(hub.Config{Stream: wire.Config{Mu: 600, PayloadSize: 64, Count: count}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go h.Serve(ln)

	// Let roughly a third of the stream pass before joining.
	deadline := time.Now().Add(5 * time.Second)
	for h.Generated() < count/3 {
		if time.Now().After(deadline) {
			t.Fatal("generation stalled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	conns := []net.Conn{dial(t, ln.Addr().String(), "live", newToken(t), 0)}
	tr, err := core.Receive(conns)
	conns[0].Close()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Expected <= 0 || tr.Expected > count-count/3+32 {
		t.Fatalf("late joiner expected %d of a %d stream (joined after %d)", tr.Expected, count, count/3)
	}
	uniq := assertExactlyOnce(t, "late-joiner", tr)
	if uniq != tr.Expected {
		t.Fatalf("late joiner got %d/%d", uniq, tr.Expected)
	}
	h.Stop()
	h.Wait()
}
