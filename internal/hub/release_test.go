package hub

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"dmpstream/internal/wire"
)

// The generator's ring keeps a payload only from the oldest packet a
// subscriber still needs (and always the newest); a pin below that mark
// renders the packet again from Fill. These tests pin both halves: what the
// ring holds, and that every frame a catch-up, a re-attach or a resend takes
// through a released slot is byte-exact, rendered once per need and never
// counted as a drop.

// countingFill is a Fill whose payload carries its packet number — the
// number in the first four bytes, a pattern of it in the rest — and that
// counts every render of each packet, publish's and a pin's alike.
type countingFill struct {
	mu sync.Mutex
	n  map[uint32]int
}

func newCountingFill() *countingFill { return &countingFill{n: make(map[uint32]int)} }

func (c *countingFill) fill(pkt uint32, buf []byte) {
	fillNumbered(pkt, buf)
	c.mu.Lock()
	c.n[pkt]++
	c.mu.Unlock()
}

func (c *countingFill) renders(seq int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[uint32(seq)]
}

func fillNumbered(pkt uint32, buf []byte) {
	binary.BigEndian.PutUint32(buf, pkt)
	for i := 4; i < len(buf); i++ {
		buf[i] = byte(pkt) ^ byte(i)
	}
}

// frameConn records what the hub writes to one path. A non-nil gate holds
// every write until it is closed; after kill every write fails, as to a
// peer that has gone away.
type frameConn struct {
	sinkConn
	gate chan struct{}
	mu   sync.Mutex
	buf  bytes.Buffer
	dead bool
}

func (c *frameConn) Write(p []byte) (int, error) {
	if c.gate != nil {
		<-c.gate
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return 0, net.ErrClosed
	}
	return c.buf.Write(p)
}

func (c *frameConn) kill() {
	c.mu.Lock()
	c.dead = true
	c.mu.Unlock()
}

// seqs parses the stream written so far and returns the absolute sequence
// of each frame, first being the subscriber's join point, failing the test
// on a frame whose payload is not the one Fill renders for it.
func (c *frameConn) seqs(t *testing.T, first int64, payload int) []int64 {
	t.Helper()
	c.mu.Lock()
	r := bytes.NewReader(append([]byte(nil), c.buf.Bytes()...))
	c.mu.Unlock()
	if _, _, err := wire.ReadStreamHeader(r); err != nil {
		t.Fatal(err)
	}
	var out []int64
	frame := make([]byte, wire.FrameHeaderSize+payload)
	want := make([]byte, payload)
	for r.Len() > 0 {
		if _, err := r.Read(frame); err != nil {
			t.Fatal(err)
		}
		pkt, _, err := wire.ParseFrameHeader(frame)
		if err != nil {
			t.Fatal(err)
		}
		if pkt == wire.EndMarker {
			break
		}
		seq := first + int64(pkt)
		if fillNumbered(uint32(seq), want); !bytes.Equal(frame[wire.FrameHeaderSize:], want) {
			t.Fatalf("frame %d carries %x, want %x", seq, frame[wire.FrameHeaderSize:], want)
		}
		out = append(out, seq)
	}
	return out
}

// ringHeld counts the packets in the ring's window that hold a payload.
func ringHeld(h *Hub) (n int) {
	h.ring.mu.RLock()
	defer h.ring.mu.RUnlock()
	for _, s := range h.ring.slots {
		if s.payload != nil && s.seq >= h.ring.head-h.ring.n {
			n++
		}
	}
	return n
}

// released reports whether ring packet seq is in the window with its
// payload released.
func released(h *Hub, seq int64) bool {
	h.ring.mu.RLock()
	defer h.ring.mu.RUnlock()
	s := h.ring.slots[seq%h.ring.n]
	return seq >= h.ring.head-h.ring.n && s.seq == seq && s.payload == nil
}

// TestGeneratorRingHoldsWhatIsNeeded: at the paper's operating point — µ
// 300, 1000 B payloads, a 150-packet window (µ·τ_max at τ 0.5 s) — one
// subscriber at pace on a discarding connection needs only the newest
// packet, so once the ring has lapped it holds two payloads (the newest, and
// the one the last tick published before it) rather than the window, and
// the pool has made no more than a few buffers.
func TestGeneratorRingHoldsWhatIsNeeded(t *testing.T) {
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	heap0 := heap()
	h, err := New(Config{Stream: wire.Config{Mu: 300, PayloadSize: 1000}, LagWindow: 150})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.AttachJoined(sinkConn{}, wire.Join{StreamID: "live", Token: newToken(t)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "600 packets", func() bool { return h.Generated() >= 600 })
	// The mark trails the head by one tick, so a late tick of two packets
	// leaves three held until the next one.
	waitFor(t, "the ring to hold at most 2 payloads", func() bool { return ringHeld(h) <= 2 })
	news := h.PoolCheck().News
	t.Logf("the hub holds %d B of live heap after %d packets; the pool made %d buffers", int64(heap()-heap0), h.Generated(), news)
	if news > 16 {
		t.Errorf("the pool made %d buffers for a subscriber at pace, want at most 16", news)
	}
}

// TestReleasedPacketsRenderOnce drives the packets a subscriber may need
// after the ring has released them, with a Fill that counts its renders.
func TestReleasedPacketsRenderOnce(t *testing.T) {
	const payload, lag = 64, 16

	t.Run("at-pace rebased subscribers", func(t *testing.T) {
		// The real generator; three joins mid-stream. A rebased join starts on
		// the newest packet, which the ring always keeps, so nothing is
		// rendered twice.
		const count = 600
		cf := newCountingFill()
		h, err := New(Config{Stream: wire.Config{Mu: 1000, PayloadSize: payload, Count: count, Fill: cf.fill}, LagWindow: 1024, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		var conns []*frameConn
		var firsts []int64
		for _, at := range []int64{100, 200, 300} {
			waitFor(t, "the join point", func() bool { return h.Generated() >= at })
			c := &frameConn{}
			tok := newToken(t)
			if err := h.AttachJoined(c, wire.Join{StreamID: "live", Token: tok}); err != nil {
				t.Fatal(err)
			}
			sd := h.shardFor(tok)
			sd.mu.Lock()
			firsts = append(firsts, sd.subs[tok].first)
			sd.mu.Unlock()
			conns = append(conns, c)
		}
		h.Wait()
		for seq := int64(0); seq < count; seq++ {
			if n := cf.renders(seq); n != 1 {
				t.Fatalf("packet %d rendered %d times, want once", seq, n)
			}
		}
		for i, c := range conns {
			got := c.seqs(t, firsts[i], payload)
			if len(got) != int(count-firsts[i]) || got[0] != firsts[i] {
				t.Errorf("subscriber %d got %d frames from %d, want %d from %d", i, len(got), got[0], count-firsts[i], firsts[i])
			}
		}
		if d := h.TotalDropped(); d != 0 {
			t.Errorf("%d packets dropped", d)
		}
	})

	// The rest drive a hub's generator tick by tick and let its workers
	// settle in between.
	hand := func(t *testing.T, cf *countingFill) *Hub {
		h := newExternalHub(t, Config{
			Stream:        wire.Config{Mu: 250, PayloadSize: payload, Fill: cf.fill},
			LagWindow:     lag,
			Shards:        1,
			ReattachGrace: time.Minute,
			// A striped path's last 4 frames span 8 packets, well inside the
			// window: every resend is still in the ring.
			ResendWindow: 4,
		})
		t.Cleanup(h.Close)
		return h
	}
	settle := func(t *testing.T, h *Hub) {
		waitFor(t, "the paths to park", func() bool {
			pl := placed(t, h.shards[0])
			return pl.queued == 0 && pl.held == 0
		})
	}
	tick := func(t *testing.T, h *Hub) {
		h.publishTick(0, time.Time{}, 0)
		settle(t, h)
	}
	sub := func(h *Hub, tok wire.Token) *subscriber {
		sd := h.shardFor(tok)
		sd.mu.Lock()
		defer sd.mu.Unlock()
		return sd.subs[tok]
	}
	// check asserts that the packets a subscriber took through released
	// slots were rendered once more each and the rest once, and that nothing
	// was counted as a drop.
	check := func(t *testing.T, h *Hub, cf *countingFill, rendered map[int64]bool) {
		t.Helper()
		if len(rendered) == 0 {
			t.Fatal("nothing went through a released slot")
		}
		for seq := int64(0); seq < h.ring.headSeq(); seq++ {
			want := 1
			if rendered[seq] {
				want = 2
			}
			if n := cf.renders(seq); n != want {
				t.Errorf("packet %d rendered %d times, want %d", seq, n, want)
			}
		}
		if d := h.TotalDropped(); d != 0 {
			t.Errorf("%d packets counted as dropped", d)
		}
	}

	t.Run("rebased join across a tick", func(t *testing.T) {
		// A join lands between a tick's walk and the next publish, and its
		// worker is still out on the stream header when that publish
		// releases: the newest packet, where the join starts, is kept.
		cf := newCountingFill()
		h := hand(t, cf)
		for i := 0; i < 4; i++ {
			tick(t, h)
		}
		c := &frameConn{gate: make(chan struct{})}
		if err := h.AttachJoined(c, wire.Join{StreamID: "live", Token: newToken(t)}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the header write", func() bool { return placed(t, h.shards[0]).held == 1 })
		first := h.ring.headSeq() - 1
		h.publishTick(0, time.Time{}, 0)
		close(c.gate)
		settle(t, h)
		if got := c.seqs(t, first, payload); !slices.Equal(got, []int64{first, first + 1}) {
			t.Fatalf("the join got %v, want [%d %d]", got, first, first+1)
		}
		for seq := int64(0); seq < h.ring.headSeq(); seq++ {
			if n := cf.renders(seq); n != 1 {
				t.Errorf("packet %d rendered %d times, want once", seq, n)
			}
		}
	})

	t.Run("absolute join at the ring tail", func(t *testing.T) {
		cf := newCountingFill()
		h := hand(t, cf)
		for i := 0; i < 3*lag; i++ {
			tick(t, h)
		}
		head := h.ring.headSeq()
		rendered := map[int64]bool{}
		for seq := head - lag; seq < head; seq++ {
			if released(h, seq) {
				rendered[seq] = true
			}
		}
		c := &frameConn{}
		if err := h.AttachJoined(c, wire.Join{StreamID: "live", Token: newToken(t), Flags: wire.JoinFlagAbsolute}); err != nil {
			t.Fatal(err)
		}
		settle(t, h)
		got := c.seqs(t, 0, payload)
		if len(got) != lag || got[0] != head-lag || got[lag-1] != head-1 {
			t.Fatalf("the catch-up sent %v, want %d..%d", got, head-lag, head-1)
		}
		check(t, h, cf, rendered)
	})

	t.Run("re-attach within grace", func(t *testing.T) {
		cf := newCountingFill()
		h := hand(t, cf)
		tok := newToken(t)
		a := &frameConn{}
		if err := h.AttachJoined(a, wire.Join{StreamID: "live", Token: tok}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2*lag; i++ {
			tick(t, h)
		}
		a.kill()
		tick(t, h) // the write fails: the subscriber is an orphan with resends
		s := sub(h, tok)
		sd := s.shard
		sd.mu.Lock()
		resend := append([]int64(nil), s.resend...)
		orphan := len(s.links) == 0
		sd.mu.Unlock()
		if !orphan || len(resend) == 0 {
			t.Fatalf("after the death: orphan %v with resends %v", orphan, resend)
		}
		rendered := map[int64]bool{}
		for _, seq := range resend {
			if released(h, seq) {
				rendered[seq] = true
			}
		}
		b := &frameConn{}
		if err := h.AttachJoined(b, wire.Join{StreamID: "live", Token: tok}); err != nil {
			t.Fatal(err)
		}
		settle(t, h)
		if got := b.seqs(t, s.first, payload); !slices.Equal(got, resend) {
			t.Fatalf("the re-attached path got %v, want the resends %v", got, resend)
		}
		check(t, h, cf, rendered)
	})

	t.Run("mid-stream path death", func(t *testing.T) {
		cf := newCountingFill()
		h := hand(t, cf)
		tok := newToken(t)
		a, b := &frameConn{}, &frameConn{}
		for _, c := range []*frameConn{a, b} {
			if err := h.AttachJoined(c, wire.Join{StreamID: "live", Token: tok}); err != nil {
				t.Fatal(err)
			}
		}
		s := sub(h, tok)
		for i := 0; i < 2*lag; i++ {
			tick(t, h)
		}
		a.kill()
		// The paths take turns, so within two ticks a takes a frame and
		// dies; b's frames in that tick are all resends.
		var resent []int64
		for i := 0; i < 2 && resent == nil; i++ {
			before := len(b.seqs(t, s.first, payload))
			tick(t, h)
			if h.totalResent.Load() > 0 {
				resent = b.seqs(t, s.first, payload)[before:]
			}
		}
		if len(resent) == 0 {
			t.Fatal("the dead path's frames were not resent")
		}
		rendered := map[int64]bool{}
		for _, seq := range resent {
			if released(h, seq) {
				rendered[seq] = true
			}
		}
		check(t, h, cf, rendered)
	})

	t.Run("external source keeps every payload", func(t *testing.T) {
		// An upstream's packets cannot be rendered again: the ring keeps each
		// one until the head laps it, however far its subscribers are, and
		// its gaps still read as drops.
		h := newExternalHub(t, Config{Stream: wire.Config{PayloadSize: payload}, LagWindow: lag, Shards: 1})
		t.Cleanup(h.Close)
		sd := h.shards[0]
		pace := &subscriber{token: wire.Token{1}, shard: sd, window: lag}
		behind := &subscriber{token: wire.Token{2}, shard: sd, window: lag, cur: 2 * lag}
		addSub(sd, pace)
		buf := make([]byte, payload)
		for seq := int64(0); seq < 3*lag; seq++ {
			if seq == 2*lag+4 {
				seq += 4 // lost upstream: 2·lag+4 .. 2·lag+7
			}
			fillNumbered(uint32(seq), buf)
			if !h.PublishAt(seq, seq, buf) {
				t.Fatalf("PublishAt(%d) refused", seq)
			}
			for b := popBatch(sd, pace, nil); b != nil; b = popBatch(sd, pace, b) {
				h.releaseBatch(b)
			}
		}
		if n := ringHeld(h); n != lag-4 {
			t.Errorf("the ring holds %d payloads, want all %d the upstream sent in the window", n, lag-4)
		}
		addSub(sd, behind)
		var got int
		for b := popBatch(sd, behind, nil); b != nil; b = popBatch(sd, behind, b) {
			got += b.n
			h.releaseBatch(b)
		}
		if got != lag-4 || behind.dropped != 4 {
			t.Errorf("a subscriber at the window's start got %d frames and lost %d, want %d and the 4-packet gap", got, behind.dropped, lag-4)
		}
	})
}
