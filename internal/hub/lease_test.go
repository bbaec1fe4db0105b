package hub

import (
	"errors"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmpstream/internal/core"
)

// Lease lifecycle: a zero-copy sender borrows its batch workspace from the
// shard for the span of one write. These tests walk every way a sender can
// leave — drained, evicted, force-closed, failed mid-batch, served from
// the resend queue only — and check after each that the lease came back
// holding no borrow, that nothing was pinned twice or recycled under a
// reader (PoisonPool), and that the shard's stock never outgrew the paths
// that could have held it.

const leasePayload = 32

// leaseConn is an in-process path connection that takes vectored writes
// natively. A non-nil gate blocks every vectored write until it is closed
// (or the conn is); failAt > 0 fails the failAt-th vectored write.
type leaseConn struct {
	gate    chan struct{}
	entered chan struct{} // one token per vectored write that reached the conn
	failAt  int64

	writes atomic.Int64 // vectored writes that reached the conn
	frames atomic.Int64 // frames carried by the ones that succeeded
	torn   atomic.Int64 // payloads that did not carry the ownFill pattern
	ended  atomic.Bool  // end marker seen
	once   sync.Once
	closed chan struct{}
}

func newLeaseConn() *leaseConn {
	return &leaseConn{closed: make(chan struct{}), entered: make(chan struct{}, 1024)}
}

var errLeaseConnWrite = errors.New("leaseConn: injected write failure")

func (c *leaseConn) WriteBuffers(bufs net.Buffers) (int64, error) {
	n := c.writes.Add(1)
	select {
	case c.entered <- struct{}{}:
	default:
	}
	if c.gate != nil {
		select {
		case <-c.gate:
		case <-c.closed:
		}
	}
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
	}
	if n == c.failAt {
		return 0, errLeaseConnWrite
	}
	var written int64
	for i := 1; i < len(bufs); i += 2 {
		p := bufs[i]
		for j := range p {
			if p[j]-p[0] != byte(j) { // ownFill: byte j is pkt*16+j
				c.torn.Add(1)
				break
			}
		}
		written += int64(len(bufs[i-1]) + len(p))
	}
	c.frames.Add(int64(len(bufs) / 2))
	return written, nil
}

func (c *leaseConn) Write(p []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
	}
	if len(p) == core.FrameHeaderSize+leasePayload {
		if pkt, _, err := core.ParseFrameHeader(p); err == nil && pkt == core.EndMarker {
			c.ended.Store(true)
		}
	}
	return len(p), nil
}
func (c *leaseConn) Close() error                     { c.once.Do(func() { close(c.closed) }); return nil }
func (c *leaseConn) Read(p []byte) (int, error)       { return 0, net.ErrClosed }
func (c *leaseConn) LocalAddr() net.Addr              { return nil }
func (c *leaseConn) RemoteAddr() net.Addr             { return nil }
func (c *leaseConn) SetDeadline(time.Time) error      { return nil }
func (c *leaseConn) SetReadDeadline(time.Time) error  { return nil }
func (c *leaseConn) SetWriteDeadline(time.Time) error { return nil }

// leaseHub builds a one-shard, poison-mode hub the test feeds by hand
// through PublishAt, so every sender parks between publishes.
func leaseHub(t *testing.T, cfg Config) *Hub {
	t.Helper()
	cfg.Stream = core.Config{Mu: 1000, PayloadSize: leasePayload}
	cfg.ExternalSource = true
	cfg.Shards = 1
	cfg.PoisonPool = true
	if cfg.LagWindow == 0 {
		cfg.LagWindow = 32
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// publish feeds packets [from, to) in the ownFill pattern.
func publish(t *testing.T, h *Hub, from, to int64) {
	t.Helper()
	payload := make([]byte, leasePayload)
	for seq := from; seq < to; seq++ {
		ownFill(uint32(seq), payload)
		if !h.PublishAt(seq, seq, payload) {
			t.Fatalf("PublishAt(%d) refused", seq)
		}
	}
}

func attach(t *testing.T, h *Hub, conn net.Conn) core.Token {
	t.Helper()
	tok := newToken(t)
	if err := h.AttachJoined(conn, core.Join{StreamID: h.cfg.StreamID, Token: tok}); err != nil {
		t.Fatal(err)
	}
	return tok
}

func waitFor(t testing.TB, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// popBatch is a worker's lease step done by hand, for tests that drive a
// subscriber without attaching a path: prev (already released) goes back
// to the shard and the subscriber's next ready frames come back pinned in
// a lease — nil when it has none.
func popBatch(sd *shard, sub *subscriber, prev *batch) *batch {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	if prev != nil {
		sd.returnLocked(prev)
	}
	return sd.popBatchLocked(sub)
}

// returnBatch ends a by-hand lease.
func returnBatch(sd *shard, b *batch) {
	sd.mu.Lock()
	sd.returnLocked(b)
	sd.mu.Unlock()
}

// stock walks the shard's free list and returns its length, failing the
// test if the list disagrees with nfree or an idle batch still holds a
// pin or a payload alias.
func stock(t *testing.T, sd *shard) int {
	t.Helper()
	sd.mu.Lock()
	defer sd.mu.Unlock()
	n := 0
	for b := sd.free; b != nil; b = b.next {
		n++
		for i := range b.bufs {
			if b.bufs[i] != nil || b.wb[2*i+1] != nil {
				t.Fatalf("idle batch %d still borrows a payload in slot %d", n, i)
			}
		}
	}
	if n != sd.nfree {
		t.Fatalf("free list holds %d batches, nfree says %d", n, sd.nfree)
	}
	return n
}

// checkQuiesced is the end-of-scenario verdict once every path has
// retired: the workers are gone, all leases are back (at most one per path
// that ever ran), no pin is outstanding — every pool buffer is on the
// freelist or in a ring slot — and the poisoning pool saw no double put
// and no write under it.
func checkQuiesced(t *testing.T, h *Hub, paths int) {
	t.Helper()
	checkWorkersGone(t, h.shards[0])
	if n := stock(t, h.shards[0]); n > paths {
		t.Fatalf("shard stocks %d batches for %d paths", n, paths)
	}
	ps := h.PoolCheck()
	if ps.DoublePuts != 0 || ps.PoisonTrips != 0 {
		t.Fatalf("pool integrity violated: %+v", ps)
	}
	held := h.ring.headSeq()
	if s := h.ring.size(); held > s {
		held = s
	}
	if live := int64(ps.Free) + held; ps.News != live {
		t.Fatalf("pins outstanding: %d buffers allocated, %d on the freelist or in the ring (%+v)", ps.News, live, ps)
	}
}

func TestLeaseGracefulDrain(t *testing.T) {
	h := leaseHub(t, Config{})
	conns := []*leaseConn{newLeaseConn(), newLeaseConn(), newLeaseConn()}
	for _, c := range conns {
		attach(t, h, c)
	}
	publish(t, h, 0, 20)
	for _, c := range conns {
		c := c
		waitFor(t, "delivery", func() bool { return c.frames.Load() == 20 })
	}
	h.Stop()
	h.Wait()
	for i, c := range conns {
		if !c.ended.Load() || c.torn.Load() != 0 {
			t.Fatalf("path %d: end marker %v, torn payloads %d", i, c.ended.Load(), c.torn.Load())
		}
	}
	checkQuiesced(t, h, len(conns))
}

// blockedWriter attaches a path whose vectored write blocks and publishes
// until that write is in flight, holding a lease.
func blockedWriter(t *testing.T, h *Hub) (*leaseConn, core.Token) {
	t.Helper()
	slow := newLeaseConn()
	slow.gate = make(chan struct{})
	tok := attach(t, h, slow)
	publish(t, h, 0, 4)
	select {
	case <-slow.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked path never reached its write")
	}
	return slow, tok
}

func TestLeaseEvictMidWrite(t *testing.T) {
	h := leaseHub(t, Config{})
	sd := h.shards[0]
	slow, tok := blockedWriter(t, h)
	// With the shard's only batch out on that write, a second path has to
	// grow the stock by one — and parks holding nothing.
	fast := newLeaseConn()
	attach(t, h, fast)
	publish(t, h, 4, 8)
	waitFor(t, "the fast path to park", func() bool { return fast.frames.Load() == 4 && stock(t, sd) == 1 })

	sd.mu.Lock()
	sd.evictLocked(sd.subs[tok])
	sd.mu.Unlock()
	waitFor(t, "evicted path exit", func() bool { return h.ConnCount() == 1 })
	if slow.frames.Load() != 0 {
		t.Fatal("evicted writer's blocked batch was delivered")
	}
	if n := stock(t, sd); n != 2 {
		t.Fatalf("stock %d after the evicted writer returned its lease, want 2", n)
	}

	// The survivor keeps streaming through the recycled batches.
	publish(t, h, 8, 16)
	waitFor(t, "survivor delivery", func() bool { return fast.frames.Load() == 12 })
	h.Stop()
	h.Wait()
	if fast.torn.Load() != 0 {
		t.Fatalf("survivor saw %d torn payloads", fast.torn.Load())
	}
	checkQuiesced(t, h, 2)
}

func TestLeaseCloseMidWrite(t *testing.T) {
	h := leaseHub(t, Config{})
	blockedWriter(t, h)
	parked := newLeaseConn()
	attach(t, h, parked)
	publish(t, h, 4, 8)
	waitFor(t, "parked delivery", func() bool { return parked.frames.Load() == 4 })
	h.Close() // force-close: returns once every sender has exited
	checkQuiesced(t, h, 2)
}

// TestLeaseWriteErrorRecentIsCopy fails a path's second vectored write and
// checks the sequences queued for retransmission — the resend ring plus
// the in-hand batch — are the subscriber's own copy: the batch they were
// read from goes straight back to the shard, and the next lessee's
// sequences must not show through.
func TestLeaseWriteErrorRecentIsCopy(t *testing.T) {
	h := leaseHub(t, Config{})
	sd := h.shards[0]
	publish(t, h, 0, 3)
	conn := newLeaseConn()
	conn.failAt = 2
	tok := newToken(t)
	// An absolute join starts at the ring tail, so the first batch carries
	// packets 0..2 in one write.
	if err := h.AttachJoined(conn, core.Join{StreamID: h.cfg.StreamID, Token: tok, Flags: core.JoinFlagAbsolute}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first batch", func() bool { return conn.frames.Load() == 3 })
	publish(t, h, 3, 4)
	waitFor(t, "the failed path to retire", func() bool { return h.ConnCount() == 0 })
	if st := h.Stats(); st.PathErrors != 1 {
		t.Fatalf("path errors %d, want the one injected write failure", st.PathErrors)
	}
	resend := func() []int64 {
		sd.mu.Lock()
		defer sd.mu.Unlock()
		return sd.subs[tok].resend
	}
	want := []int64{0, 1, 2, 3}
	if got := resend(); !reflect.DeepEqual(got, want) {
		t.Fatalf("queued for resend %v, want %v (resend ring, then the failed batch)", got, want)
	}
	waitFor(t, "the failed write's lease to come back", func() bool { return stock(t, sd) == 1 })

	// The next lessee gets the same batch and rewrites its sequences.
	other := &subscriber{token: newToken(t), shard: sd, cur: 1, window: h.cfg.LagWindow}
	addSub(sd, other)
	b := popBatch(sd, other, nil)
	if b == nil || b.n != 3 || b.seqs[0] != 1 {
		t.Fatalf("next lessee's batch: %+v", b)
	}
	if got := resend(); !reflect.DeepEqual(got, want) {
		t.Fatalf("resend queue became %v once the batch was leased again: it aliases the recycled b.seqs", got)
	}
	h.releaseBatch(b)
	returnBatch(sd, b)
	checkQuiesced(t, h, 2)
}

// TestLeaseResendOnly serves a caught-up subscriber from its resend queue
// alone, then from a resend queue whose packets have all left the ring:
// the first batch carries exactly the replayed frames, the second lease is
// taken and handed straight back with nothing to write.
func TestLeaseResendOnly(t *testing.T) {
	h := leaseHub(t, Config{LagWindow: 4})
	sd := h.shards[0]
	publish(t, h, 0, 8) // ring holds 4..7
	sub := &subscriber{token: newToken(t), shard: sd, cur: 8, window: 4, resend: []int64{5, 6}}
	addSub(sd, sub)

	b := popBatch(sd, sub, nil)
	if b == nil || b.n != 2 || b.seqs[0] != 5 || b.seqs[1] != 6 {
		t.Fatalf("resend-only batch: %+v", b)
	}
	if n := stock(t, sd); n != 0 {
		t.Fatalf("stock %d while the only batch is leased, want 0", n)
	}
	conn := newLeaseConn()
	if err := h.writeBatch(conn, sub, b); err != nil {
		t.Fatal(err)
	}
	h.releaseBatch(b)
	if conn.frames.Load() != 2 || conn.torn.Load() != 0 {
		t.Fatalf("replayed %d frames, %d torn", conn.frames.Load(), conn.torn.Load())
	}

	// Packets 0 and 1 are long gone: the lease finds nothing to pin, goes
	// back, and the stopped stream ends the sender with no lease in hand.
	setResend(sd, sub, []int64{0, 1})
	h.Stop()
	if got := popBatch(sd, sub, b); got != nil {
		t.Fatalf("popBatch pinned %d frames from a lapped resend queue", got.n)
	}
	if sub.dropped != 2 {
		t.Fatalf("lapped resends counted as %d drops, want 2", sub.dropped)
	}
	if n := stock(t, sd); n != 1 {
		t.Fatalf("stock %d after the empty lease went back, want 1", n)
	}
	checkQuiesced(t, h, 1)
}

// TestLeaseStockDecays is the no-ratchet pin: a stall that catches every
// path mid-write at once grows the shard's stock to one batch per path,
// and the generator's periodic trim brings it back down once the paths
// are keeping pace again — without costing a sender its next batch.
func TestLeaseStockDecays(t *testing.T) {
	const paths = 64
	h := leaseHub(t, Config{})
	sd := h.shards[0]
	gate := make(chan struct{})
	conns := make([]*leaseConn, paths)
	for i := range conns {
		conns[i] = newLeaseConn()
		conns[i].gate = gate
		attach(t, h, conns[i])
	}
	publish(t, h, 0, 1)
	for _, c := range conns {
		select {
		case <-c.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("a path never reached its write")
		}
	}
	if n := stock(t, sd); n != 0 {
		t.Fatalf("stock %d with every path mid-write, want 0", n)
	}
	close(gate) // the stall ends; every writer completes and parks
	waitFor(t, "leases back", func() bool { return stock(t, sd) == paths })

	head := h.ring.headSeq()
	for i := 0; i < 8*freeTrimWakes; i++ {
		sd.wake(head)
	}
	if n := stock(t, sd); n > 1 {
		t.Fatalf("stock still %d batches eight trim intervals after the stall", n)
	}
	publish(t, h, 1, 9)
	for _, c := range conns {
		c := c
		waitFor(t, "delivery after the trim", func() bool { return c.frames.Load() == 9 })
	}
	h.Stop()
	h.Wait()
	checkQuiesced(t, h, paths)
}

// TestLeaseChurnRace runs slow and fast writers through one shard's free
// list while paths come and go, under the race detector (no !race tag on
// this file on purpose): a batch leased to two senders at once, or handed
// back with a pin still in it, shows as a race, a torn payload, a poison
// trip or a double put.
func TestLeaseChurnRace(t *testing.T) {
	h, err := New(Config{
		Stream:     core.Config{Mu: 4000, PayloadSize: leasePayload, Fill: ownFill},
		LagWindow:  64,
		Shards:     1,
		PoisonPool: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	h.batchFrames = 4 // small leases: a backlogged path takes several writes to drain

	var (
		mu    sync.Mutex
		conns []*leaseConn
		paths int
	)
	join := func(slow bool) *leaseConn {
		c := newLeaseConn()
		if slow {
			c.gate = make(chan struct{})
			go func() { // a writer that takes a few ms per batch
				for {
					select {
					case c.gate <- struct{}{}:
						time.Sleep(2 * time.Millisecond)
					case <-c.closed:
						return
					}
				}
			}()
		}
		if err := h.AttachJoined(c, core.Join{StreamID: h.cfg.StreamID, Token: newToken(t)}); err != nil {
			t.Error(err)
		}
		mu.Lock()
		conns = append(conns, c)
		paths++
		mu.Unlock()
		return c
	}
	for i := 0; i < 8; i++ {
		join(i%2 == 1)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(slow bool) { // churn: a path joins, streams briefly, leaves abruptly
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c := join(slow)
				time.Sleep(5 * time.Millisecond)
				c.Close()
			}
		}(w == 1)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	h.Stop()
	h.Wait()

	var frames int64
	for _, c := range conns {
		frames += c.frames.Load()
		if n := c.torn.Load(); n != 0 {
			t.Fatalf("%d payloads torn under a writer", n)
		}
		c.Close()
	}
	if frames == 0 {
		t.Fatal("no frames delivered")
	}
	checkQuiesced(t, h, paths)
}
