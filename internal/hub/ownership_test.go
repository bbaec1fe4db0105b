package hub

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"dmpstream/internal/wire"
)

// TestRingCopyAtIngest pins the ingest half of the buffer-ownership
// contract: publish fills a pool buffer while it is still private (copy
// at ingest), so mutating the generator's source after publish must never
// change what a later pin returns.
func TestRingCopyAtIngest(t *testing.T) {
	const payloadSize = 8
	source := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	r := newRing(4, 4, newBufPool(payloadSize, false), func(pkt uint32, buf []byte) { copy(buf, source) })

	head := r.publish(0, 0)
	seq := head - 1
	want := append([]byte(nil), source...)

	// The generator reuses its source buffer for the next packet; the
	// published slot must be unaffected.
	for i := range source {
		source[i] = 0xEE
	}
	pb, _, ok := r.pin(seq)
	if !ok {
		t.Fatal("published packet already lapped")
	}
	if !bytes.Equal(pb.data, want) {
		t.Fatalf("pinned payload aliases the generator source: got %v, want %v", pb.data, want)
	}
}

// TestResendRingRetainsNoPayloadAliases locks in why pin-at-fetch is
// sufficient on the hub side: the per-path resend record holds the bare
// wire numbers, re-pinned through the shared ring on re-attach, so there
// is no retained payload to go stale (TestPayloadAliasScan shows the scan
// that would count one). What the record unrolls to is checked in
// absolute sequences for a rebased subscriber, for an absolute one,
// across the ring's wrap-around, as runs, across a spill and with the
// window trimmed across runs.
func TestResendRingRetainsNoPayloadAliases(t *testing.T) {
	for _, tc := range []struct {
		name   string
		first  int64 // the subscriber's join point: 0 for a JoinFlagAbsolute subscriber
		slots  int
		write  [][]int64 // batches remembered, in order
		want   []int64
		spills bool // the writes fragment past the inline runs
	}{
		{"absolute, wrapped", 0, 3, [][]int64{{1, 2, 3, 4, 5, 6, 7}}, []int64{5, 6, 7}, false},
		{"absolute, not full", 0, 3, [][]int64{{8, 9}}, []int64{8, 9}, false},
		{"rebased, not full", 1000, 4, [][]int64{{1000, 1001}, {1002}}, []int64{1000, 1001, 1002}, false},
		{"rebased, exactly full", 1000, 3, [][]int64{{1000, 1001, 1002}}, []int64{1000, 1001, 1002}, false},
		{"rebased, wrapped mid-batch", 1 << 40, 4, [][]int64{{1<<40 + 5, 1<<40 + 6, 1<<40 + 7}, {1<<40 + 8, 1<<40 + 9, 1<<40 + 10}},
			[]int64{1<<40 + 7, 1<<40 + 8, 1<<40 + 9, 1<<40 + 10}, false},
		{"rebased, resends out of order", 500, 3, [][]int64{{510, 511}, {503, 504}}, []int64{511, 503, 504}, false},
		{"rebased, wrapped many times", 7, 2, [][]int64{{7, 8, 9}, {10, 11, 12}, {13}}, []int64{12, 13}, false},
		{"two runs, trimmed across them", 0, 4, [][]int64{{1, 2, 3}, {10, 11, 12}}, []int64{3, 10, 11, 12}, false},
		{"two runs, the older trimmed away", 0, 3, [][]int64{{1, 2}, {10, 11, 12}, {13}}, []int64{11, 12, 13}, false},
		{"spill, not full", 0, 8, [][]int64{{1, 2}, {5, 6}, {9}}, []int64{1, 2, 5, 6, 9}, true},
		{"spill, exactly full", 0, 5, [][]int64{{1, 2}, {5, 6}, {9}}, []int64{1, 2, 5, 6, 9}, true},
		{"spill, then wrapped", 100, 4, [][]int64{{101, 102}, {105, 106}, {109, 110, 111}}, []int64{106, 109, 110, 111}, true},
		{"spill, then consecutive", 0, 6, [][]int64{{1}, {3}, {5, 6, 7}, {8, 9}}, []int64{3, 5, 6, 7, 8, 9}, true},
		{"wire numbers wrap inside a run", 0, 4, [][]int64{{1<<32 - 2, 1<<32 - 1, 1 << 32, 1<<32 + 1}}, []int64{1<<32 - 2, 1<<32 - 1, 0, 1}, false},
	} {
		p := &path{sub: &subscriber{first: tc.first}}
		for _, batch := range tc.write {
			p.remember(batch, 0, tc.slots)
		}
		got := p.lastWritten()
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: a %d-slot record unrolls to %v, want %v", tc.name, tc.slots, got, tc.want)
		}
		if cap(got)-len(got) < writeBatchFrames {
			t.Errorf("%s: no room left to append the batch in hand", tc.name)
		}
		if spilled := p.ring != nil; spilled != tc.spills {
			t.Errorf("%s: spilled to a ring %v, want %v", tc.name, spilled, tc.spills)
		}
	}
	if got := (&path{sub: &subscriber{}}).lastWritten(); got != nil {
		t.Errorf("a path that never wrote unrolls to %v, want nil", got)
	}
	p := &path{sub: &subscriber{}}
	p.remember([]int64{1, 2, 3}, 0, 0)
	if got := p.lastWritten(); got != nil {
		t.Errorf("with resends disabled a path unrolls to %v, want nil", got)
	}
}

// TestPayloadAliasScan seeds each kind of retained payload alias, one at
// a time, into a quiesced poison-mode hub: a free batch keeping a payload
// slice or a pin, a subscriber and a parked path keeping a slice re-typed
// over a payload. PoolCheck must count each, whatever the slice's element
// type, and count nothing once it is dropped again.
func TestPayloadAliasScan(t *testing.T) {
	h := ownershipHub(t, 8, 8, 4)
	sd := h.shards[0]
	tok, err := wire.NewToken()
	if err != nil {
		t.Fatal(err)
	}
	sub := &subscriber{token: tok, shard: sd, cur: 4, window: 4}
	addSub(sd, sub)
	b := popBatch(sd, sub, nil) // a batch that has carried frames, back on the free list
	if b == nil {
		t.Fatal("popBatch returned no frames")
	}
	h.releaseBatch(b)
	returnBatch(sd, b)
	if ps := h.PoolCheck(); ps.Aliases != 0 {
		t.Fatalf("a clean hub counts %d aliases: %+v", ps.Aliases, ps)
	}

	// The newest packet's payload: the one the generator's ring always keeps.
	h.ring.mu.RLock()
	pb := h.ring.slots[(h.ring.head-1)%h.ring.n].payload
	h.ring.mu.RUnlock()
	p := &path{sub: sub}
	one := newBatch() // a one-frame workspace, its slices over its inline frame
	returnBatch(sd, one)
	for _, tc := range []struct {
		name       string
		seed, undo func()
	}{
		{"free batch keeps a payload slice",
			func() { b.wb[1] = pb.data[2:] }, func() { b.wb[1] = nil }},
		{"free batch keeps a pin",
			func() { b.bufs[0] = pb }, func() { b.bufs[0] = nil }},
		{"free one-frame batch keeps a payload slice",
			func() { one.wb[1] = pb.data }, func() { one.wb[1] = nil }},
		{"subscriber keeps a payload as sequences",
			func() { sub.resend = unsafe.Slice((*int64)(unsafe.Pointer(&pb.data[0])), 1) }, func() { sub.resend = nil }},
		{"parked path's record spills over a payload",
			func() {
				sub.links = []*path{p}
				p.ring = &resendRing{slots: unsafe.Slice((*uint32)(unsafe.Pointer(&pb.data[4])), 1)}
			},
			func() { sub.links, p.ring = nil, nil }},
	} {
		sd.mu.Lock()
		tc.seed()
		sd.mu.Unlock()
		if got := h.PoolCheck().Aliases; got != 1 {
			t.Errorf("%s: PoolCheck counts %d aliases, want 1", tc.name, got)
		}
		sd.mu.Lock()
		tc.undo()
		sd.mu.Unlock()
		if got := h.PoolCheck().Aliases; got != 0 {
			t.Errorf("%s: PoolCheck counts %d aliases once it is dropped, want 0", tc.name, got)
		}
	}
}

// ownFill is the deterministic payload pattern the shared-buffer tests
// assert byte-exactness against: byte i of packet pkt is pkt*16+i.
func ownFill(pkt uint32, buf []byte) {
	for i := range buf {
		buf[i] = byte(pkt)*16 + byte(i)
	}
}

func ownWant(pkt uint32, n int) []byte {
	out := make([]byte, n)
	ownFill(pkt, out)
	return out
}

// ownershipHub builds a quiesced poison-mode hub: Count packets
// published, generator done, one shard, no subscribers yet.
func ownershipHub(t *testing.T, count int64, payloadSize, lagWindow int) *Hub {
	t.Helper()
	h, err := New(Config{
		Stream:     wire.Config{Mu: 5000, PayloadSize: payloadSize, Count: count, Fill: ownFill},
		LagWindow:  lagWindow,
		Shards:     1,
		PoisonPool: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	// Wait, not stopCh: the seal closes stopCh before it judges the
	// subscriptions, and would remove one a test adds in between.
	done := make(chan struct{})
	go func() { h.Wait(); close(done) }()
	select {
	case <-done: // sealed at Count, and the generator gone
	case <-time.After(5 * time.Second):
		t.Fatal("generator did not finish")
	}
	return h
}

// TestPinnedBufferSurvivesPoolReturn is the shared-buffer aliasing pin
// for churn: a fast subscriber takes delivery and is evicted, the ring
// laps so every buffer it consumed returns to the (poisoning) pool —
// while a slow sibling still borrows two of those buffers through its
// batch pins. The pinned bytes must stay byte-exact until the sibling
// releases them, and the pool must see no double puts or poison trips
// from the whole dance.
func TestPinnedBufferSurvivesPoolReturn(t *testing.T) {
	const payloadSize = 8
	h := ownershipHub(t, 8, payloadSize, 4)
	h.batchFrames = 2 // lease capacity: the slow sibling's writev carries two frames
	sd := h.shards[0]

	mkSub := func(cur int64) *subscriber {
		tok, err := wire.NewToken()
		if err != nil {
			t.Fatal(err)
		}
		sub := &subscriber{token: tok, shard: sd, first: 0, cur: cur, window: 4}
		addSub(sd, sub)
		return sub
	}
	// head is 8, ring holds seqs 4..7.
	slow := mkSub(4)
	fast := mkSub(4)

	// The slow sibling pins seqs 4 and 5 (a writev in flight).
	slowBatch := popBatch(sd, slow, nil)
	if slowBatch == nil {
		t.Fatal("slow popBatch returned no frames")
	}
	if slowBatch.n != 2 || slowBatch.seqs[0] != 4 || slowBatch.seqs[1] != 5 {
		t.Fatalf("slow batch pinned seqs %v (n=%d), want [4 5]", slowBatch.seqs[:slowBatch.n], slowBatch.n)
	}

	// The fast subscriber takes full delivery — two leases, the second
	// handing the first back — and is then evicted.
	var fastBatch *batch
	for want := int64(4); want < 8; want += 2 {
		if fastBatch = popBatch(sd, fast, fastBatch); fastBatch == nil {
			t.Fatal("fast popBatch returned no frames")
		}
		if fastBatch == slowBatch {
			t.Fatal("fast subscriber was leased the batch its sibling still holds")
		}
		if fastBatch.n != 2 || fastBatch.seqs[0] != want {
			t.Fatalf("fast batch pinned seqs %v, want [%d %d]", fastBatch.seqs[:fastBatch.n], want, want+1)
		}
		h.releaseBatch(fastBatch)
	}
	returnBatch(sd, fastBatch)
	sd.mu.Lock()
	sd.evictLocked(fast)
	sd.mu.Unlock()

	// Lap the whole ring: every slot's buffer reference drops; unpinned
	// buffers return to the pool and are poisoned there.
	for i := 0; i < 4; i++ {
		h.ring.publish(0, 0)
	}

	// The slow sibling's pins must still hold the original bytes.
	for i := 0; i < slowBatch.n; i++ {
		want := ownWant(uint32(slowBatch.seqs[i]), payloadSize)
		if got := slowBatch.bufs[i].data; !bytes.Equal(got, want) {
			t.Fatalf("pinned seq %d recycled under the borrow: got %v, want %v", slowBatch.seqs[i], got, want)
		}
	}
	h.releaseBatch(slowBatch)
	returnBatch(sd, slowBatch)

	ps := h.PoolCheck()
	if ps.DoublePuts != 0 || ps.PoisonTrips != 0 || ps.Aliases != 0 {
		t.Fatalf("pool integrity violated: %+v", ps)
	}
	// Conservation at quiescence: every allocated buffer is either on the
	// freelist or sitting in a live ring slot.
	if live := int64(ps.Free) + h.ring.size(); ps.News != live {
		t.Fatalf("pool leak: %d buffers allocated, %d accounted for (%+v)", ps.News, live, ps)
	}
}

// wcapConn is a net.Conn that captures everything written to it.
type wcapConn struct{ buf bytes.Buffer }

func (c *wcapConn) Read(p []byte) (int, error)       { return 0, net.ErrClosed }
func (c *wcapConn) Write(p []byte) (int, error)      { return c.buf.Write(p) }
func (c *wcapConn) Close() error                     { return nil }
func (c *wcapConn) LocalAddr() net.Addr              { return nil }
func (c *wcapConn) RemoteAddr() net.Addr             { return nil }
func (c *wcapConn) SetDeadline(time.Time) error      { return nil }
func (c *wcapConn) SetReadDeadline(time.Time) error  { return nil }
func (c *wcapConn) SetWriteDeadline(time.Time) error { return nil }

// TestReattachResendReplayFromPool pins byte-exact conservation of the
// resend path over pooled buffers: a re-attached subscriber's resend
// queue is replayed through popBatch pins and a vectored writeBatch, and
// every replayed frame must carry the original payload bytes with the
// header renumbered to the subscriber's join point — even though the
// buffers have been through pool recycling since the stream started.
func TestReattachResendReplayFromPool(t *testing.T) {
	const payloadSize = 8
	// Count 12 over a 4-slot ring: seqs 0..7 were published into buffers
	// that have since been lapped and recycled through the pool; the ring
	// now holds 8..11.
	h := ownershipHub(t, 12, payloadSize, 4)
	sd := h.shards[0]
	tok, err := wire.NewToken()
	if err != nil {
		t.Fatal(err)
	}
	// A subscriber that joined at seq 6, caught up, and whose dead path
	// left seqs 9 and 10 queued for retransmission.
	sub := &subscriber{token: tok, shard: sd, first: 6, cur: 12, window: 4,
		resend: []int64{9, 10}}
	addSub(sd, sub)

	b := popBatch(sd, sub, nil)
	if b == nil {
		t.Fatal("popBatch returned no resend frames")
	}
	if b.n != 2 || b.seqs[0] != 9 || b.seqs[1] != 10 {
		t.Fatalf("replayed seqs %v (n=%d), want [9 10]", b.seqs[:b.n], b.n)
	}
	conn := &wcapConn{}
	if err := h.writeBatch(conn, sub, b); err != nil {
		t.Fatalf("writeBatch: %v", err)
	}
	h.releaseBatch(b)

	out := conn.buf.Bytes()
	frameSize := wire.FrameHeaderSize + payloadSize
	if len(out) != 2*frameSize {
		t.Fatalf("writeBatch wrote %d bytes, want %d", len(out), 2*frameSize)
	}
	for i, seq := range []int64{9, 10} {
		frame := out[i*frameSize : (i+1)*frameSize]
		pkt, _, err := wire.ParseFrameHeader(frame)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint32(seq - sub.first); pkt != want {
			t.Fatalf("replayed seq %d renumbered to %d, want %d", seq, pkt, want)
		}
		if got, want := frame[wire.FrameHeaderSize:], ownWant(uint32(seq), payloadSize); !bytes.Equal(got, want) {
			t.Fatalf("replayed seq %d payload %v, want %v (byte-exact conservation)", seq, got, want)
		}
	}
	if ps := h.PoolCheck(); ps.DoublePuts != 0 || ps.PoisonTrips != 0 || ps.Aliases != 0 {
		t.Fatalf("pool integrity violated: %+v", ps)
	}
}
