package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"dmpstream/internal/wire"
)

func TestSessionAddPathMidStream(t *testing.T) {
	srv, err := NewServer(wire.Config{Mu: 400, PayloadSize: 100, Count: 800}) // ~2s stream
	if err != nil {
		t.Fatal(err)
	}
	c0, s0 := tcpPair(t)
	c1, s1 := tcpPair(t)

	sess := srv.Start()
	if idx := sess.AddPath(s0); idx != 0 {
		t.Fatalf("first path index %d", idx)
	}

	// The client must start reading path 1 only once it exists; run both
	// readers but dial in the second connection after ~0.5 s of stream.
	var tr *Trace
	var rErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(500 * time.Millisecond)
		if idx := sess.AddPath(s1); idx != 1 {
			t.Errorf("second path index %d", idx)
		}
	}()
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		tr, rErr = Receive([]net.Conn{c0, c1})
	}()

	n, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	s0.Close()
	s1.Close()
	wg.Wait()
	rwg.Wait()
	if rErr != nil {
		t.Fatal(rErr)
	}
	if n != 800 || int64(len(tr.Arrivals)) != 800 {
		t.Fatalf("generated %d, arrived %d", n, len(tr.Arrivals))
	}
	counts := srv.PathCounts()
	if len(counts) != 2 || counts[1] == 0 {
		t.Fatalf("late-added path carried nothing: %v", counts)
	}
}

func TestSessionSurvivesPathFailure(t *testing.T) {
	srv, err := NewServer(wire.Config{Mu: 400, PayloadSize: 100, Count: 800})
	if err != nil {
		t.Fatal(err)
	}
	c0, s0 := tcpPair(t)
	c1, s1 := tcpPair(t)

	sess := srv.Start()
	sess.AddPath(s0)
	sess.AddPath(s1)

	var tr *Trace
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		tr, _ = Receive([]net.Conn{c0, c1}) // path-1 error expected
	}()
	// Kill path 1 shortly into the stream.
	go func() {
		time.Sleep(300 * time.Millisecond)
		c1.Close()
		s1.Close()
	}()

	n, err := sess.Wait()
	if err == nil {
		t.Fatal("expected a path error from the killed connection")
	}
	s0.Close()
	rwg.Wait()

	if n != 800 {
		t.Fatalf("generation stalled at %d", n)
	}
	// The healthy path must have carried the stream to completion: we accept
	// the loss of packets stuck in the dead path's buffers.
	if int64(len(tr.Arrivals)) < 700 {
		t.Fatalf("only %d/800 arrived after single-path failure", len(tr.Arrivals))
	}
	counts := srv.PathCounts()
	if counts[0] < counts[1] {
		t.Fatalf("healthy path did not dominate after failure: %v", counts)
	}
}

// writeLog is a sender's conn that keeps a copy of every Write; first is
// closed once the write after the stream header, the first frame, is done.
type writeLog struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
	first  chan struct{}
}

func (c *writeLog) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes = append(c.writes, slices.Clone(p[:n]))
	if len(c.writes) == 2 {
		close(c.first)
	}
	return n, err
}

// TestSenderCatchUpBatchAfterSiblingDies: a survivor at pace renders one
// frame a write. When its sibling dies, the sibling's 32-packet
// ResendWindow goes back to the queue and the survivor claims it in one
// batch, so its render buffer must grow from one frame to sendBatch. Every
// frame of that write, and of the at-pace writes rendered into the grown
// buffer after it, must carry its own packet's header and payload, and the
// stream must arrive whole.
func TestSenderCatchUpBatchAfterSiblingDies(t *testing.T) {
	const window, count, payload = 32, 90, 48
	fill := func(pkt uint32, buf []byte) {
		for i := range buf {
			buf[i] = byte(pkt*31) + byte(i)
		}
	}
	srv, err := NewServer(wire.Config{Mu: 100, PayloadSize: payload, Count: count, ResendWindow: window, Fill: fill})
	if err != nil {
		t.Fatal(err)
	}
	frameSize := wire.FrameHeaderSize + payload
	want := make([]byte, payload)
	var badPayloads int // guarded by the receiver's lock, under which OnPacket runs
	r := NewReceiver(ReceiverOptions{OnPacket: func(pkt uint32, _ int64, p []byte) {
		fill(pkt, want)
		if !bytes.Equal(p, want) {
			badPayloads++
		}
	}})
	doomed, doomedPeer := net.Pipe()
	survivorConn, survivorPeer := net.Pipe()
	survivor := &writeLog{Conn: survivorConn, first: make(chan struct{})}
	var survivorErr error
	var rwg sync.WaitGroup
	rwg.Add(2)
	go func() {
		defer rwg.Done()
		r.Run(0, doomedPeer) // fails once the path is cut
	}()
	go func() {
		defer rwg.Done()
		survivorErr = r.Run(1, survivorPeer)
	}()

	sess := srv.Start()
	sess.AddPath(doomed)
	deadline := time.Now().Add(5 * time.Second)
	for srv.PathCounts()[0] <= window {
		if time.Now().After(deadline) {
			t.Fatal("the first path never filled its resend window")
		}
		time.Sleep(5 * time.Millisecond)
	}
	sess.AddPath(survivor)
	select {
	case <-survivor.first:
	case <-time.After(5 * time.Second):
		t.Fatal("the second path never wrote a frame")
	}
	doomed.Close() // its write fails and its window goes back to the queue
	if n, err := sess.Wait(); n != count || err == nil {
		t.Fatalf("generated %d of %d, error %v; want all and the cut path's error", n, count, err)
	}
	rwg.Wait()
	survivorConn.Close()
	if survivorErr != nil {
		t.Fatalf("survivor: %v", survivorErr)
	}
	tr := r.Trace()
	if tr.Expected != count || len(tr.Missing()) != 0 || badPayloads != 0 {
		t.Fatalf("expected %d, missing %v, %d bad payloads", tr.Expected, tr.Missing(), badPayloads)
	}

	gen := make(map[uint32]int64, len(tr.Arrivals))
	for _, a := range tr.Arrivals {
		gen[a.Pkt] = a.Gen
	}
	writes := survivor.writes[1:] // after the stream header
	if len(writes[0]) != frameSize {
		t.Fatalf("survivor's write before the cut was %d B, want one %d-byte frame", len(writes[0]), frameSize)
	}
	catchUp := slices.IndexFunc(writes, func(w []byte) bool { return len(w) == sendBatch*frameSize })
	if catchUp < 0 || catchUp == len(writes)-1 {
		t.Fatalf("no %d-frame catch-up write followed by writes at pace: %d writes", sendBatch, len(writes))
	}
	for i, w := range writes {
		if len(w)%frameSize != 0 {
			t.Fatalf("write %d is %d B, not whole frames", i, len(w))
		}
		for off := 0; off < len(w); off += frameSize {
			f := w[off : off+frameSize]
			pkt, g, err := wire.ParseFrameHeader(f)
			switch {
			case err != nil:
				t.Fatalf("write %d, frame at %d: %v", i, off, err)
			case pkt == wire.EndMarker:
				if i != len(writes)-1 || off+frameSize != len(w) || g != count {
					t.Fatalf("write %d: end marker at %d announcing %d", i, off, g)
				}
			case g != gen[pkt]:
				t.Fatalf("write %d: packet %d stamped %d, generated at %d", i, pkt, g, gen[pkt])
			default:
				fill(pkt, want)
				if !bytes.Equal(f[wire.FrameHeaderSize:], want) {
					t.Fatalf("write %d: packet %d carries another payload", i, pkt)
				}
			}
		}
	}
}

// sinkConn is a sender's conn that takes every write whole and keeps
// nothing.
type sinkConn struct{ net.Conn }

func (sinkConn) Write(p []byte) (int, error) { return len(p), nil }

// TestSenderRenderBufferShrinks: a sender that caught up in one 32-frame
// write holds a 32-frame render buffer. Once a whole run of sendBatch writes
// at pace has used at most half of it, the sender must hand it back and
// render into one frame again; a run with one write past half keeps it. A
// later catch-up grows it again. Every frame of every write must carry its
// own packet's header and payload.
func TestSenderRenderBufferShrinks(t *testing.T) {
	const payload = 48
	fill := func(pkt uint32, buf []byte) {
		for i := range buf {
			buf[i] = byte(pkt*31) + byte(i)
		}
	}
	srv, err := NewServer(wire.Config{Mu: 100, PayloadSize: payload, Fill: fill})
	if err != nil {
		t.Fatal(err)
	}
	conn := &writeLog{Conn: sinkConn{}, first: make(chan struct{})}
	p := (&Session{srv: srv}).newPathSender(0, conn)
	frameSize := wire.FrameHeaderSize + payload
	next := uint32(0)
	send := func(n int) {
		t.Helper()
		for i := range p.batch[:n] {
			p.batch[i] = queued{pkt: next, gen: int64(next)*7 + 1}
			next++
		}
		if err := p.send(n); err != nil {
			t.Fatal(err)
		}
	}
	frames := func() int { return len(p.buf) / frameSize }
	paced := func(writes int) {
		t.Helper()
		for i := 0; i < writes; i++ {
			if frames() != sendBatch {
				t.Fatalf("render buffer down to %d frames after %d writes at pace, want %d until a run of %d", frames(), i, sendBatch, sendBatch)
			}
			send(1)
		}
	}

	send(1)
	if frames() != 1 {
		t.Fatalf("render buffer of %d frames at pace, want 1", frames())
	}
	send(sendBatch)
	paced(sendBatch)
	if frames() != 1 {
		t.Fatalf("render buffer still %d frames after a run of %d writes at pace, want 1", frames(), sendBatch)
	}

	send(3) // grows to 4 frames
	send(sendBatch)
	paced(sendBatch / 2)
	send(sendBatch/2 + 1) // past half: the run keeps the buffer
	paced(sendBatch/2 - 1)
	paced(sendBatch)
	if frames() != 1 {
		t.Fatalf("render buffer still %d frames after a run of %d writes at pace, want 1", frames(), sendBatch)
	}
	send(1)

	stream := bytes.Join(conn.writes, nil)
	if len(stream) != int(next)*frameSize {
		t.Fatalf("%d B written, want %d frames of %d B", len(stream), next, frameSize)
	}
	want := make([]byte, payload)
	for pkt := uint32(0); pkt < next; pkt++ {
		f := stream[int(pkt)*frameSize : int(pkt+1)*frameSize]
		got, gen, err := wire.ParseFrameHeader(f)
		if fill(pkt, want); err != nil || got != pkt || gen != int64(pkt)*7+1 || !bytes.Equal(f[wire.FrameHeaderSize:], want) {
			t.Fatalf("frame %d: packet %d stamped %d (%v), or another payload", pkt, got, gen, err)
		}
	}
}

// batchSender returns a path sender of 1000-byte payloads, with a resend
// ring of sendBatch, whose claim buffer holds the first frames packets.
func batchSender(tb testing.TB, frames int, conn net.Conn) *pathSender {
	tb.Helper()
	srv, err := NewServer(wire.Config{Mu: 300, PayloadSize: 1000, ResendWindow: sendBatch,
		Fill: func(pkt uint32, buf []byte) { binary.LittleEndian.PutUint32(buf, pkt) }})
	if err != nil {
		tb.Fatal(err)
	}
	p := (&Session{srv: srv}).newPathSender(0, conn)
	for i := range p.batch[:frames] {
		p.batch[i] = queued{pkt: uint32(i), gen: int64(i)}
	}
	return &p
}

// BenchmarkSenderBatch times one path sender's render and write — frame
// headers and payload fill into the render buffer, one Write into a
// discarding conn, the resend ring — for a one-frame write at pace and a
// 32-frame catch-up. allocs/op must read 0 once the buffer has grown;
// ns/frame is the per-frame cost of the stage.
func BenchmarkSenderBatch(b *testing.B) {
	for _, frames := range []int{1, sendBatch} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			p := batchSender(b, frames, sinkConn{})
			if err := p.send(frames); err != nil { // grows the render buffer
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.send(frames); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/frame")
		})
	}
}

func TestAddPathAfterWaitPanics(t *testing.T) {
	srv, err := NewServer(wire.Config{Mu: 1000, PayloadSize: 10, Count: 5})
	if err != nil {
		t.Fatal(err)
	}
	c0, s0 := tcpPair(t)
	sess := srv.Start()
	sess.AddPath(s0)
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		Receive([]net.Conn{c0})
	}()
	if _, err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
	s0.Close()
	rwg.Wait()
	defer func() {
		if recover() == nil {
			t.Error("AddPath after Wait did not panic")
		}
	}()
	_, s1 := tcpPair(t)
	sess.AddPath(s1)
}

func TestSessionRemovePathDrains(t *testing.T) {
	srv, err := NewServer(wire.Config{Mu: 400, PayloadSize: 100, Count: 1200}) // 3s stream
	if err != nil {
		t.Fatal(err)
	}
	c0, s0 := tcpPair(t)
	c1, s1 := tcpPair(t)
	sess := srv.Start()
	sess.AddPath(s0)
	k1 := sess.AddPath(s1)

	var tr *Trace
	var rErr error
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		tr, rErr = Receive([]net.Conn{c0, c1})
	}()
	go func() {
		time.Sleep(500 * time.Millisecond)
		sess.RemovePath(k1)
		sess.RemovePath(k1) // idempotent
		sess.RemovePath(99) // unknown: no-op
	}()
	n, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	s0.Close()
	s1.Close()
	rwg.Wait()
	if rErr != nil {
		t.Fatal(rErr)
	}
	if n != 1200 || int64(len(tr.Arrivals)) != 1200 {
		t.Fatalf("generated %d arrived %d; removal must not lose packets", n, len(tr.Arrivals))
	}
	counts := srv.PathCounts()
	// Path 1 served only the first ~0.5s of a 3s stream.
	if counts[1] >= counts[0] {
		t.Fatalf("removed path carried %d vs %d", counts[1], counts[0])
	}
	if counts[1] == 0 {
		t.Fatal("path 1 never carried anything before removal")
	}
}
