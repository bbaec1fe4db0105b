// Alloc-budget gates for the single-stream sender: the producer's tick
// (generate), the per-frame cycle (queue pop, frame header encode, render,
// conn write) and a whole path session must not allocate per frame, or a
// CBR stream at wire rate turns into steady GC pressure and a path's
// sender stops refilling its send buffer the moment there is room. Each
// gate also checks that the path it exists for ran, so none can pass
// vacuously.
//
// AllocsPerRun is unreliable under the race detector (instrumentation
// allocates), and the lockrank build's check allocates on every Lock, so
// the gates are built out of race and lockrank runs.
//
//go:build !race && !lockrank

package core

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dmpstream/internal/wire"
)

// TestPopAllocFree: the queue pop — including the inlined non-blocking
// stop check that used to be a per-call closure — must be allocation-free
// when the queue stays within its backing array.
func TestPopAllocFree(t *testing.T) {
	s := &Server{cfg: wire.Config{}}
	s.cond = sync.NewCond(&s.mu)
	s.pathSent = []int64{0}
	s.queue = make([]queued, 0, 4)
	stop := make(chan struct{})

	allocs := testing.AllocsPerRun(200, func() {
		s.mu.Lock()
		s.queue = append(s.queue, queued{pkt: 1, gen: 2})
		s.mu.Unlock()
		if _, ok := s.pop(0, stop); !ok {
			t.Fatal("pop returned !ok with a non-empty queue")
		}
	})
	if allocs != 0 {
		t.Errorf("pop allocates %.2f times per frame, want 0", allocs)
	}
}

// nullConn swallows writes; every other net.Conn method crashes, which is
// the point — writeFrame's steady state must touch nothing else.
type nullConn struct{ net.Conn }

func (nullConn) Write(p []byte) (int, error) { return len(p), nil }

// TestWriteFrameAllocFree: a clean write allocates nothing.
func TestWriteFrameAllocFree(t *testing.T) {
	s := &Server{cfg: wire.Config{}}
	sess := &Session{srv: s}
	var conn net.Conn = nullConn{}
	frame := make([]byte, wire.FrameHeaderSize+64)

	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sess.writeFrame(conn, frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("writeFrame allocates %.2f times per frame, want 0", allocs)
	}
}

// countConn is a sender's conn that counts the writes and the bytes it
// takes: at most max bytes a write (all of them when max is 0).
type countConn struct {
	net.Conn
	max           int
	writes, bytes int
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes++
	if c.max > 0 && len(p) > c.max {
		p = p[:c.max]
	}
	c.bytes += len(p)
	return len(p), nil
}

func (c *countConn) SetWriteDeadline(time.Time) error { return nil }

// TestSendAllocFree: one path sender's render and write — frame headers and
// payload fill into the render buffer, one Write, the resend ring — for a
// write at pace and a sendBatch-frame catch-up, once the render buffer has
// grown to the catch-up.
func TestSendAllocFree(t *testing.T) {
	const runs = 200
	for _, frames := range []int{1, sendBatch} {
		t.Run(fmt.Sprintf("frames=%d", frames), func(t *testing.T) {
			conn := &countConn{}
			p := batchSender(t, frames, conn)
			send := func() {
				if err := p.send(frames); err != nil {
					t.Fatal(err)
				}
			}
			send() // grows the render buffer
			if allocs := testing.AllocsPerRun(runs, send); allocs != 0 {
				t.Errorf("sending %d frames a write allocates %.2f times per write, want 0", frames, allocs)
			}
			// AllocsPerRun makes one call of its own before it measures.
			if writes := runs + 2; conn.writes != writes || conn.bytes != writes*frames*p.frameSize {
				t.Fatalf("%d writes of %d B, want %d writes of %d frames of %d B",
					conn.writes, conn.bytes, writes, frames, p.frameSize)
			}
		})
	}
}

// TestGenerateAllocFree: the producer queues one packet per tick of its
// schedule. Run to Count into a queue with room for every packet, it
// allocates nothing; a per-packet allocation would read packets.
func TestGenerateAllocFree(t *testing.T) {
	const packets = 2000
	srv, err := NewServer(wire.Config{Mu: 1e6, PayloadSize: 64, Count: packets})
	if err != nil {
		t.Fatal(err)
	}
	queue := make([]queued, 0, packets)
	run := func() {
		srv.queue, srv.qhead, srv.generated, srv.genDone = queue, 0, 0, false
		srv.generate()
		if len(srv.queue) != packets || srv.generated != packets || !srv.genDone {
			t.Fatalf("generated %d, queued %d (done %v), want %d", srv.generated, len(srv.queue), srv.genDone, packets)
		}
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("generating %d packets allocates %.2f times, want 0", packets, allocs)
	}
	// Stopped, the producer ends at its next tick and queues nothing.
	srv.Stop()
	srv.queue, srv.generated, srv.genDone = queue, 0, false
	if srv.generate(); len(srv.queue) != 0 || !srv.genDone {
		t.Fatalf("a stopped producer queued %d packets (done %v), want none", len(srv.queue), srv.genDone)
	}
}

// TestSendLoopAllocsFlat: a whole path session — the stream generated, the
// stream header, every packet claimed and written, the end marker —
// allocates per session (the path sender's buffers), not per packet: a
// session of 2N packets reads what one of N does. The generator runs to the
// end first, so each claim takes sendBatch packets whatever the scheduler
// does; the conn takes a part of each write, so every write is resumed.
func TestSendLoopAllocsFlat(t *testing.T) {
	const runs, payload = 10, 64
	session := func(packets int) float64 {
		srv, err := NewServer(wire.Config{Mu: 1e9, PayloadSize: payload, Count: int64(packets),
			ResendWindow: sendBatch, WriteStallTimeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		queue := make([]queued, 0, packets)
		srv.pathSent = []int64{0}
		sess := &Session{srv: srv, states: []PathState{PathActive}}
		conn := &countConn{max: 1000}
		stop := make(chan struct{})
		allocs := testing.AllocsPerRun(runs, func() {
			srv.queue, srv.qhead, srv.generated, srv.genDone = queue, 0, 0, false
			srv.generate()
			if err := sess.sendLoop(0, conn, stop); err != nil {
				t.Fatal(err)
			}
			if st := sess.states[0]; st != PathActive {
				t.Fatalf("path %v after a clean session, want active", st)
			}
		})
		frameSize := wire.FrameHeaderSize + payload
		if want := (runs + 1) * (wire.HeaderSize + (packets+1)*frameSize); conn.bytes != want {
			t.Fatalf("%d packets a session: %d B reached the conn, want %d", packets, conn.bytes, want)
		}
		return allocs
	}
	n, twice := session(1024), session(2048)
	t.Logf("a session allocates %.0f times", n)
	if n != twice {
		t.Errorf("a session allocates %.2f times for 1024 packets and %.2f for 2048, want the same", n, twice)
	}
}

// TestPlayBufferAllocFreeAtPace: a player at pace holds a steady τ·µ packets,
// so every arrival can take the buffer the last playout handed back. The
// arrive/play/recycle cycle must not allocate — and neither must an arrival
// that is not kept (a resend of a packet already waiting for its slot).
func TestPlayBufferAllocFreeAtPace(t *testing.T) {
	const depth = 100
	b := NewSeqRing(2 * depth)
	payload := make([]byte, 1024)
	next := int64(0)
	for ; next < depth; next++ {
		b.Put(next, 0, payload)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		slot := next - depth
		_, data, ok := b.Take(slot)
		if !ok {
			t.Fatalf("slot %d empty", slot)
		}
		b.Recycle(data)
		b.Put(next, 0, payload)
		b.Put(next, 0, payload) // resent: the first copy stands
		next++
	})
	if allocs != 0 {
		t.Errorf("playout at pace allocates %.2f times per packet, want 0", allocs)
	}
}

var allocSink []byte

// TestAllocMeasurementSensitivity proves the harness would catch a
// regression: a deliberately escaping per-run allocation must be
// measured as at least one allocation per run, so the zero-allocation
// assertions above cannot pass vacuously.
func TestAllocMeasurementSensitivity(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		allocSink = make([]byte, 16)
	})
	if allocs < 1 {
		t.Fatalf("seeded allocation measured as %.2f allocs/run; the alloc budget harness is blind", allocs)
	}
}
