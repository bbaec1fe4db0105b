// Alloc-budget gates: the player's arrive/play/recycle cycle, in its ring
// and in its playout step, must not allocate per packet, or a CBR stream at
// wire rate turns into steady GC pressure, and neither must the connection
// wrapper a Server's paths write through. The rest of the sender's gates are the hub's
// (internal/hub/alloc_test.go): a Server's queue and path writes are a
// one-subscriber hub's.
//
// AllocsPerRun is unreliable under the race detector (instrumentation
// allocates), and the lockrank build's check allocates on every Lock, so
// the gates are built out of race and lockrank runs.
//
//go:build !race && !lockrank

package core

import (
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"dmpstream/internal/wire"
)

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

// TestPlayoutAllocFree: the playout step at pace, τ·µ packets ahead of the
// slot playing, parks each arrival in the buffer the last slot played
// handed back, and marks it in its first-arrival set. The arrive, tick and
// recycle cycle must not allocate, and neither must a duplicate.
func TestPlayoutAllocFree(t *testing.T) {
	const depth = 150 // τ·µ: 500 ms at 300 pkt/s
	p := &playout{tau: int64(500 * time.Millisecond)}
	p.header(300, 0)
	payload := make([]byte, 1024)
	next := uint32(0)
	for ; next < depth; next++ {
		p.arrive(next, payload)
	}
	cycle := func() {
		if got := p.arrive(next, payload); got != playParked {
			t.Fatalf("packet %d: answer %d, want parked", next, got)
		}
		p.arrive(next, payload) // resent: a duplicate
		next++
		slot, data, ok := p.tick()
		if !ok {
			t.Fatalf("slot %d empty", slot)
		}
		p.buf.Recycle(data)
	}
	for range 4 * depth { // until the free list is stocked
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
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

// discardConn is a connection with no writev: a pathConn gathers each
// batch into one Write to it.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error)      { return len(b), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// TestPathConnWriteAllocFree: every frame a Server's path carries goes
// through pathConn.WriteBuffers, a socket's batch as one writev and any
// other conn's gathered into one Write. Neither allocates once the path
// has written a batch of that size, and each counts the frames it wrote.
func TestPathConnWriteAllocFree(t *testing.T) {
	const payload = 100
	frame := wire.FrameHeaderSize + payload
	for _, vectored := range []bool{true, false} {
		for _, frames := range []int{1, 32} {
			t.Run(fmt.Sprintf("vectored=%v/frames=%d", vectored, frames), func(t *testing.T) {
				var conn net.Conn = discardConn{}
				if vectored {
					client, server := tcpPair(t)
					go io.Copy(io.Discard, client)
					conn = server
				}
				c := &pathConn{Conn: conn, frame: int64(frame)}
				_, c.vectored = conn.(syscall.Conn)
				if c.vectored != vectored {
					t.Fatalf("vectored %v, want %v", c.vectored, vectored)
				}
				hdr, data := make([]byte, wire.FrameHeaderSize), make([]byte, payload)
				bufs := make(net.Buffers, 2*frames)
				write := func() {
					// A writev consumes the slices it is handed, so they are
					// set again for each write, as the hub's writeBatch does.
					for i := 0; i < frames; i++ {
						bufs[2*i], bufs[2*i+1] = hdr, data
					}
					if n, err := c.WriteBuffers(bufs); err != nil || n != int64(frames*frame) {
						t.Fatalf("wrote %d bytes, error %v; want %d", n, err, frames*frame)
					}
				}
				const runs = 200
				if allocs := testing.AllocsPerRun(runs, write); allocs != 0 {
					t.Errorf("a %d-frame write allocates %.2f times, want 0", frames, allocs)
				}
				if sent, want := c.sent.Load(), int64((runs+1)*frames); sent != want {
					t.Errorf("counted %d frames, want %d", sent, want)
				}
			})
		}
	}
}
