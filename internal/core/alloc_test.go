// Alloc-budget guard for the single-stream sender hot path: the per-frame
// cycle (queue pop, frame header encode, conn write) must not allocate,
// or a CBR stream at wire rate turns into steady GC pressure. The static
// side of the contract is dmplint's hotalloc analyzer over the
// `// hotpath` closure; this catches what escape analysis decides at
// compile time behind the analyzer's back.
//
// AllocsPerRun is unreliable under the race detector (instrumentation
// allocates), and the lockrank build's check allocates on every Lock, so
// the guard is built out of race and lockrank runs.
//
//go:build !race && !lockrank

package core

import (
	"net"
	"sync"
	"testing"
)

// TestPutFrameHeaderAllocFree: the frame header encode runs once per
// frame on every path of every stream.
func TestPutFrameHeaderAllocFree(t *testing.T) {
	frame := make([]byte, FrameHeaderSize+32)
	allocs := testing.AllocsPerRun(1000, func() {
		PutFrameHeader(frame, 7, 42)
	})
	if allocs != 0 {
		t.Errorf("PutFrameHeader allocates %.2f times per frame, want 0", allocs)
	}
}

// TestPopAllocFree: the queue pop — including the inlined non-blocking
// stop check that used to be a per-call closure — must be allocation-free
// when the queue stays within its backing array.
func TestPopAllocFree(t *testing.T) {
	s := &Server{cfg: Config{}}
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

// TestWriteFrameAllocFree: a clean write must not pay for the stall
// classification (errors.As boxes its target), which lives in the
// error-only block.
func TestWriteFrameAllocFree(t *testing.T) {
	s := &Server{cfg: Config{}}
	sess := &Session{srv: s}
	var conn net.Conn = nullConn{}
	frame := make([]byte, FrameHeaderSize+64)

	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sess.writeFrame(0, conn, frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("writeFrame allocates %.2f times per frame, want 0", allocs)
	}
}

// TestPlayBufferAllocFreeAtPace: a player at pace holds a steady τ·µ packets,
// so every arrival can take the buffer the last playout handed back. The
// arrive/play/recycle cycle must not allocate — and neither must an arrival
// that is not kept (a resend of a packet already waiting for its slot).
func TestPlayBufferAllocFreeAtPace(t *testing.T) {
	const depth = 100
	b := playBuffer{slots: make(map[uint32][]byte)}
	payload := make([]byte, 1024)
	next := uint32(0)
	for ; next < depth; next++ {
		b.put(next, payload)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		slot := next - depth
		data, ok := b.take(slot)
		if !ok {
			t.Fatalf("slot %d empty", slot)
		}
		b.recycle(data)
		b.put(next, payload)
		b.put(next, payload) // resent: the first copy stands
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

// TestTokenStringOneAlloc: a stats snapshot renders every subscriber's
// token, so String is held to the string's own allocation — and to the
// lower-case hex form logs and clients already match on.
func TestTokenStringOneAlloc(t *testing.T) {
	tok := Token{0x00, 0x9f, 0xa0, 0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if got, want := tok.String(), "009fa0ff0102030405060708090a0b0c"; got != want {
		t.Fatalf("Token.String() = %q, want %q", got, want)
	}
	var s string
	if allocs := testing.AllocsPerRun(100, func() { s = tok.String() }); allocs > 1 {
		t.Errorf("Token.String allocates %.0f times, want 1", allocs)
	}
	_ = s
}
