// Alloc-budget guard for vectored delivery through a registry: the
// counting wrapper every routed connection gets must forward the hub's
// batch write without allocating, or "0 allocs/frame" holds for a bare
// hub and reads 1.0 behind Route.
//
// AllocsPerRun is unreliable under the race detector (instrumentation
// allocates), so the guard is built out of race runs.
//
//go:build !race

package registry

import (
	"net"
	"testing"
	"time"

	"dmpstream/internal/core"
	"dmpstream/internal/hub"
)

// vecSink is a net.Conn that takes vectored writes natively, like the
// benchmark's sinks and a raw TCP conn: each WriteBuffers reports how many
// frames the batch carried.
type vecSink struct{ frames chan int }

func (s *vecSink) WriteBuffers(bufs net.Buffers) (int64, error) {
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	s.frames <- len(bufs) / 2
	return n, nil
}
func (s *vecSink) Read(p []byte) (int, error)       { return 0, net.ErrClosed }
func (s *vecSink) Write(p []byte) (int, error)      { return len(p), nil }
func (s *vecSink) Close() error                     { return nil }
func (s *vecSink) LocalAddr() net.Addr              { return nil }
func (s *vecSink) RemoteAddr() net.Addr             { return nil }
func (s *vecSink) SetDeadline(time.Time) error      { return nil }
func (s *vecSink) SetReadDeadline(time.Time) error  { return nil }
func (s *vecSink) SetWriteDeadline(time.Time) error { return nil }

// TestRoutedVectoredWriteAllocFree drives Route → hub sender → a
// BuffersWriter conn: one externally published packet per cycle, awaited
// at the sink, must cost zero allocations on either goroutine once the
// ring has lapped.
func TestRoutedVectoredWriteAllocFree(t *testing.T) {
	const payloadSize, lagWindow = 64, 8
	r, err := New(Config{Hub: hub.Config{
		Stream:         core.Config{Mu: 500, PayloadSize: payloadSize},
		LagWindow:      lagWindow,
		Shards:         1,
		ExternalSource: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	h, err := r.Create("live")
	if err != nil {
		t.Fatal(err)
	}
	sink := &vecSink{frames: make(chan int, 1)}
	if err := r.Route(sink, core.Join{StreamID: "live", Token: newToken(t)}); err != nil {
		t.Fatal(err)
	}

	payload := make([]byte, payloadSize)
	var seq int64
	cycle := func() {
		if !h.PublishAt(seq, seq, payload) {
			t.Fatalf("PublishAt(%d) refused", seq)
		}
		seq++
		if n := <-sink.frames; n != 1 {
			t.Fatalf("vectored write carried %d frames, want 1", n)
		}
	}
	for i := 0; i < lagWindow+1; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("routed vectored write allocates %.2f times per frame, want 0", allocs)
	}
}
