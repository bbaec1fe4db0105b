package hub

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dmpstream/internal/core"
)

// discardBuffers is a sinkConn that takes vectored writes natively, as a
// *net.TCPConn's writev or the benchmark's in-process pipes do, and
// discards them.
type discardBuffers struct{ sinkConn }

func (discardBuffers) WriteBuffers(bufs net.Buffers) (int64, error) {
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	return n, nil
}

// BenchmarkDeliverBatch times one worker delivery step, done by hand the
// way shard.work does it: stepLocked (lease a workspace from the shard and
// pin the subscriber's ready frames), writeBatch (header patch and one
// vectored write into a discarding conn), releaseBatch (unpin) and
// returnLocked (hand the lease back). Each op rewinds the subscriber's
// cursor by the sub-benchmark's frame count, so frames=1 is a write at
// pace and frames=32 a catch-up that fills a workspace of writeBatchFrames.
// One step runs before the timer, so allocs/op reads the steady state: 0.
func BenchmarkDeliverBatch(b *testing.B) {
	const payload, lag = 1000, 64
	for _, frames := range []int{1, writeBatchFrames} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			h, err := New(Config{
				Stream:         core.Config{Mu: 250, PayloadSize: payload},
				ExternalSource: true,
				LagWindow:      lag,
				Shards:         1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer h.Close()
			buf := make([]byte, payload)
			for seq := int64(0); seq < lag; seq++ {
				h.PublishAt(seq, seq, buf)
			}
			sd := h.shards[0]
			sub := &subscriber{token: core.Token{1}, shard: sd, window: lag}
			addSub(sd, sub)
			p := &path{sub: sub, conn: discardBuffers{}, started: true}
			head := h.ring.headSeq()
			step := func() {
				sd.mu.Lock()
				sd.advanceLocked(sub, head-int64(frames))
				st, bt := sd.stepLocked(p)
				sd.mu.Unlock()
				if st != stepWrite {
					b.Fatalf("step %d, want a write", st)
				}
				if bt.n != frames {
					b.Fatalf("leased %d frames, want %d", bt.n, frames)
				}
				if err := h.writeBatch(p.conn, sub, bt); err != nil {
					b.Fatal(err)
				}
				h.releaseBatch(bt)
				sd.mu.Lock()
				sd.returnLocked(bt)
				sd.mu.Unlock()
			}
			step()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/frame")
		})
	}
}

// fanoutSink counts the vectored writes of every path of a tick and
// signals once the count reaches want.
type fanoutSink struct {
	writes atomic.Int64
	want   atomic.Int64
	done   chan struct{}
}

// fanoutConn is a discardBuffers whose writes count towards a fanoutSink.
type fanoutConn struct {
	sinkConn
	s *fanoutSink
}

func (c fanoutConn) WriteBuffers(bufs net.Buffers) (int64, error) {
	n, _ := discardBuffers{}.WriteBuffers(bufs)
	if c.s.writes.Add(1) == c.s.want.Load() {
		c.s.done <- struct{}{}
	}
	return n, nil
}

// BenchmarkTickFanout times the wake → worker → write stage with the real
// shard workers: each op publishes one tick to N parked paths and waits
// until every path has written it, then until the workers have parked
// every path again, so the next op starts at pace. tick-ns is publish to
// the tick's last write; starts/tick is the shard workers started per
// tick, which a tick whose writes never block should not need. The warm-up
// wraps the ring once, so allocs/op reads the steady state.
func BenchmarkTickFanout(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("paths=%d", n), func(b *testing.B) {
			cfg := Config{Stream: core.Config{Mu: 250, PayloadSize: 1200}, LagWindow: 64}
			h := newExternalHub(b, cfg)
			defer h.Close()
			sink := &fanoutSink{done: make(chan struct{}, 1)}
			var tok core.Token
			for i := 0; i < n; i++ {
				binary.BigEndian.PutUint64(tok[:8], uint64(i)+1)
				if err := h.AttachJoined(fanoutConn{s: sink}, core.Join{StreamID: h.cfg.StreamID, Token: tok}); err != nil {
					b.Fatal(err)
				}
			}
			waitParked(b, h, n)
			// quiet: no worker out with a path and none queued — every path
			// is parked. It allocates nothing, unlike waitParked.
			quiet := func() bool {
				for _, sd := range h.shards {
					sd.mu.Lock()
					q := sd.busy == 0 && !sd.queuedLocked()
					sd.mu.Unlock()
					if !q {
						return false
					}
				}
				return true
			}
			payload := make([]byte, cfg.Stream.PayloadSize)
			var seq int64
			tick := func() time.Duration {
				sink.want.Add(int64(n))
				t0 := time.Now()
				if !h.PublishAt(seq, seq, payload) {
					b.Fatalf("PublishAt(%d) refused", seq)
				}
				seq++
				<-sink.done
				took := time.Since(t0)
				for !quiet() {
					runtime.Gosched()
				}
				return took
			}
			// The ring wraps once, so the payload pool is full, and the
			// worker stock settles.
			for i := int64(0); i < h.ring.size()+16; i++ {
				tick()
			}
			starts := h.Stats().WorkerStarts
			var in time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in += tick()
			}
			b.StopTimer()
			b.ReportMetric(float64(in.Nanoseconds())/float64(b.N), "tick-ns")
			b.ReportMetric(float64(h.Stats().WorkerStarts-starts)/float64(b.N), "starts/tick")
		})
	}
}
