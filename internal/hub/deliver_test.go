package hub

import (
	"fmt"
	"net"
	"testing"

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
