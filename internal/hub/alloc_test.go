// Alloc-budget guard for the hub frame hot path: publish → wake →
// popBatchLocked → writeBatch must not allocate in steady state, or fan-out
// throughput decays into GC pressure exactly when the subscriber count
// makes it matter. The static side of the same contract is enforced by
// dmplint's hotalloc analyzer over the `// hotpath` closure; this is the
// runtime check that catches what escape analysis does behind the
// analyzer's back.
//
// AllocsPerRun is unreliable under the race detector (instrumentation
// allocates), and the lockrank build's check allocates on every Lock, so
// the guard is built out of race and lockrank runs.
//
//go:build !race && !lockrank

package hub

import (
	"encoding/binary"
	"flag"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"dmpstream/internal/core"
)

// quietHub builds a hub whose generator publishes its single scheduled
// packet and exits, leaving the ring free for the test to drive by hand.
func quietHub(t *testing.T, lagWindow int) *Hub {
	t.Helper()
	h, err := New(Config{
		Stream: core.Config{
			Mu: 500, PayloadSize: 64, Count: 1,
			Fill: func(pkt uint32, buf []byte) { buf[0] = byte(pkt) },
		},
		LagWindow: lagWindow,
		Shards:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	for !h.genDone.Load() {
		time.Sleep(time.Millisecond)
	}
	return h
}

// TestZeroCopyHotPathAllocFree drives the zero-copy steady state by hand,
// as one worker would — ring.publish (pool acquire + fill), shard.wake,
// the lease step (hand the previous lease back, popBatchLocked: lease
// again, pin), Hub.writeBatch (header patch + vectored write) and
// releaseBatch (pool return) — and requires
// zero allocations per frame once the pool, its freelist and the shard's
// batch free list have warmed through one ring lap. The cycle crosses
// the shard's free-list trim (every freeTrimWakes wakes) on the way.
//
// The second case alternates, on one shard, a path at pace (one frame a
// write) with one that catches up 32 frames at a time, handing each lease
// back before the next wake as a worker does: the workspace the catch-up
// grew serves both, and no trim hands it back to one frame while the
// catch-ups keep coming, so after the first lap nothing allocates.
func TestZeroCopyHotPathAllocFree(t *testing.T) {
	t.Run("one-frame", func(t *testing.T) {
		h := quietHub(t, 8)
		sd := h.shards[0]

		var tok core.Token
		sub := &subscriber{token: tok, shard: sd, window: h.cfg.LagWindow}
		addSub(sd, sub)

		var conn net.Conn = sinkConn{}
		var b *batch
		cycle := func() {
			head := h.ring.publish(h.cfg.Stream.Fill)
			sd.wake(head)
			if b = popBatch(sd, sub, b); b == nil {
				t.Fatal("no batch to lease in steady state")
			}
			if err := h.writeBatch(conn, sub, b); err != nil {
				t.Fatal(err)
			}
			h.releaseBatch(b)
		}
		for i := 0; i < h.cfg.LagWindow+1; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(2*freeTrimWakes, cycle); allocs != 0 {
			t.Errorf("zero-copy hot path allocates %.2f times per frame, want 0", allocs)
		}
	})
	t.Run("one-frame and catch-up", func(t *testing.T) {
		h := quietHub(t, 2*writeBatchFrames)
		sd := h.shards[0]
		pace := &subscriber{token: core.Token{1}, shard: sd, window: h.cfg.LagWindow}
		behind := &subscriber{token: core.Token{2}, shard: sd, window: h.cfg.LagWindow}
		addSub(sd, pace)
		addSub(sd, behind)

		var conn net.Conn = sinkConn{}
		deliver := func(sub *subscriber, frames int) {
			b := popBatch(sd, sub, nil)
			if b == nil {
				t.Fatalf("nothing leased, want %d frames", frames)
			}
			if b.n != frames {
				t.Fatalf("leased %d frames, want %d", b.n, frames)
			}
			if err := h.writeBatch(conn, sub, b); err != nil {
				t.Fatal(err)
			}
			h.releaseBatch(b)
			returnBatch(sd, b)
		}
		// Both start on the generator's one packet.
		deliver(pace, 1)
		deliver(behind, 1)
		lap := func() {
			for i := 0; i < writeBatchFrames; i++ {
				sd.wake(h.ring.publish(h.cfg.Stream.Fill))
				deliver(pace, 1)
			}
			deliver(behind, writeBatchFrames)
		}
		lap()
		// Each lap is 64 frames; 2*freeTrimWakes wakes cross two trims.
		if allocs := testing.AllocsPerRun(2*freeTrimWakes/writeBatchFrames, lap); allocs != 0 {
			t.Errorf("alternating one-frame and %d-frame writes allocate %.2f times per lap of %d frames, want 0",
				writeBatchFrames, allocs, 2*writeBatchFrames)
		}
	})
}

// TestParkedPathFootprint pins what an attached, caught-up path costs:
// its subscriber and its path entry, whose resend record is one run of
// consecutive numbers kept inline — not a resend ring (allocated only once
// a path's writes fragment), not a batch workspace (leased per write from
// the shard), not a frame buffer (allocated at stream end) and not a
// goroutine (a parked path is an entry; the shard's workers follow the
// writes in flight). 2000 parked paths must stay under 448 B of live heap
// plus goroutine stack each, on no more than a worker or two per shard;
// with a goroutine per path the same measurement read 1.3 KB of heap plus
// 2.4–4.1 KB of stack, with absolute 64-bit sequences in a resend ring
// allocated at the stream header 0.85 KB of heap, and with 32-bit ones
// 0.59 KB.
func TestParkedPathFootprint(t *testing.T) {
	const paths, perPathBudget = 2000, 448
	h, err := New(Config{
		Stream:         core.Config{Mu: 250, PayloadSize: 256},
		StreamID:       "live",
		ExternalSource: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	payload := make([]byte, 256)
	// Fill the pool and every ring slot first, so the measured delta is
	// the paths' own.
	var seq int64
	for ; seq < h.ring.size()+1; seq++ {
		h.PublishAt(seq, seq, payload)
	}
	live := func() (heap, stacks uint64) {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, ms.StackInuse
	}
	heap0, stacks0 := live()
	goroutines0 := runtime.NumGoroutine()

	var tok core.Token
	for i := 0; i < paths; i++ {
		binary.BigEndian.PutUint32(tok[:], uint32(i)+1)
		if err := h.AttachJoined(sinkConn{}, core.Join{StreamID: "live", Token: tok}); err != nil {
			t.Fatal(err)
		}
	}
	// Run every path through a few leased writes — the newest packet at its
	// join, then 8 more — and let them park.
	for end := seq + 8; seq < end; seq++ {
		h.PublishAt(seq, seq, payload)
	}
	for deadline := time.Now().Add(5 * time.Second); h.Stats().Sent < 9*paths; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("paths did not drain: sent %d of %d", h.Stats().Sent, 9*paths)
		}
	}
	// A burst can catch several workers mid-write, each holding a lease;
	// that stock is transient. Let the idle trim run as a
	// few seconds of generator wakes would, and measure the steady state.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		idle := 0
		for _, sd := range h.shards {
			sd.mu.Lock()
			sd.trimFreeLocked()
			idle += sd.nfree
			sd.mu.Unlock()
		}
		if idle <= len(h.shards) {
			break
		}
	}
	heap, stacks := live()
	perPath := (int64(heap-heap0) + int64(stacks-stacks0)) / paths
	t.Logf("per parked path: %d B of live heap, %d B of goroutine stack",
		int64(heap-heap0)/paths, int64(stacks-stacks0)/paths)
	if g := runtime.NumGoroutine() - goroutines0; g > 2*len(h.shards) {
		t.Errorf("%d parked paths keep %d goroutines on %d shards, want at most two per shard", paths, g, len(h.shards))
	}
	// Under -memprofile, snapshot the live heap here as well, while the
	// paths are parked (the flag's own profile is written at exit, after
	// Close): the source of EXPERIMENTS.md's per-path footprint table.
	if name := flag.Lookup("test.memprofile").Value.String(); name != "" {
		f, err := os.Create(name + ".parked")
		if err != nil {
			t.Fatal(err)
		}
		if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if perPath > perPathBudget {
		t.Errorf("a parked path holds %d B of heap and stack, budget %d B", perPath, perPathBudget)
	}
}
