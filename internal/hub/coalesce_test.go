package hub

import (
	"sync"
	"testing"
	"time"
)

// TestTickCoalescesWakeups pins the wakeup-coalescing contract: however
// many packets one generator tick publishes (a burst after scheduling
// debt), each shard is visited exactly once, a parked path is readied
// once, and it drains the whole burst as one pinned batch in one vectored
// write. Without coalescing, a k-packet tick costs k passes over the
// shard and up to k writes per subscriber; with it, wakes advances by one
// per tick no matter what k is.
func TestTickCoalescesWakeups(t *testing.T) {
	h := ownershipHub(t, 1, 8, 16)
	// The quiesced generator published its single packet and sealed the
	// stream; lift the generation cap and the seal so the tick under test
	// replays a backlog by hand against a parked (not drained) path.
	h.cfg.Stream.Count = 0
	unseal(h)
	sd := h.shards[0]

	conn := newLeaseConn()
	attach(t, h, conn) // joins on the newest packet: cur == head−1 == 0, sent at once
	waitFor(t, "the path to park", func() bool { return conn.frames.Load() == 1 && placed(t, sd).parked == 1 })
	sd.mu.Lock()
	wakes0 := sd.wakes
	sd.mu.Unlock()
	writes0 := conn.writes.Load()

	// One tick with ~8 packets of scheduling debt: base is 8ms in the past
	// at a 1ms period, so everything due publishes in this single call.
	k := h.publishTick(1, time.Now().Add(-8*time.Millisecond), time.Millisecond)
	if k < 2 {
		t.Fatalf("backlogged tick published %d packets, want a burst > 1", k)
	}
	waitFor(t, "the burst to be delivered", func() bool { return conn.frames.Load() == 1+k })
	if w := conn.writes.Load() - writes0; w != 1 {
		t.Fatalf("the %d-packet burst took %d vectored writes, want one batch", k, w)
	}
	sd.mu.Lock()
	wakes := sd.wakes - wakes0
	sd.mu.Unlock()
	if wakes != 1 {
		t.Fatalf("%d-packet tick visited the shard %d times, want exactly 1", k, wakes)
	}
	waitFor(t, "the path to park again", func() bool { return placed(t, sd).parked == 1 })
	if conn.torn.Load() != 0 {
		t.Fatalf("%d torn payloads", conn.torn.Load())
	}
	if ps := h.PoolCheck(); ps.DoublePuts != 0 || ps.PoisonTrips != 0 || ps.Aliases != 0 {
		t.Fatalf("pool integrity violated: %+v", ps)
	}
}

// TestPoolChurnRace churns the pool's full lifecycle — publish recycling
// lapped slots, concurrent pinners borrowing and releasing — under the
// race detector (no !race build tag on this file on purpose). The poison
// mode turns any use-after-put into a counted trip, and the refcount
// discipline must keep DoublePuts at zero through arbitrary interleaving.
func TestPoolChurnRace(t *testing.T) {
	const (
		ringSize  = 8
		publishes = 3000
		pinners   = 4
	)
	pool := newBufPool(64, true)
	r := newRing(ringSize, ringSize, pool, func(pkt uint32, buf []byte) {
		for i := range buf {
			buf[i] = byte(pkt)
		}
	})
	r.publish(0, 0) // seed so pinners always have a live seq

	done := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < pinners; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				seq := r.headSeq() - 1
				pb, _, ok := r.pin(seq)
				if !ok {
					continue
				}
				// Read through the borrow; the poison check on the pool's
				// next get would trip if this raced a recycle.
				_ = pb.data[0]
				pool.unref(pb)
			}
		}()
	}
	for i := 1; i < publishes; i++ {
		r.publish(0, 0)
	}
	close(done)
	wg.Wait()

	ps := pool.stats()
	if ps.DoublePuts != 0 || ps.PoisonTrips != 0 || ps.Aliases != 0 {
		t.Fatalf("pool integrity violated under churn: %+v", ps)
	}
	if live := int64(ps.Free) + r.size(); ps.News != live {
		t.Fatalf("pool leak under churn: %d allocated, %d accounted for (%+v)", ps.News, live, ps)
	}
}
