package hub

import (
	"sync"
	"testing"
	"time"

	"dmpstream/internal/core"
)

// TestTickCoalescesWakeups pins the wakeup-coalescing contract: however
// many packets one generator tick publishes (a burst after scheduling
// debt), each shard's subscribers are woken exactly once, and a waiting
// zero-copy sender drains the whole burst as one pinned batch. Without
// coalescing, a k-packet tick costs k broadcasts and up to k context
// switches per subscriber; with it, wakes advances by one per tick no
// matter what k is.
func TestTickCoalescesWakeups(t *testing.T) {
	h := ownershipHub(t, 1, 8, 16)
	// The quiesced generator published its single packet and exited; lift
	// the generation cap and the done flag so the tick under test replays
	// a backlog by hand against a parked (not drained) sender.
	h.cfg.Stream.Count = 0
	h.genDone.Store(false)
	defer h.genDone.Store(true)
	sd := h.shards[0]

	tok, err := core.NewToken()
	if err != nil {
		t.Fatal(err)
	}
	sub := &subscriber{token: tok, shard: sd, first: 0, cur: 1, window: 16}
	sd.mu.Lock()
	sd.subs[tok] = sub
	wakes0 := sd.wakes
	sd.mu.Unlock()
	h.subCount.Add(1)

	// Park a zero-copy sender on the shard's cond (cur == head == 1).
	got := make(chan *batch, 1)
	go func() { got <- sd.popBatch(sub, nil) }()
	time.Sleep(20 * time.Millisecond)

	// One tick with ~8 packets of scheduling debt: base is 8ms in the past
	// at a 1ms period, so everything due publishes in this single call.
	k := h.publishTick(1, time.Now().Add(-8*time.Millisecond), time.Millisecond)
	if k < 2 {
		t.Fatalf("backlogged tick published %d packets, want a burst > 1", k)
	}

	b := <-got
	if b == nil {
		t.Fatal("popBatch returned no batch")
	}
	if int64(b.n) != k {
		t.Fatalf("one wakeup drained %d frames, want the full %d-packet burst", b.n, k)
	}
	sd.mu.Lock()
	wakes := sd.wakes - wakes0
	sd.mu.Unlock()
	if wakes != 1 {
		t.Fatalf("%d-packet tick broadcast %d wakeups per shard, want exactly 1", k, wakes)
	}
	h.releaseBatch(b)
	if ps := h.PoolCheck(); ps.DoublePuts != 0 || ps.PoisonTrips != 0 {
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
	r := newRing(ringSize, pool)
	fill := func(pkt uint32, buf []byte) {
		for i := range buf {
			buf[i] = byte(pkt)
		}
	}
	r.publish(fill) // seed so pinners always have a live seq

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
				if pb.refs.Add(-1) == 0 {
					pool.put(pb)
				}
			}
		}()
	}
	for i := 1; i < publishes; i++ {
		r.publish(fill)
	}
	close(done)
	wg.Wait()

	ps := pool.stats()
	if ps.DoublePuts != 0 || ps.PoisonTrips != 0 {
		t.Fatalf("pool integrity violated under churn: %+v", ps)
	}
	if live := int64(ps.Free) + r.size(); ps.News != live {
		t.Fatalf("pool leak under churn: %d allocated, %d accounted for (%+v)", ps.News, live, ps)
	}
}
