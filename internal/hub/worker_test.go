package hub

import (
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"dmpstream/internal/wire"
)

// Path and worker lifecycle: a path is an entry that is parked, queued on
// its shard's ready list, or held by one worker, and the workers are a
// stock that follows the writes in flight. These tests walk the
// transitions on every exit route and pin the stock's size under blocked
// writers; lease_test.go's scenarios check the same routes from the
// workspace side, and checkQuiesced there ends with checkWorkersGone.

// workerCount returns the shard's worker goroutines and how many of them
// are out with a path.
func workerCount(sd *shard) (workers, busy int) {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	return sd.workers, sd.busy
}

// checkWorkersGone waits for the shard's workers to notice that its last
// path has retired, then checks nothing is left behind: no path counted
// live, none queued, no worker alive, busy or marked idle, and no stall
// countdown armed.
func checkWorkersGone(t *testing.T, sd *shard) {
	t.Helper()
	waitFor(t, "the shard's workers to exit", func() bool {
		workers, _ := workerCount(sd)
		return workers == 0
	})
	sd.mu.Lock()
	defer sd.mu.Unlock()
	if sd.live != 0 || sd.queuedLocked() || !sd.parked.empty() || !sd.held.empty() || sd.busy != 0 || sd.idle || sd.stall.Armed() {
		t.Fatalf("shard not quiesced: live %d, queued %v, parked %v, held %v, busy %d, idle %v, stall countdown armed %v",
			sd.live, sd.queuedLocked(), !sd.parked.empty(), !sd.held.empty(), sd.busy, sd.idle, sd.stall.Armed())
	}
	for _, sub := range sd.subs {
		if len(sub.links) != 0 {
			t.Fatalf("subscriber %s still lists %d paths with no path live", sub.token, len(sub.links))
		}
	}
}

// TestPathParkedQueuedHeld walks one path through its three places: it is
// queued by the attach, parks once its stream header is out, is held for
// as long as a write blocks, parks again, and is queued one last time by
// Stop for its end marker.
func TestPathParkedQueuedHeld(t *testing.T) {
	h := leaseHub(t, Config{})
	sd := h.shards[0]
	conn := newLeaseConn()
	conn.gate = make(chan struct{})
	attach(t, h, conn)
	waitFor(t, "the attached path to park", func() bool { return placed(t, sd) == placement{parked: 1} })
	if workers, busy := workerCount(sd); workers != 1 || busy != 0 {
		t.Fatalf("%d workers (%d busy) with one parked path, want the one idle worker", workers, busy)
	}

	publish(t, h, 0, 4)
	<-conn.entered
	waitFor(t, "the blocked write to hold the path", func() bool { return placed(t, sd) == placement{held: 1} })
	if _, busy := workerCount(sd); busy != 1 {
		t.Fatalf("%d busy workers with one write in flight", busy)
	}
	if n := stock(t, sd); n != 0 {
		t.Fatalf("stock %d with the only batch out on the blocked write", n)
	}

	close(conn.gate)
	waitFor(t, "the path to park again", func() bool { return placed(t, sd) == placement{parked: 1} && stock(t, sd) == 1 })
	if got := conn.frames.Load(); got != 4 {
		t.Fatalf("delivered %d frames, want 4", got)
	}

	h.Stop()
	h.Wait()
	if !conn.ended.Load() {
		t.Fatal("no end marker after Stop")
	}
	checkQuiesced(t, h, 1)
}

// TestPathExitRoutes retires paths by the routes lease_test.go does not
// already walk (graceful drain, Close with parked and blocked paths, evict
// and write error mid-write are there): eviction of a parked path — no
// goroutine of its own to notice anything — a failed header write, and a
// re-attach within the grace.
func TestPathExitRoutes(t *testing.T) {
	t.Run("evict", func(t *testing.T) {
		h := leaseHub(t, Config{})
		sd := h.shards[0]
		conn, keep := newLeaseConn(), newLeaseConn()
		tok := attach(t, h, conn)
		attach(t, h, keep)
		publish(t, h, 0, 3)
		waitFor(t, "both paths to park", func() bool { return placed(t, sd) == placement{parked: 2} })
		sd.mu.Lock()
		sd.evictLocked(sd.subs[tok])
		sd.mu.Unlock()
		waitFor(t, "the evicted path to retire", func() bool { return h.ConnCount() == 1 })
		select {
		case <-conn.closed:
		default:
			t.Fatal("evicted path's connection left open")
		}
		if conn.ended.Load() {
			t.Fatal("evicted path was sent an end marker")
		}
		if st := h.Stats(); st.Evicted != 1 || st.PathErrors != 0 {
			t.Fatalf("evicted %d, path errors %d; want 1 and 0", st.Evicted, st.PathErrors)
		}
		publish(t, h, 3, 6)
		waitFor(t, "the survivor's delivery", func() bool { return keep.frames.Load() == 6 })
		h.Stop()
		h.Wait()
		checkQuiesced(t, h, 2)
	})

	t.Run("header write fails", func(t *testing.T) {
		h := leaseHub(t, Config{})
		sd := h.shards[0]
		conn := newLeaseConn()
		conn.Close() // the peer is gone before the stream header goes out
		tok := attach(t, h, conn)
		waitFor(t, "the path to retire", func() bool { return h.ConnCount() == 0 })
		st := h.Stats()
		if st.PathErrors != 1 || st.Subscribers != 1 || st.Subs[0].Deaths != 1 {
			t.Fatalf("path errors %d, subscribers %d (%+v); want one abnormal death held for re-attach", st.PathErrors, st.Subscribers, st.Subs)
		}
		if n := stock(t, sd); n != 0 {
			t.Fatalf("stock %d: a path that never got past its header leased a batch", n)
		}
		// The token survived: a redial resumes the subscription.
		again := newLeaseConn()
		if err := h.AttachJoined(again, wire.Join{StreamID: h.cfg.StreamID, Token: tok}); err != nil {
			t.Fatal(err)
		}
		publish(t, h, 0, 2)
		waitFor(t, "delivery after the redial", func() bool { return again.frames.Load() == 2 })
		h.Stop()
		h.Wait()
		if !again.ended.Load() {
			t.Fatal("no end marker on the redialed path")
		}
		checkQuiesced(t, h, 1)
	})

	t.Run("re-attach within grace", func(t *testing.T) {
		h := leaseHub(t, Config{})
		first := newLeaseConn()
		tok := attach(t, h, first)
		publish(t, h, 0, 4)
		waitFor(t, "delivery", func() bool { return first.frames.Load() == 4 })
		first.Close() // the parked path only finds out on its next write
		publish(t, h, 4, 5)
		waitFor(t, "the dead path to retire", func() bool { return h.ConnCount() == 0 })
		if h.SubscriberCount() != 1 {
			t.Fatal("subscription did not outlive its last path")
		}
		second := newLeaseConn()
		if err := h.AttachJoined(second, wire.Join{StreamID: h.cfg.StreamID, Token: tok}); err != nil {
			t.Fatal(err)
		}
		// Everything the dead path wrote last, plus the packet in its hand,
		// is replayed on the new one.
		waitFor(t, "the replay", func() bool { return second.frames.Load() == 5 })
		if st := h.Stats(); st.Reattached != 1 || st.Resent != 5 || st.Subs[0].Pending != 0 {
			t.Fatalf("reattached %d, resent %d, pending %d; want 1, 5, 0", st.Reattached, st.Resent, st.Subs[0].Pending)
		}
		h.Stop()
		h.Wait()
		if !second.ended.Load() || second.torn.Load() != 0 {
			t.Fatalf("re-attached path: end marker %v, torn %d", second.ended.Load(), second.torn.Load())
		}
		checkQuiesced(t, h, 2)
	})
}

// TestTwoPathsTakeTurns runs a two-path subscriber at pace — one packet
// per wake, both paths parked in between — and checks the paths share the
// stream instead of path 0 taking every frame, from the very first frames:
// a path that wrote before its sibling attached gives the next packet to
// the sibling. Then a path whose peer has gone away, which only a failed
// write can reveal, gets its turn at a frame and is retired within a few
// ticks.
func TestTwoPathsTakeTurns(t *testing.T) {
	h := leaseHub(t, Config{})
	sd := h.shards[0]
	a, b := newLeaseConn(), newLeaseConn()
	tok := newToken(t)
	parkedAll := func() bool { return placed(t, sd).parked == h.ConnCount() }
	served := func(n int64) func() bool {
		return func() bool { return a.frames.Load()+b.frames.Load() == n && parkedAll() }
	}
	for i, c := range []net.Conn{a, b} {
		if err := h.AttachJoined(c, wire.Join{StreamID: h.cfg.StreamID, Token: tok}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the attached path to park", func() bool { return h.ConnCount() == i+1 && parkedAll() })
		if i == 0 {
			publish(t, h, 0, 1) // a alone: it writes packet 0
			waitFor(t, "packet 0 to be served", served(1))
		}
	}
	publish(t, h, 1, 2)
	waitFor(t, "packet 1 to be served", served(2))
	if b.frames.Load() != 1 {
		t.Fatalf("the path attached second carried %d of packets 0..1, want packet 1: the first path's solo frame did not count as its turn", b.frames.Load())
	}
	const frames = 200
	seq := int64(2)
	for ; seq < frames; seq++ {
		publish(t, h, seq, seq+1)
		waitFor(t, "the tick to be served", func() bool {
			return a.frames.Load()+b.frames.Load() == seq+1 && parkedAll()
		})
	}
	for i, c := range []*leaseConn{a, b} {
		if share := float64(c.frames.Load()) / frames; share < 0.3 || share > 0.7 {
			t.Fatalf("path %d carried %.0f %% of the frames at pace, want 30–70 %%", i, 100*share)
		}
	}

	b.Close() // peer gone; the hub's side is parked and cannot know
	ticks := 0
	for h.ConnCount() == 2 {
		if ticks++; ticks > 4 {
			t.Fatalf("peer-closed idle path still attached after %d ticks", ticks-1)
		}
		publish(t, h, seq, seq+1)
		seq++
		waitFor(t, "the tick to be served", parkedAll)
	}
	// Nothing was lost to the dead path: what it held is resent to a.
	waitFor(t, "the survivor to have every frame", func() bool { return a.frames.Load()+b.frames.Load() >= seq })
	h.Stop()
	h.Wait()
	if a.torn.Load()+b.torn.Load() != 0 {
		t.Fatal("torn payloads")
	}
	checkQuiesced(t, h, 2)
}

// TestDrainDeathResendsOnSibling: a path whose write fails after Stop
// leaves the batch it had in hand to its sibling, which is still draining,
// so the sibling delivers every sequence before its end marker.
func TestDrainDeathResendsOnSibling(t *testing.T) {
	h := leaseHub(t, Config{})
	sd := h.shards[0]
	a, b := newLeaseConn(), newLeaseConn()
	a.gate, b.gate = make(chan struct{}), make(chan struct{})
	b.failAt = 1
	tok := newToken(t)
	for i, c := range []net.Conn{a, b} {
		if err := h.AttachJoined(c, wire.Join{StreamID: h.cfg.StreamID, Token: tok}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the attached path to park", func() bool { return h.ConnCount() == i+1 && placed(t, sd).parked == i+1 })
	}
	entered := func(c *leaseConn) {
		t.Helper()
		select {
		case <-c.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("a path never reached its write")
		}
	}
	// a takes packet 0 and blocks, b takes packet 1 and blocks, and 2..3 are
	// still unsent when the stream stops.
	publish(t, h, 0, 1)
	entered(a)
	publish(t, h, 1, 2)
	entered(b)
	publish(t, h, 2, 4)
	h.Stop()
	close(b.gate) // b's write fails: packet 1 never left
	waitFor(t, "the failed path to retire", func() bool { return h.ConnCount() == 1 })
	close(a.gate)
	h.Wait()
	if !a.ended.Load() || a.frames.Load() != 4 || a.torn.Load() != 0 {
		t.Fatalf("the draining sibling delivered %d of 4 frames (end marker %v, torn %d): the failed path's batch was lost",
			a.frames.Load(), a.ended.Load(), a.torn.Load())
	}
	if st := h.Stats(); st.PathErrors != 1 || st.Resent != 1 {
		t.Fatalf("path errors %d, resent %d; want the one injected failure and its one packet", st.PathErrors, st.Resent)
	}
	checkQuiesced(t, h, 2)
}

// TestEndMarkerFailureResendsOnSibling: a path whose end-marker write fails
// may have lost its last batches with it, taken by a dead buffer and never
// delivered, so its resend record goes to a sibling that is still writing,
// which serves it before its own marker. Path a's last batch is swallowed
// and its marker write fails while b is held in its last data write.
func TestEndMarkerFailureResendsOnSibling(t *testing.T) {
	h := leaseHub(t, Config{})
	sd := h.shards[0]
	a, b := newLeaseConn(), newLeaseConn()
	a.gate, b.gate = make(chan struct{}), make(chan struct{})
	a.lost = true
	tok := newToken(t)
	for i, c := range []net.Conn{a, b} {
		if err := h.AttachJoined(c, wire.Join{StreamID: h.cfg.StreamID, Token: tok}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the attached path to park", func() bool { return h.ConnCount() == i+1 && placed(t, sd).parked == i+1 })
	}
	entered := func(c *leaseConn) {
		t.Helper()
		select {
		case <-c.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("a path never reached its write")
		}
	}
	// a takes packet 0 and b packet 1; both block, and the stream stops.
	publish(t, h, 0, 1)
	entered(a)
	publish(t, h, 1, 2)
	entered(b)
	h.Stop()
	close(a.gate) // packet 0 is swallowed, then a's end marker fails
	waitFor(t, "the failed path to retire", func() bool { return h.ConnCount() == 1 })
	close(b.gate)
	h.Wait()
	if !b.ended.Load() || b.frames.Load() != 2 || b.torn.Load() != 0 {
		t.Fatalf("the sibling delivered %d of 2 frames (end marker %v, torn %d): packets the failed path wrote last are missing",
			b.frames.Load(), b.ended.Load(), b.torn.Load())
	}
	if st := h.Stats(); st.PathErrors != 1 || st.Resent != 1 {
		t.Fatalf("path errors %d, resent %d; want the failed marker and its one packet", st.PathErrors, st.Resent)
	}
	checkQuiesced(t, h, 2)
}

// TestBlockedWritersHoldOneWorkerEach is the worker stock's sizing pin: N
// writers blocked in Write hold N workers, the shard keeps a spare or two
// so its other subscribers are served at once, and within a second of the
// writers unblocking the stock is back to a handful — the worker analogue
// of TestLeaseStockDecays.
func TestBlockedWritersHoldOneWorkerEach(t *testing.T) {
	const blocked, healthy, spare = 24, 8, 3
	h := leaseHub(t, Config{LagWindow: 256})
	sd := h.shards[0]
	g0 := runtime.NumGoroutine()
	gate := make(chan struct{})
	slow := make([]*leaseConn, blocked)
	for i := range slow {
		slow[i] = newLeaseConn()
		slow[i].gate = gate
		attach(t, h, slow[i])
	}
	fast := make([]*leaseConn, healthy)
	for i := range fast {
		fast[i] = newLeaseConn()
		attach(t, h, fast[i])
	}
	publish(t, h, 0, 1)
	for _, c := range slow {
		select {
		case <-c.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("a slow path never reached its write")
		}
	}

	// With every slow path stuck mid-write, the healthy ones keep pace —
	// a packet typically reaches all of them well inside a tick of a
	// 50 packets/s stream (the median, so that a descheduled test process
	// does not fail it) — and the stock never grows past the blocked
	// writes plus a small spare.
	var took []time.Duration
	for seq := int64(1); seq <= 100; seq++ {
		start := time.Now()
		publish(t, h, seq, seq+1)
		for _, c := range fast {
			c := c
			waitFor(t, "a healthy path's delivery", func() bool { return c.frames.Load() == seq+1 })
		}
		took = append(took, time.Since(start))
		if workers, _ := workerCount(sd); workers > blocked+spare {
			t.Fatalf("%d workers with %d writes blocked, want at most %d spare", workers, blocked, spare)
		}
	}
	slices.Sort(took)
	if median := took[len(took)/2]; median > 20*time.Millisecond {
		t.Fatalf("healthy paths waited %v (median; worst %v) for a packet behind %d blocked writers", median, took[len(took)-1], blocked)
	}
	waitFor(t, "the healthy paths to park", func() bool { return placed(t, sd) == placement{parked: healthy, held: blocked} })
	if workers, busy := workerCount(sd); busy != blocked || workers < blocked || workers > blocked+spare {
		t.Fatalf("%d workers, %d busy; want %d busy and at most %d spare", workers, busy, blocked, spare)
	}
	if g := runtime.NumGoroutine() - g0; g > blocked+spare {
		t.Fatalf("%d goroutines for %d paths with %d writes blocked", g, blocked+healthy, blocked)
	}

	close(gate)
	unblocked := time.Now()
	waitFor(t, "the stock to fall back", func() bool {
		workers, _ := workerCount(sd)
		return workers <= spare
	})
	if d := time.Since(unblocked); d > time.Second {
		t.Fatalf("worker stock took %v to fall back after the writers unblocked", d)
	}
	for _, c := range slow {
		c := c
		waitFor(t, "the unblocked paths to catch up", func() bool { return c.frames.Load() == 101 })
	}
	h.Stop()
	h.Wait()
	checkQuiesced(t, h, blocked+healthy)
}

// TestPaceStartsNoWorkers: a shard whose writes never block keeps the
// workers it has. At pace the idle worker takes the tick's paths one after
// another; as it leaves on each write the rest are still queued with every
// worker out, and that arms the stall countdown — it does not start a
// worker, because the writes come back in microseconds. The hand clock
// passes stallGrace once per tick, after half the paths have taken their
// packet, so a write has come back since the countdown was armed. The
// first publishes may grow the stock while it settles; after them it stays
// put.
func TestPaceStartsNoWorkers(t *testing.T) {
	const paths, publishes, settle, slack = 64, 300, 20, 3
	h := leaseHub(t, Config{})
	hand := handHub(h)
	sd := h.shards[0]
	conns := make([]*leaseConn, paths)
	for i := range conns {
		conns[i] = newLeaseConn()
		attach(t, h, conns[i])
	}
	atPace := func() bool { return placed(t, sd) == placement{parked: paths} }
	waitFor(t, "the attached paths to park", atPace)
	var base int64
	for seq := int64(0); seq < publishes; seq++ {
		if seq == settle {
			base = h.Stats().WorkerStarts
		}
		publish(t, h, seq, seq+1)
		waitFor(t, "half the tick's deliveries", func() bool {
			n := 0
			for _, c := range conns {
				if c.frames.Load() == seq+1 {
					n++
				}
			}
			return n >= paths/2
		})
		hand.advance(stallGrace)
		for _, c := range conns {
			c := c
			waitFor(t, "a path's delivery", func() bool { return c.frames.Load() == seq+1 })
		}
		waitFor(t, "the tick's paths to park", atPace)
	}
	if grew := h.Stats().WorkerStarts - base; grew > slack {
		t.Fatalf("%d workers started over %d publishes to %d paths whose writes never block, want at most %d",
			grew, publishes-settle, paths, slack)
	}
	h.Stop()
	h.Wait()
	checkQuiesced(t, h, paths)
}

// TestStalledWriteStartsOneWorker: a write that blocks mid-stream adds one
// worker, and only one, for the paths queued behind it — once the stall
// fires with no write on the shard come back since it was armed. The hand
// clock passes stallGrace again and again, as the wall clock would, until
// a worker is added; from then on the healthy paths share that worker.
func TestStalledWriteStartsOneWorker(t *testing.T) {
	const healthy, publishes = 8, 50
	h := leaseHub(t, Config{LagWindow: 256})
	hand := handHub(h)
	sd := h.shards[0]
	slow := newLeaseConn()
	slow.gate = make(chan struct{})
	attach(t, h, slow)
	fast := make([]*leaseConn, healthy)
	for i := range fast {
		fast[i] = newLeaseConn()
		attach(t, h, fast[i])
	}
	waitFor(t, "the attached paths to park", func() bool { return placed(t, sd) == placement{parked: healthy + 1} })
	base := h.Stats().WorkerStarts
	delivered := func(seq int64) bool {
		for _, c := range fast {
			if c.frames.Load() != seq+1 {
				return false
			}
		}
		return true
	}

	for seq := int64(0); seq < publishes; seq++ {
		publish(t, h, seq, seq+1)
		if seq == 0 {
			select {
			case <-slow.entered:
			case <-time.After(5 * time.Second):
				t.Fatal("the slow path never reached its write")
			}
			// Unless the slow path was the tick's last, the healthy ones are
			// queued behind its write.
			waitFor(t, "a worker for the queued paths", func() bool {
				if workers, _ := workerCount(sd); workers > 1 || delivered(seq) {
					return true
				}
				hand.advance(stallGrace)
				return false
			})
		}
		waitFor(t, "the healthy paths' deliveries", func() bool { return delivered(seq) })
		waitFor(t, "the healthy paths to park", func() bool { return placed(t, sd) == placement{parked: healthy, held: 1} })
	}
	if started := h.Stats().WorkerStarts - base; started != 1 {
		t.Fatalf("%d workers started for one blocked write over %d publishes, want exactly 1", started, publishes)
	}
	close(slow.gate)
	waitFor(t, "the slow path to catch up", func() bool { return slow.frames.Load() == publishes })
	h.Stop()
	h.Wait()
	checkQuiesced(t, h, healthy+1)
}

// TestStatsWorkerStock: Stats reports the shard workers alive, how many
// are out with a path and how many were ever started — at least the one
// serving a path at pace, and none once the hub has wound down.
func TestStatsWorkerStock(t *testing.T) {
	h := leaseHub(t, Config{})
	conn := newLeaseConn()
	attach(t, h, conn)
	publish(t, h, 0, 4)
	waitFor(t, "delivery", func() bool { return conn.frames.Load() == 4 })
	st := h.Stats()
	if st.Workers < 1 || st.WorkersBusy > st.Workers || st.WorkerStarts < int64(st.Workers) {
		t.Fatalf("workers %d (busy %d), started %d with one path at pace; want at least one alive, busy ≤ alive ≤ started",
			st.Workers, st.WorkersBusy, st.WorkerStarts)
	}
	h.Stop()
	h.Wait()
	if st := h.Stats(); st.Workers != 0 || st.WorkersBusy != 0 || st.WorkerStarts < 1 {
		t.Fatalf("workers %d (busy %d), started %d after Wait; want none alive and the ones started still counted",
			st.Workers, st.WorkersBusy, st.WorkerStarts)
	}
}
