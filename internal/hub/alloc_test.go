// Alloc-budget gates for the hub's frame loops: the generator's tick, an
// upstream packet's ingest (PublishAt), every shard's wake with its lag
// policy, the byte-budget governor's accounting, shedding and eviction, and
// the shard worker's lease → pin → vectored write → release must not
// allocate in steady state, or fan-out throughput decays into GC pressure
// exactly when the subscriber count makes it matter. AllocsPerRun counts
// what escape analysis decides, so these gates are exact; each also checks
// that the path it exists for ran, so none can pass vacuously.
//
// AllocsPerRun is unreliable under the race detector (instrumentation
// allocates), and the lockrank build's check allocates on every Lock, so
// the gates are built out of race and lockrank runs.
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

	"dmpstream/internal/clock"
	"dmpstream/internal/wire"
)

// quietHub builds a hub whose generator publishes its single scheduled
// packet and exits, leaving the ring free for the test to drive by hand.
func quietHub(t *testing.T, lagWindow int) *Hub {
	t.Helper()
	h, err := New(Config{
		Stream: wire.Config{
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
	h.Wait() // sealed at Count, and the seal has judged every subscription
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

		var tok wire.Token
		sub := &subscriber{token: tok, shard: sd, window: h.cfg.LagWindow}
		addSub(sd, sub)

		var conn net.Conn = sinkConn{}
		var b *batch
		cycle := func() {
			head := h.ring.publish(0, 0)
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
		pace := &subscriber{token: wire.Token{1}, shard: sd, window: h.cfg.LagWindow}
		behind := &subscriber{token: wire.Token{2}, shard: sd, window: h.cfg.LagWindow}
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
				sd.wake(h.ring.publish(0, 0))
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

// TestHubGenerateAllocFree: the hub's generator running a stream to its
// end — each tick of its schedule a publish, the shard's wake with the lag
// policy applied to a subscriber that never reads, a governor pass, and a
// catch-up burst whenever a sleep overran — allocates nothing once the
// payload pool holds a ring's worth, even with the pool's poison-on-put
// debug mode on. A per-tick allocation would read one for each of the
// run's ticks.
func TestHubGenerateAllocFree(t *testing.T) {
	const packets = 2000
	h := newExternalHub(t, Config{
		Stream:     wire.Config{Mu: 1e6, PayloadSize: 64, Count: packets},
		LagWindow:  64,
		Shards:     1,
		MaxBytes:   1 << 30,
		PoisonPool: true,
	})
	t.Cleanup(h.Close)
	sd := h.shards[0]
	addSub(sd, &subscriber{token: wire.Token{1}, shard: sd, window: h.cfg.LagWindow})
	run := func() {
		generated, dropped := h.generated.Load(), h.totalDropped.Load()
		h.generate()
		if got := h.generated.Load() - generated; got != packets {
			t.Fatalf("generated %d packets, want %d", got, packets)
		}
		if h.totalDropped.Load() == dropped {
			t.Fatal("the lag policy dropped nothing for a subscriber that never reads")
		}
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("generating %d packets allocates %.2f times, want 0", packets, allocs)
	}
}

// hookConn is a sinkConn that runs the hook it points at, once, inside
// its next write.
type hookConn struct {
	sinkConn
	hook *func()
}

func (c hookConn) Write(p []byte) (int, error) {
	if f := *c.hook; f != nil {
		*c.hook = nil
		f()
	}
	return len(p), nil
}

// TestShardWorkAllocFree runs the shard worker itself — shard.work, on the
// test's goroutine, as the shard's one worker — over what a stream delivers
// in steady state, published with the worker idle:
//
//   - a generator tick far behind its schedule (publishTick): a burst of a
//     ring's worth, which every subscriber takes in one write — and while
//     the first of those writes is out, a second burst laps the ring under
//     its pins (the write's release hands the buffers to the pool), and the
//     lag policy drops the first burst for the subscriber still queued;
//   - an upstream packet past a gap wider than the lag window: the lag
//     policy drops the first packet each subscriber lost, the pin skips
//     the gap slots;
//   - a tick on schedule (period 0), then, before the worker has been
//     round, an upstream packet past a gap of one: the second wake finds
//     the first one's paths still queued and applies the lag policy to
//     them, and each write stops at the gap;
//   - a late duplicate from upstream, refused;
//   - resends queued on a subscriber's paths, as a sibling's death queues
//     them: both of one subscriber's are in the ring and are sent, the
//     other's, lapped and a gap, are counted as drops;
//   - a burst of a ring's worth and two ticks on schedule, each taken by
//     everybody, after which the ring keeps only the two newest payloads;
//     then a catch-up from the ring's tail, as an absolute join starts, and
//     resends the ring has released: each packet below the two newest is
//     rendered again from Fill.
//
// The two-path subscriber's paths take turns, and the worker leaving on a
// write with a path still queued arms the stall timer. Once every path has
// written its header and spilled its resend record and the batch has grown
// to the burst, none of it allocates.
func TestShardWorkAllocFree(t *testing.T) {
	const payload, lag, runs = 64, 16, 300
	var fills int64
	h := newExternalHub(t, Config{
		Stream: wire.Config{Mu: 250, PayloadSize: payload, WriteStallTimeout: time.Second,
			Fill: func(pkt uint32, buf []byte) { fills++ }},
		LagWindow: lag,
		Shards:    1,
		MaxBytes:  1 << 30,
	})
	t.Cleanup(h.Close)
	sd := h.shards[0]
	var duringWrite func()
	attach := func(tok byte, paths int) *subscriber {
		sub := &subscriber{token: wire.Token{tok}, shard: sd, window: lag}
		sd.mu.Lock()
		defer sd.mu.Unlock()
		sd.registerLocked(sub)
		for i := 0; i < paths; i++ {
			p := &path{sub: sub, conn: hookConn{hook: &duringWrite}, idx: int32(i), numPaths: int32(paths)}
			sub.links = append(sub.links, p)
			sd.parked.push(p)
		}
		return sub
	}
	multi, solo := attach(1, 2), attach(2, 1)
	t.Cleanup(func() {
		// The paths hold no h.wg count for Close's workers to retire.
		sd.mu.Lock()
		defer sd.mu.Unlock()
		for _, sub := range []*subscriber{multi, solo} {
			for _, p := range sub.links {
				p.unlink()
			}
		}
	})

	// work runs the worker, counted in sd.workers and h.wg as
	// startWorkerLocked counts one, until nothing is queued. The hand-built
	// paths are not counted in sd.live, so it returns instead of idling.
	work := func() {
		sd.mu.Lock()
		sd.workers++
		sd.mu.Unlock()
		h.wg.Add(1)
		sd.work()
	}
	// publish runs pub with workers counted on the shard, so its wake
	// finds one free and starts none: the worker this test stands in for,
	// or, with paths queued, as many as a backlog could want.
	publish := func(workers int, pub func()) {
		sd.mu.Lock()
		sd.workers += workers
		sd.mu.Unlock()
		pub()
		sd.mu.Lock()
		sd.workers -= workers
		sd.mu.Unlock()
	}
	buf := make([]byte, payload)
	feed := func(gap int64) func() {
		return func() {
			if seq := h.ring.headSeq() + gap; !h.PublishAt(seq, seq, buf) {
				t.Fatalf("PublishAt(%d) refused", seq)
			}
		}
	}
	feedPastWindow, feedPastOne := feed(lag), feed(1)
	behind := time.Now().Add(-time.Hour)
	burst := func() { h.publishTick(0, behind, time.Millisecond) }
	tick := func() { h.publishTick(0, time.Time{}, 0) }
	backlog := runtime.GOMAXPROCS(0) + 1
	burstBehind := func() { publish(backlog, burst) }
	multiResend, soloResend := make([]int64, 2), make([]int64, 2)
	cycle := func() {
		duringWrite = burstBehind
		publish(1, burst)
		work()
		publish(1, feedPastWindow)
		work()
		publish(1, tick)
		publish(backlog, feedPastOne)
		work()

		head := h.ring.headSeq()
		if h.PublishAt(head-1, head-1, buf) {
			t.Fatalf("late duplicate %d accepted at head %d", head-1, head)
		}
		multiResend[0], multiResend[1] = head-3, head-1   // the tick's packet and the feed's
		soloResend[0], soloResend[1] = head-lag-1, head-2 // lapped, and the gap
		setResend(sd, multi, multiResend)
		setResend(sd, solo, soloResend)
		sd.mu.Lock()
		sd.readyLocked(multi)
		sd.readyLocked(solo)
		sd.mu.Unlock()
		work()

		for _, pub := range []func(){burst, tick, tick} {
			publish(1, pub)
			work()
		}
		head = h.ring.headSeq()
		for seq := head - lag; seq < head-2; seq++ {
			if !released(h, seq) {
				t.Fatalf("packet %d still holds its payload, want the ring to keep only the newest two", seq)
			}
		}
		multiResend[0], multiResend[1] = head-lag, head-3
		setResend(sd, multi, multiResend)
		sd.mu.Lock()
		sd.advanceLocked(solo, head-lag)
		sd.readyLocked(multi)
		sd.readyLocked(solo)
		sd.mu.Unlock()
		work()
	}
	for i := 0; i < lag+1; i++ {
		cycle()
	}
	sent, resent, dropped, filled := h.totalSent.Load(), h.totalResent.Load(), h.totalDropped.Load(), fills
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Errorf("shard worker deliveries allocate %.2f times per cycle, want 0", allocs)
	}
	// Per cycle: 3·lag+5 frames for each subscriber (three bursts, three
	// ticks, the packets past the window and past the gap of one) less the
	// burst one of them loses to the lag policy, the catch-up's lag, and
	// four resends. Dropped: that burst; for each subscriber lag past the
	// window (the lag policy's one and the gap slots) and the gap of one;
	// two resends lapped or a gap. Filled: the 3·lag+3 packets the
	// generator's ticks publish, and the lag−2 packets of the catch-up and
	// the two resends that the ring had released.
	n := int64(runs + 1)
	if got, want := h.totalSent.Load()-sent, (2*(3*lag+5)-lag+lag+4)*n; got != want {
		t.Errorf("%d frames sent over %d cycles, want %d", got, n, want)
	}
	if got, want := h.totalResent.Load()-resent, 4*n; got != want {
		t.Errorf("%d resends over %d cycles, want %d", got, n, want)
	}
	if got, want := fills-filled, (3*lag+3+lag)*n; got != want {
		t.Errorf("%d packets filled over %d cycles, want %d", got, n, want)
	}
	if got, want := h.totalDropped.Load()-dropped, (lag+2*(lag+1)+2)*n; got != want {
		t.Errorf("%d drops over %d cycles, want %d", got, n, want)
	}
	sd.mu.Lock()
	defer sd.mu.Unlock()
	if made := sd.stall != (clock.Countdown[*shard]{}); !made || sd.stall.Armed() || sd.workers != 0 || sd.queuedLocked() {
		t.Errorf("stall countdown made %v (armed %v), %d workers, paths queued %v: want one made and disarmed, none, none",
			made, sd.stall.Armed(), sd.workers, sd.queuedLocked())
	}
}

// TestGovernorShedAllocFree: the byte-budget governor under overload. One
// subscriber that never reads is 17 frames behind after each publish, one
// frame over a budget of 16, and holds a resend older than that, so every
// PublishAt sheds one degradation-ladder step: clip at the window (nothing
// to clip), halve it to 16 — twice from the lag window, or once, to the
// floor, from 24 — and clip one packet and the resend. The cycle resets
// the window and the resend for the next. Accounting, ranking and shedding
// must not allocate.
func TestGovernorShedAllocFree(t *testing.T) {
	const payload, lag, runs = 64, 64, 200
	frame := int64(payload + wire.FrameHeaderSize)
	h := newExternalHub(t, Config{
		Stream:    wire.Config{Mu: 250, PayloadSize: payload},
		LagWindow: lag,
		Shards:    1,
		MaxBytes:  16*frame + 38,
	})
	t.Cleanup(h.Close)
	sd := h.shards[0]
	sub := &subscriber{token: wire.Token{1}, shard: sd, window: lag}
	addSub(sd, sub)

	buf := make([]byte, payload)
	resend := make([]int64, 1)
	var seq int64
	cycle := func() {
		sd.mu.Lock()
		sub.window = lag
		if seq%2 == 1 {
			sub.window = 3 * minShedWindow / 2
		}
		sd.mu.Unlock()
		resend[0] = max(seq-19, 0) // three behind the cursor once published
		setResend(sd, sub, resend)
		if !h.PublishAt(seq, seq, buf) {
			t.Fatalf("PublishAt(%d) refused", seq)
		}
		seq++
	}
	for seq < 2*lag { // the ring laps once: the pool is full
		cycle()
	}
	sheds, dropped := h.shedCount.Load(), h.totalDropped.Load()
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Errorf("a governor pass that sheds allocates %.2f times, want 0", allocs)
	}
	if got := h.shedCount.Load() - sheds; got < runs {
		t.Fatalf("%d ladder steps over %d publishes, want one each", got, runs)
	}
	if got, want := h.totalDropped.Load()-dropped, int64(2*(runs+1)); got != want {
		t.Fatalf("%d packets shed over %d publishes, want a packet and a resend each", got, runs+1)
	}
	sd.mu.Lock()
	defer sd.mu.Unlock()
	if lagged := h.ring.headSeq() - sub.cur; sub.window != minShedWindow || lagged != minShedWindow || len(sub.resend) != 0 || sub.evicted {
		t.Fatalf("subscriber %d behind with %d resends at window %d (evicted %v), want %d with none at %d",
			lagged, len(sub.resend), sub.window, sub.evicted, minShedWindow, minShedWindow)
	}
}

// TestGovernorEvictAllocFree: the ladder's last step. A subscriber at the
// floor window, 9 frames behind after each publish against a budget of 8,
// has nothing to clip, so every PublishAt evicts it: condemned and taken
// out of the totals and the orphans. The cycle re-registers it for the
// next. An eviction storm must not allocate.
func TestGovernorEvictAllocFree(t *testing.T) {
	const payload, lag, runs = 64, 64, 200
	frame := int64(payload + wire.FrameHeaderSize)
	h := newExternalHub(t, Config{
		Stream:    wire.Config{Mu: 250, PayloadSize: payload},
		LagWindow: lag,
		Shards:    1,
		MaxBytes:  8*frame + 38,
	})
	t.Cleanup(h.Close)
	sd := h.shards[0]
	sub := &subscriber{token: wire.Token{1}, shard: sd, window: minShedWindow}
	addSub(sd, sub)

	buf := make([]byte, payload)
	var seq int64
	cycle := func() {
		sd.mu.Lock()
		sd.removeLocked(sub)
		sub.evicted, sub.window, sub.cur = false, minShedWindow, max(seq-8, 0)
		sd.registerLocked(sub)
		sd.orphanLocked(sub)
		sd.mu.Unlock()
		if !h.PublishAt(seq, seq, buf) {
			t.Fatalf("PublishAt(%d) refused", seq)
		}
		seq++
	}
	for seq < 2*lag {
		cycle()
	}
	evicted := h.evictedCount.Load()
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Errorf("a governor pass that evicts allocates %.2f times, want 0", allocs)
	}
	if got := h.evictedCount.Load() - evicted; got != runs+1 {
		t.Fatalf("%d evictions over %d publishes, want one each", got, runs+1)
	}
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
		Stream:         wire.Config{Mu: 250, PayloadSize: 256},
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

	var tok wire.Token
	for i := 0; i < paths; i++ {
		binary.BigEndian.PutUint32(tok[:], uint32(i)+1)
		if err := h.AttachJoined(sinkConn{}, wire.Join{StreamID: "live", Token: tok}); err != nil {
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
