package hub

import (
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"dmpstream/internal/core"
)

// What a generator tick costs: wake walks the subscribers that can be
// behind — a path out on a write, a path still queued from an earlier tick,
// an orphan — and splices the caught-up rest, so a tick over a population
// at pace visits nobody, whatever its size. shard.walked counts the visits.

// sinkConn is a net.Conn that discards writes without allocating.
type sinkConn struct{}

func (sinkConn) Read(p []byte) (int, error)       { return 0, net.ErrClosed }
func (sinkConn) Write(p []byte) (int, error)      { return len(p), nil }
func (sinkConn) Close() error                     { return nil }
func (sinkConn) LocalAddr() net.Addr              { return nil }
func (sinkConn) RemoteAddr() net.Addr             { return nil }
func (sinkConn) SetDeadline(time.Time) error      { return nil }
func (sinkConn) SetReadDeadline(time.Time) error  { return nil }
func (sinkConn) SetWriteDeadline(time.Time) error { return nil }

// attachSinks attaches n single-path subscribers on discarding conns, with
// tokens numbered from base so they spread evenly over the shards.
func attachSinks(tb testing.TB, h *Hub, base, n int) {
	tb.Helper()
	var tok core.Token
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(tok[:8], uint64(base+i)+1)
		if err := h.AttachJoined(sinkConn{}, core.Join{StreamID: h.cfg.StreamID, Token: tok}); err != nil {
			tb.Fatal(err)
		}
	}
}

// walked sums the shards' lag-walk visit counters.
func walked(h *Hub) (n int64) {
	for _, sd := range h.shards {
		sd.mu.Lock()
		n += sd.walked
		sd.mu.Unlock()
	}
	return n
}

// parkedPaths counts the paths parked across all shards.
func parkedPaths(tb testing.TB, h *Hub) (n int) {
	for _, sd := range h.shards {
		n += placed(tb, sd).parked
	}
	return n
}

func waitParked(tb testing.TB, h *Hub, want int) {
	tb.Helper()
	waitFor(tb, fmt.Sprintf("%d paths to park", want), func() bool { return parkedPaths(tb, h) == want })
}

func TestTickVisitsOnlySubscribersBehind(t *testing.T) {
	for _, n := range []int{100, 4000} {
		t.Run(fmt.Sprintf("%d at pace", n), func(t *testing.T) {
			h := newExternalHub(t, Config{Shards: 2, MaxBytes: 1 << 30})
			defer h.Close()
			attachSinks(t, h, 0, n)
			payload := make([]byte, h.cfg.Stream.PayloadSize)
			for seq := int64(0); seq < 8; seq++ {
				waitParked(t, h, n)
				before := walked(h)
				if !h.PublishAt(seq, seq, payload) {
					t.Fatalf("PublishAt(%d) refused", seq)
				}
				if got := walked(h) - before; got != 0 {
					t.Fatalf("tick %d over %d parked subscribers visited %d of them, want 0", seq, n, got)
				}
			}
			waitParked(t, h, n)
			if sent := h.Stats().Sent; sent != 8*int64(n) {
				t.Fatalf("sent %d frames, want %d: a subscriber the tick did not visit was not served", sent, 8*n)
			}
		})
	}

	t.Run("blocked writers", func(t *testing.T) {
		const atPace, blocked = 200, 7
		h := leaseHub(t, Config{LagWindow: 256})
		attachSinks(t, h, 0, atPace)
		gate := make(chan struct{})
		defer close(gate)
		slow := make([]*leaseConn, blocked)
		for i := range slow {
			slow[i] = newLeaseConn()
			slow[i].gate = gate
			attach(t, h, slow[i])
		}
		waitParked(t, h, atPace+blocked)
		publish(t, h, 0, 1)
		for _, c := range slow {
			select {
			case <-c.entered:
			case <-time.After(5 * time.Second):
				t.Fatal("a slow path never reached its write")
			}
		}
		for seq := int64(1); seq < 6; seq++ {
			waitParked(t, h, atPace)
			before := walked(h)
			publish(t, h, seq, seq+1)
			if got := walked(h) - before; got != blocked {
				t.Fatalf("tick with %d writers blocked and %d subscribers at pace visited %d, want %d", blocked, atPace, got, blocked)
			}
		}
	})

	// A writer that never returns is found by the tick itself, not by the
	// worker it is holding: the tick that takes it past its window evicts it.
	t.Run("evict while blocked", func(t *testing.T) {
		const window = 8
		h := leaseHub(t, Config{LagWindow: window, Policy: Evict})
		attachSinks(t, h, 0, 50)
		stuck := newLeaseConn()
		stuck.gate = make(chan struct{}) // never closed
		attach(t, h, stuck)
		waitParked(t, h, 51)
		publish(t, h, 0, 1) // the stuck path takes packet 0 and blocks: its cursor stays at 1
		<-stuck.entered
		for seq := int64(1); seq < 1+window; seq++ { // up to head 9: exactly a window behind, still inside it
			waitParked(t, h, 50)
			publish(t, h, seq, seq+1)
		}
		waitParked(t, h, 50)
		if ev := h.Stats().Evicted; ev != 0 {
			t.Fatalf("%d evicted with the blocked writer exactly a window behind", ev)
		}
		publish(t, h, 1+window, 2+window) // one past the window
		if ev := h.Stats().Evicted; ev != 1 {
			t.Fatalf("%d evicted by the tick that took the blocked writer past its window, want 1", ev)
		}
		select {
		case <-stuck.closed:
		default:
			t.Fatal("evicted writer's connection left open")
		}
		waitFor(t, "the evicted path to retire", func() bool { return h.ConnCount() == 50 })
		waitParked(t, h, 50)
		if st := h.Stats(); st.Sent != 50*(2+window)+1 || st.Dropped != 0 {
			t.Fatalf("sent %d, dropped %d: the subscribers at pace were disturbed", st.Sent, st.Dropped)
		}
	})
}

// TestCatchUpBurstShedsEvenly is the governor on a catch-up tick: after a
// host stall the generator publishes maxTickBurst packets at once, every
// parked subscriber is that far behind when the governor runs, and none is
// worse than another. Over budget, the ladder must then go round them — each
// step taken on a subscriber holding the most, the payload span shrinking
// once all have let go of its oldest part — and not down on one of them: no
// subscriber at pace is evicted while a peer still holds a full window. The
// tick is made by hand and without its kick, so the woken paths stay where
// the governor found them.
func TestCatchUpBurstShedsEvenly(t *testing.T) {
	const (
		n       = 40
		burst   = maxTickBurst
		payload = 32
		hdr     = core.FrameHeaderSize
	)
	for _, tc := range []struct {
		name      string
		budget    int64
		wantSheds int64
		windows   map[int]int // effective window → subscribers left at it
	}{
		// Half of them down one rung is enough; the payload span stays.
		{"half clipped once", burst*payload + n*burst*hdr - (n/2)*(burst/2)*hdr, n / 2, map[int]int{burst: n / 2, burst / 2: n / 2}},
		// Below the full span's payload alone: all of them one rung down.
		{"all clipped once", (burst/2)*payload + n*(burst/2)*hdr, n, map[int]int{burst / 2: n}},
		// The ladder's floor for everybody, and still nobody evicted.
		{"all at the floor", minShedWindow*payload + n*minShedWindow*hdr, 2 * n, map[int]int{minShedWindow: n}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newExternalHub(t, Config{Shards: 2, LagWindow: burst, MaxBytes: tc.budget, Stream: core.Config{PayloadSize: payload}})
			defer h.Close()
			buf := make([]byte, payload)
			seq := int64(0)
			for ; seq < 100; seq++ {
				if !h.PublishAt(seq, seq, buf) {
					t.Fatalf("PublishAt(%d) refused", seq)
				}
			}
			attachSinks(t, h, 0, n)
			waitParked(t, h, n)

			h.govMu.Lock()
			var head int64
			for end := seq + burst; seq < end; seq++ {
				head, _ = h.ring.publishAt(seq, seq, buf)
			}
			for _, sd := range h.shards {
				sd.mu.Lock()
				sd.wakeLocked(head)
				sd.mu.Unlock()
			}
			if before, _, _ := scanAccount(h, head); before <= tc.budget {
				t.Fatalf("the burst left %d bytes held, inside the %d budget: nothing to govern", before, tc.budget)
			}
			h.governLocked(head)
			total, _, _, _ := h.accountLocked(head, true)
			ref, _, _ := scanAccount(h, head)
			h.govMu.Unlock()

			if total != ref || total > tc.budget {
				t.Errorf("after the governor pass %d bytes are held (a scan finds %d), budget %d", total, ref, tc.budget)
			}
			if shed, ev := h.shedCount.Load(), h.evictedCount.Load(); shed != tc.wantSheds || ev != 0 {
				t.Errorf("%d ladder steps and %d evictions, want %d and none", shed, ev, tc.wantSheds)
			}
			windows := map[int]int{}
			for _, sd := range h.shards {
				sd.mu.Lock()
				if pl, err := placedLocked(sd); err != nil || pl.queued != len(sd.subs) {
					t.Errorf("%d of the shard's %d paths still queued (%v): the tick was served under the governor", pl.queued, len(sd.subs), err)
				}
				for _, sub := range sd.subs {
					windows[sub.window]++
				}
				sd.mu.Unlock()
			}
			if fmt.Sprint(windows) != fmt.Sprint(tc.windows) {
				t.Errorf("effective windows %v, want %v: the sheds did not go round", windows, tc.windows)
			}

			// Served now, everybody is sent what the ladder left them.
			for _, sd := range h.shards {
				sd.mu.Lock()
				sd.kickLocked(false)
				sd.mu.Unlock()
			}
			waitParked(t, h, n)
			if st := h.Stats(); st.Sent+st.Dropped != n*burst || st.Evicted != 0 || st.BytesHeld != 0 {
				t.Errorf("sent %d + dropped %d of %d, %d evicted, %d bytes held", st.Sent, st.Dropped, n*burst, st.Evicted, st.BytesHeld)
			}
		})
	}
}

// BenchmarkPublishTick times the generator tick's critical section —
// PublishAt: ring publish, every shard's wake, the governor pass — over
// parked subscribers on discarding conns, with and without a byte budget.
// A tick is published only once the previous one has been served, so what
// is timed is the tick over a population at pace, the case whose cost must
// not grow with the population.
func BenchmarkPublishTick(b *testing.B) {
	for _, size := range []struct {
		name string
		subs int
	}{{"1k", 1000}, {"4k", 4000}, {"16k", 16000}} {
		for _, budget := range []bool{false, true} {
			name := size.name
			if budget {
				name += "/budget"
			}
			b.Run(name, func(b *testing.B) {
				cfg := Config{Stream: core.Config{Mu: 250, PayloadSize: 1200}}
				if budget {
					cfg.MaxBytes = 1 << 40
				}
				h := newExternalHub(b, cfg)
				defer h.Close()
				attachSinks(b, h, 0, size.subs)
				payload := make([]byte, cfg.Stream.PayloadSize)
				var seq int64
				tick := func() time.Duration {
					waitParked(b, h, size.subs)
					t0 := time.Now()
					if !h.PublishAt(seq, seq, payload) {
						b.Fatalf("PublishAt(%d) refused", seq)
					}
					seq++
					return time.Since(t0)
				}
				for i := 0; i < 16; i++ {
					tick() // pools fill, workers start
				}
				var in time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					in += tick()
				}
				b.StopTimer()
				b.ReportMetric(float64(in.Nanoseconds())/float64(b.N), "tick-ns/op")
			})
		}
	}
}
