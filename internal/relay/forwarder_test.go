package relay

import (
	"bytes"
	"net"
	"testing"
	"time"

	"dmpstream/internal/core"
	"dmpstream/internal/hub"
	"dmpstream/internal/lockrank"
)

// testRelay is a Relay with only what the forwarder and the shutdown paths
// use: the config and the signal channels New makes.
func testRelay(cfg Config) *Relay {
	if cfg.ReorderWindow == 0 {
		cfg.ReorderWindow = DefaultReorderWindow
	}
	r := &Relay{
		cfg:          cfg,
		readyCh:      make(chan struct{}),
		failCh:       make(chan struct{}),
		stopCh:       make(chan struct{}),
		upstreamDone: make(chan struct{}),
	}
	r.mu.Init(lockrank.Relay)
	return r
}

// newTestForwarder is the forwarder of a relay with paths upstream paths,
// publishing into an external-source hub of 1-byte packets as the relay's
// local hub would be once the first header arrived.
func newTestForwarder(t testing.TB, paths int) *forwarder {
	t.Helper()
	r := testRelay(Config{Paths: paths})
	r.fwd = newForwarder(r, 0)
	h, err := hub.New(hub.Config{ExternalSource: true, Stream: core.Config{Mu: 100, PayloadSize: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	r.local.Store(h)
	return r.fwd
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestForwarderCommit drives ingest directly: the forwarder commits once
// every path has delivered a packet, to the smallest one parked, and
// waits for syncDepth packets only while a path stays silent.
func TestForwarderCommit(t *testing.T) {
	type arrival struct {
		path      int
		seq       uint32
		forwarded int64 // published once this arrival is in
	}
	for _, tc := range []struct {
		name     string
		paths    int
		arrivals []arrival
		late     int64
	}{
		{"one path commits on its first packet", 1,
			[]arrival{{0, 7, 1}, {0, 8, 2}}, 0},
		{"the later path carries the minimum", 2,
			[]arrival{{1, 5, 0}, {0, 3, 1}, {0, 4, 3}}, 0},
		// Path 0 rides one hub's subscription from tail 10, path 1 another's
		// from tail 4: the commit is the lower tail, and the second copy of
		// each sequence is a duplicate.
		{"dual-homed paths with two tails", 2,
			[]arrival{{0, 10, 0}, {0, 11, 0}, {1, 4, 1}, {1, 5, 2}, {1, 6, 3}, {1, 7, 4}, {1, 8, 5}, {1, 9, 8}, {1, 10, 8}, {0, 12, 9}}, 1},
		{"a duplicate during sync is late", 2,
			[]arrival{{0, 5, 0}, {1, 5, 1}, {1, 6, 2}}, 1},
		{"a path that never speaks falls back to syncDepth", 2,
			[]arrival{{0, 0, 0}, {0, 1, 0}, {0, 2, 0}, {0, 3, 0}, {0, 4, 0}, {0, 5, 0}, {0, 6, 0}, {0, 7, 8}}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newTestForwarder(t, tc.paths)
			for i, a := range tc.arrivals {
				f.ingest(a.path, a.seq, 0, []byte{0})
				if got := f.r.Stats().Forwarded; got != a.forwarded {
					t.Fatalf("after arrival %d (path %d, seq %d): forwarded %d, want %d", i, a.path, a.seq, got, a.forwarded)
				}
			}
			st := f.r.Stats()
			if st.LateDrops != tc.late || st.GapSkips != 0 || st.Refused != 0 {
				t.Fatalf("late drops %d, gap skips %d, refused %d; want %d, 0, 0", st.LateDrops, st.GapSkips, st.Refused, tc.late)
			}
		})
	}
}

// TestForwarderCommitEndToEnd: an external-source origin publishes by hand
// to a relay over loopback TCP. The relay commits once each of its paths
// has delivered a packet; a candidate that never answers leaves the commit
// to syncDepth.
func TestForwarderCommitEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	for _, tc := range []struct {
		name      string
		dead      bool    // rank a refused address second
		paths     int     // relay upstream paths
		conns     int     // of them, attached at the origin
		forwarded []int64 // published once the relay holds packets 0..n
	}{
		{"two paths", false, 2, 2, []int64{0, 2}},
		{"one path", false, 1, 1, []int64{1}},
		{"a dead candidate", true, 2, 1, []int64{0, 0, 0, 0, 0, 0, 0, 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			origin, err := hub.New(hub.Config{ExternalSource: true, StreamID: "e2e", Stream: core.Config{Mu: 100, PayloadSize: 8}})
			if err != nil {
				t.Fatal(err)
			}
			defer origin.Close()
			oln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go origin.Serve(oln)
			ups := []string{oln.Addr().String()}
			if tc.dead {
				ups = append(ups, dead)
			}
			// A backoff longer than the test keeps the dead path from
			// rotating onto the live candidate.
			r, err := New(Config{
				Upstreams:   ups,
				StreamID:    "e2e",
				Paths:       tc.paths,
				Redial:      core.RedialPolicy{Base: time.Minute, Max: time.Minute, Seed: 1},
				OrphanGrace: time.Minute,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			waitFor(t, "the relay's paths at the origin", func() bool { return origin.Stats().Conns == tc.conns })

			payload := make([]byte, 8)
			for n, want := range tc.forwarded {
				if !origin.PublishAt(int64(n), time.Now().UnixNano(), payload) {
					t.Fatalf("origin refused packet %d", n)
				}
				waitFor(t, "the relay to receive the packet", func() bool {
					st := r.Stats()
					return st.Forwarded+int64(st.Held)+st.LateDrops == int64(n+1)
				})
				if got := r.Stats().Forwarded; got != want {
					t.Fatalf("after packet %d: forwarded %d, want %d", n, got, want)
				}
			}
		})
	}
}

// FuzzForwarderSync feeds the forwarder per-path ascending runs in a random
// interleaving, the way hub subscriptions arrive: one ascending sequence
// from a random tail striped across the paths, or two independent
// subscriptions ending at the same head when the paths are dual-homed.
// Whenever every path speaks before syncDepth packets are parked, the
// commit must be the global minimum, made no later than the arrival that
// completes "every path heard", and nothing may be dropped late or skipped
// beyond the duplicates dual-homing delivers.
func FuzzForwarderSync(f *testing.F) {
	// The bytes pick a path for each sequence of A, then of B, then the path
	// that delivers next; once they run out, the choice is always the first.
	f.Add(uint16(7), uint16(0), uint8(0), uint8(0), uint8(2), []byte{}) // one path
	f.Add(uint16(5), uint16(0), uint8(1), uint8(0), uint8(4), []byte{1, 0, 0, 1, 0})
	f.Add(uint16(100), uint16(0), uint8(2), uint8(0), uint8(7), []byte{2, 1, 0, 2, 1, 0, 0, 2, 0, 0, 0, 1})
	f.Add(uint16(40), uint16(10), uint8(1), uint8(0x80), uint8(3), []byte{}) // A on path 0, B on path 1
	f.Add(uint16(3), uint16(90), uint8(3), uint8(0x81), uint8(10), append(bytes.Repeat([]byte{0, 1}, 55)[:109], 0, 1, 2, 3))
	f.Fuzz(func(t *testing.T, tailA, tailB uint16, npaths, split, length uint8, choices []byte) {
		pick := func(n int) int {
			if len(choices) == 0 {
				return 0
			}
			v := int(choices[0]) % n
			choices = choices[1:]
			return v
		}
		paths := 1 + int(npaths)%4
		// Paths [0, onA) ride subscription A, the rest subscription B. At
		// most 192 sequences in all keep the reorder buffer inside its
		// window, so a gap skip can only be a wrong commit.
		onA := paths
		tails := []int64{int64(tailA % 128)}
		if paths > 1 && split&0x80 != 0 {
			onA = 1 + int(split&0x7f)%(paths-1)
			tails = append(tails, int64(tailB%128))
		}
		head := max(tails[0], tails[len(tails)-1]) + 1 + int64(length%64)
		lo := min(tails[0], tails[len(tails)-1])

		queues := make([][]uint32, paths)
		for s, tail := range tails {
			first, n := 0, onA
			if s == 1 {
				first, n = onA, paths-onA
			}
			for seq := tail; seq < head; seq++ {
				p := first + pick(n)
				queues[p] = append(queues[p], uint32(seq))
			}
		}
		for _, q := range queues {
			if len(q) == 0 {
				return // a silent path is the syncDepth fallback, not this rule
			}
		}

		fw := newTestForwarder(t, paths)
		heard := make([]bool, paths)
		unheard, deliveries := paths, 0
		parked := map[uint32]bool{}
		fallback := false
		for {
			var live []int
			for p, q := range queues {
				if len(q) > 0 {
					live = append(live, p)
				}
			}
			if len(live) == 0 {
				break
			}
			p := live[pick(len(live))]
			seq := queues[p][0]
			queues[p] = queues[p][1:]
			fw.ingest(p, seq, 0, []byte{0})
			deliveries++
			if unheard == 0 {
				continue
			}
			parked[seq] = true
			if !heard[p] {
				heard[p] = true
				unheard--
			}
			if unheard > 0 && len(parked) >= syncDepth {
				fallback = true
			}
			if unheard == 0 {
				fw.mu.Lock()
				next := fw.next
				fw.mu.Unlock()
				if next < 0 {
					t.Fatalf("every path heard at delivery %d, still not committed", deliveries)
				}
			}
		}
		if fallback {
			return
		}
		st := fw.r.Stats()
		distinct := head - lo
		if st.Forwarded != distinct || st.GapSkips != 0 || st.Held != 0 {
			t.Fatalf("forwarded %d of [%d, %d), gap skips %d, held %d; want all, 0, 0", st.Forwarded, lo, head, st.GapSkips, st.Held)
		}
		if dups := int64(deliveries) - distinct; st.LateDrops != dups {
			t.Fatalf("late drops %d, want only the %d duplicates", st.LateDrops, dups)
		}
	})
}
