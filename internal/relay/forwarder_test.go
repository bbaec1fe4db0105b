package relay

import (
	"bytes"
	"fmt"
	"net"
	"sort"
	"testing"
	"time"

	"dmpstream/internal/core"
	"dmpstream/internal/hub"
	"dmpstream/internal/lockrank"
	"dmpstream/internal/wire"
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
	return newForwarderInto(t, Config{Paths: paths}, 1)
}

// newForwarderInto is the forwarder of a relay on cfg, publishing into an
// external-source hub of payload-byte packets.
func newForwarderInto(t testing.TB, cfg Config, payload int) *forwarder {
	t.Helper()
	r := testRelay(cfg)
	r.fwd = newForwarder(r, 0)
	h, err := hub.New(hub.Config{ExternalSource: true, Stream: wire.Config{Mu: 100, PayloadSize: payload}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	r.local.Store(h)
	return r.fwd
}

// ingestCycle feeds f's one path the 8 packets from base: in order, or with
// the last overtaking the one before it, so that one parks and is released
// by the next arrival.
func ingestCycle(f *forwarder, base int64, reordered bool, payload []byte) {
	for i := int64(0); i < 8; i++ {
		seq := base + i
		if reordered && i >= 6 {
			seq = base + 13 - i
		}
		f.ingest(0, uint32(seq), 0, payload)
	}
}

// BenchmarkForwarderIngest times the relay's ingest stage — the reorder
// step, PublishAt into a local hub with no subscribers, and the ring's
// recycling — over 8-packet cycles of 256-byte packets (tree_edge's), in
// order and with every 8th packet reordered, once the hub ring has lapped
// and its pool stopped growing. ns/packet is the per-packet cost; allocs/op
// must read 0.
func BenchmarkForwarderIngest(b *testing.B) {
	for _, reordered := range []bool{false, true} {
		name := map[bool]string{false: "in-order", true: "reordered"}[reordered]
		b.Run(name, func(b *testing.B) {
			f := newForwarderInto(b, Config{Paths: 1}, 256)
			payload := make([]byte, 256)
			seq := int64(0)
			for ; seq < 2*1024; seq += 8 { // two laps of the default lag window
				ingestCycle(f, seq, reordered, payload)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ingestCycle(f, seq, reordered, payload)
				seq += 8
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(8*b.N), "ns/packet")
		})
	}
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
			origin, err := hub.New(hub.Config{ExternalSource: true, StreamID: "e2e", Stream: wire.Config{Mu: 100, PayloadSize: 8}})
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
				next := fw.order.next
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

// TestReorderSpanRule pins the gap rule: a gap is abandoned once a packet
// arrives more than the window past it, and a parked spread wider than the
// window commits at once to its smallest sequence.
func TestReorderSpanRule(t *testing.T) {
	const w = 4
	for _, tc := range []struct {
		name     string
		arrivals []int64 // all on path 0 of one path
		out      []int64 // released, in order
		skips    int64
		held     int
	}{
		{"a packet window past the gap parks", []int64{10, 12, 15}, []int64{10}, 0, 2},
		{"one more abandons it and the run goes out", []int64{10, 12, 13, 14, 15, 16}, []int64{10, 12, 13, 14, 15, 16}, 1, 0},
		{"two holes: the first goes one arrival earlier", []int64{10, 13, 14, 15, 16}, []int64{10}, 1, 4},
		{"a far packet abandons everything more than window behind it", []int64{10, 12, 100}, []int64{10, 12}, 1 + 95 - 12, 1},
		{"a resend of a parked packet is late", []int64{10, 12, 12}, []int64{10}, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := newReorder(1, w)
			var out []int64
			for _, seq := range tc.arrivals {
				for _, p := range o.step(0, seq, 0, []byte{0}) {
					out = append(out, p.seq)
				}
			}
			if fmt.Sprint(out) != fmt.Sprint(tc.out) || o.gapSkips != tc.skips || o.ring.Len() != tc.held {
				t.Fatalf("released %v, %d skipped, %d held; want %v, %d, %d", out, o.gapSkips, o.ring.Len(), tc.out, tc.skips, tc.held)
			}
		})
	}
	// A silent second path keeps the commit open until the spread outgrows
	// the window: 25 commits to 18, the smallest parked, and abandons 19,
	// more than the window behind it.
	o := newReorder(2, w)
	var out []int64
	for _, seq := range []int64{20, 18, 22, 25} {
		for _, p := range o.step(0, seq, 0, []byte{0}) {
			out = append(out, p.seq)
		}
	}
	if fmt.Sprint(out) != "[18 20]" || o.next != 21 || o.gapSkips != 1 || o.ring.Len() != 2 {
		t.Fatalf("released %v, next %d, %d skipped, %d held; want [18 20], 21, 1, 2", out, o.next, o.gapSkips, o.ring.Len())
	}
}

// seqModel is the reference for reorder: the parked packets as a set kept
// sorted on demand, and the rules as they read in reorder's doc.
type seqModel struct {
	window, next int64
	paths        int
	parked       map[int64]int // sequence → the arrival whose copy parked
	heard        map[int]bool
	out          [][2]int64 // (sequence, arrival) released by the last call
	late, skips  int64
	reordered    int64
}

func (m *seqModel) sorted() []int64 {
	keys := make([]int64, 0, len(m.parked))
	for s := range m.parked {
		keys = append(keys, s)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func (m *seqModel) arrive(path int, seq int64, id int) {
	m.out = m.out[:0]
	_, dup := m.parked[seq]
	if m.next >= 0 {
		if dup || seq < m.next {
			m.late++
			return
		}
		if seq != m.next {
			m.reordered++
		}
		m.parked[seq] = id
		m.settle()
		return
	}
	if dup {
		m.late++
	} else {
		m.parked[seq] = id
		if keys := m.sorted(); keys[len(keys)-1]-keys[0] > m.window { // commit at once
			if m.next = keys[0]; seq != m.next {
				m.reordered++
			}
			m.settle()
			return
		}
	}
	m.heard[path] = true
	if len(m.heard) == m.paths || len(m.parked) >= syncDepth {
		m.next = m.sorted()[0]
		m.settle()
	}
}

// settle releases what is due: next when parked, and past a gap once the
// newest parked packet lies more than window beyond it.
func (m *seqModel) settle() {
	for len(m.parked) > 0 {
		keys := m.sorted()
		if lo, hi := keys[0], keys[len(keys)-1]; lo == m.next {
			m.out = append(m.out, [2]int64{lo, int64(m.parked[lo])})
			delete(m.parked, lo)
			m.next++
		} else if hi-m.next > m.window {
			to := min(lo, hi-m.window)
			m.skips += to - m.next
			m.next = to
		} else {
			return
		}
	}
}

func (m *seqModel) flush() {
	m.out = m.out[:0]
	for _, s := range m.sorted() {
		if m.next < 0 {
			m.next = s
		}
		m.skips += s - m.next
		m.out = append(m.out, [2]int64{s, int64(m.parked[s])})
		delete(m.parked, s)
		m.next = s + 1
	}
}

// FuzzForwarderSeqs extends FuzzForwarderSync past the first commit: the
// reorder step, and the forwarder publishing what it releases into a hub,
// against seqModel over arbitrary arrivals. Each arrival is two bytes a, b
// on path a%paths: a>>6 of 0 or 1 lands near the newest sequence so far
// (within −16..15: interleavings and duplicates), 2 replays up to 255 below
// it (a failover), and 3 jumps more than the window past it.
func FuzzForwarderSeqs(f *testing.F) {
	near := func(path int, d int8) []byte { return []byte{byte(path), byte(int(d) * 8)} }
	seed := func(window, paths uint8, arrivals ...[]byte) {
		f.Add(window, paths, bytes.Join(arrivals, nil))
	}
	// The window's edge (window 4, one path): 1000 commits, 1002 parks,
	// 1005 lands window past the gap at 1001 and parks, 1006 lands one more
	// past it and abandons it.
	seed(3, 0, near(0, 0), near(0, 2), near(0, 3), near(0, 1))
	// The span still fits (window 8): a hole at 1001, then 1002..1009
	// parked, then the hole's packet — nothing may be skipped.
	seed(7, 0, near(0, 0), near(0, 2), near(0, 1), near(0, 1), near(0, 1), near(0, 1), near(0, 1), near(0, 1), near(0, 1), near(0, -8))
	// Resends of parked packets, before and after the commit, on two paths.
	seed(15, 1, near(0, 0), near(0, 2), near(0, 0), near(1, -2), near(1, 0), near(0, -1), near(1, 0))
	// Striped paths, a failover replay below next, then a wide gap.
	seed(31, 2, near(0, 0), near(1, 1), near(2, 1), near(0, 2), near(1, -1), []byte{0x82, 40}, []byte{0xc1, 3}, near(2, 1))
	// A spread wider than the window before the commit, from below (window
	// 5, four paths): 994 commits, 995..997 go, 998 is window behind 1003.
	seed(4, 3, near(0, 0), near(1, 3), near(2, -5), []byte{0x83, 9}, near(0, 1))
	seed(4, 3, near(0, 0), near(1, 3), []byte{0x82, 13}, near(0, -4), near(0, 1))
	f.Fuzz(func(t *testing.T, window, npaths uint8, ops []byte) {
		w, paths := 1+int64(window%32), 1+int(npaths%4)
		fw := newForwarderInto(t, Config{Paths: paths, ReorderWindow: int(w)}, 2)
		o := newReorder(paths, int(w))
		m := &seqModel{window: w, next: -1, paths: paths, parked: map[int64]int{}, heard: map[int]bool{}}

		check := func(rel []release, what string) {
			t.Helper()
			if len(rel) != len(m.out) {
				t.Fatalf("%s: released %d packets, model %d (%v)", what, len(rel), len(m.out), m.out)
			}
			for i, p := range rel {
				if got := [2]int64{p.seq, int64(p.payload[0])<<8 | int64(p.payload[1])}; got != m.out[i] {
					t.Fatalf("%s: release %d is (seq, arrival) %v, model %v", what, i, got, m.out[i])
				}
				if p.parked {
					o.ring.Recycle(p.payload)
				}
			}
			if o.next != m.next || o.lateDrops != m.late || o.gapSkips != m.skips || o.reordered != m.reordered || o.ring.Len() != len(m.parked) {
				t.Fatalf("%s: next %d, late %d, skips %d, reordered %d, held %d; model %d, %d, %d, %d, %d", what,
					o.next, o.lateDrops, o.gapSkips, o.reordered, o.ring.Len(), m.next, m.late, m.skips, m.reordered, len(m.parked))
			}
		}
		top := int64(1000)
		for id := 0; len(ops) >= 2 && id < 1<<16; id++ {
			a, b := ops[0], ops[1]
			ops = ops[2:]
			seq := top + int64(int8(b))/8
			switch a >> 6 {
			case 2:
				seq = top - int64(b)
			case 3:
				seq = top + w + 1 + int64(b)
			}
			seq = max(seq, 0)
			top = max(top, seq)
			path, payload := int(a)%paths, []byte{byte(id >> 8), byte(id)}
			m.arrive(path, seq, id)
			check(o.step(path, seq, 0, payload), fmt.Sprintf("arrival %d (path %d, seq %d)", id, path, seq))
			fw.ingest(path, uint32(seq), 0, payload)
		}
		m.flush()
		check(o.flush(), "flush")
		fw.flush()
		st := fw.r.Stats()
		if st.Refused != 0 || st.LateDrops != m.late || st.GapSkips != m.skips || st.Held != 0 {
			t.Fatalf("forwarder: refused %d, late %d, skips %d, held %d; model 0, %d, %d, 0", st.Refused, st.LateDrops, st.GapSkips, st.Held, m.late, m.skips)
		}
	})
}
