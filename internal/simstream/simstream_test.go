package simstream

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"dmpstream/internal/core"
	"dmpstream/internal/netsim"
	"dmpstream/internal/sim"
	"dmpstream/internal/tcpsim"
)

// twoPathStream builds a stream over two independent lossless paths with the
// given bottleneck rates (Mbps) and one-way delays.
func twoPathStream(seed int64, cfg VideoConfig, rates [2]float64, delays [2]sim.Time, buf int) (*sim.Simulator, *Stream) {
	s := sim.New(seed)
	var conns []*tcpsim.Conn
	for k := 0; k < 2; k++ {
		c := tcpsim.NewConn(s, netsim.FlowID(k+1), tcpsim.Config{})
		fwd := netsim.NewLink(s, "fwd", rates[k], delays[k], buf, nil)
		rev := netsim.NewLink(s, "rev", 100, delays[k], 1<<20, nil)
		c.Wire(netsim.NewPath(c.Rcv, fwd), netsim.NewPath(c.Snd, rev))
		conns = append(conns, c)
	}
	return s, New(s, cfg, conns)
}

func TestAllPacketsDeliveredWithAmpleBandwidth(t *testing.T) {
	cfg := VideoConfig{Mu: 50, Duration: 60 * sim.Second}
	s, st := twoPathStream(1, cfg, [2]float64{10, 10}, [2]sim.Time{20 * sim.Millisecond, 20 * sim.Millisecond}, 1000)
	st.Start()
	s.Run(120 * sim.Second)
	want := int64(60 * 50)
	if st.Generated() != want {
		t.Fatalf("generated %d, want %d", st.Generated(), want)
	}
	if got := int64(len(st.Trace().Arrivals)); got != want {
		t.Fatalf("arrived %d, want %d", got, want)
	}
	pb, ao := st.Trace().LateFraction(2.0)
	if pb != 0 || ao != 0 {
		t.Fatalf("late fractions %v/%v on uncongested paths", pb, ao)
	}
}

func TestConservationNoDuplicates(t *testing.T) {
	cfg := VideoConfig{Mu: 80, Duration: 30 * sim.Second}
	s, st := twoPathStream(2, cfg, [2]float64{5, 1}, [2]sim.Time{10 * sim.Millisecond, 40 * sim.Millisecond}, 100)
	st.Start()
	s.Run(200 * sim.Second)
	counts := st.PathCounts()
	if counts[0]+counts[1] != st.Generated() {
		t.Fatalf("fetched %d+%d != generated %d", counts[0], counts[1], st.Generated())
	}
	if missing := st.Trace().Missing(); len(missing) != 0 {
		t.Fatalf("%d of %d packets never arrived (lossless paths)", len(missing), st.Generated())
	}
}

func TestFasterPathCarriesMore(t *testing.T) {
	// 4:1 bandwidth asymmetry with the offered load (1.2 Mbps) close to the
	// aggregate capacity (1.5 Mbps): both send buffers see backpressure, so
	// the fetch loop should route most packets to the fast path. (When both
	// paths are far from saturation, a 50/50 split is expected and correct —
	// no backpressure means no inference signal.)
	cfg := VideoConfig{Mu: 100, Duration: 60 * sim.Second}
	s, st := twoPathStream(3, cfg, [2]float64{1.2, 0.3}, [2]sim.Time{20 * sim.Millisecond, 20 * sim.Millisecond}, 500)
	st.Start()
	s.Run(180 * sim.Second)
	share0 := pathShare(st, 0)
	if share0 < 0.55 {
		t.Fatalf("fast path share %.2f; expected dynamic allocation to favor it", share0)
	}
	if pathShare(st, 1) == 0 {
		t.Fatal("slow path completely starved")
	}
}

func TestLateFractionMonotoneInTau(t *testing.T) {
	// Constrained aggregate bandwidth: some packets are late at small τ.
	cfg := VideoConfig{Mu: 100, Duration: 60 * sim.Second}
	s, st := twoPathStream(4, cfg, [2]float64{0.7, 0.7}, [2]sim.Time{30 * sim.Millisecond, 30 * sim.Millisecond}, 30)
	st.Start()
	s.Run(300 * sim.Second)
	prev := 1.1
	for _, tau := range []float64{0.5, 1, 2, 4, 8, 16, 32} {
		pb, _ := st.Trace().LateFraction(tau)
		if pb > prev+1e-12 {
			t.Fatalf("late fraction increased with tau at %v: %v > %v", tau, pb, prev)
		}
		prev = pb
	}
}

func TestArrivalOrderCloseToPlaybackOrder(t *testing.T) {
	// The paper's Fig 4(a)/5(a) claim: playing in arrival order yields nearly
	// the same late fraction as true playback order.
	cfg := VideoConfig{Mu: 50, Duration: 120 * sim.Second}
	s, st := twoPathStream(5, cfg, [2]float64{1.0, 0.6}, [2]sim.Time{20 * sim.Millisecond, 60 * sim.Millisecond}, 40)
	st.Start()
	s.Run(400 * sim.Second)
	for _, tau := range []float64{4, 6, 8, 10} {
		pb, ao := st.Trace().LateFraction(tau)
		diff := pb - ao
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.05 && (pb < 10*ao || ao < 10*pb) == false {
			t.Fatalf("tau=%v: playback %v vs arrival-order %v differ wildly", tau, pb, ao)
		}
	}
}

func TestArrivalLogTimeOrdered(t *testing.T) {
	cfg := VideoConfig{Mu: 50, Duration: 30 * sim.Second}
	s, st := twoPathStream(6, cfg, [2]float64{2, 0.5}, [2]sim.Time{10 * sim.Millisecond, 80 * sim.Millisecond}, 50)
	st.Start()
	s.Run(120 * sim.Second)
	byTime := func(a, b core.Arrival) int { return cmp.Compare(a.At, b.At) }
	if !slices.IsSortedFunc(st.Trace().Arrivals, byTime) {
		t.Fatal("arrival log out of time order")
	}
}

func TestReorderingObservedAcrossAsymmetricPaths(t *testing.T) {
	cfg := VideoConfig{Mu: 60, Duration: 60 * sim.Second}
	s, st := twoPathStream(7, cfg, [2]float64{2, 0.4}, [2]sim.Time{5 * sim.Millisecond, 150 * sim.Millisecond}, 50)
	st.Start()
	s.Run(300 * sim.Second)
	if st.Trace().ReorderCount() == 0 {
		t.Fatal("expected cross-path reordering on asymmetric paths")
	}
}

func TestSinglePathDegeneratesToTCPStreaming(t *testing.T) {
	s := sim.New(8)
	c := tcpsim.NewConn(s, 1, tcpsim.Config{})
	fwd := netsim.NewLink(s, "fwd", 5, 20*sim.Millisecond, 200, nil)
	rev := netsim.NewLink(s, "rev", 100, 20*sim.Millisecond, 1<<20, nil)
	c.Wire(netsim.NewPath(c.Rcv, fwd), netsim.NewPath(c.Snd, rev))
	st := New(s, VideoConfig{Mu: 50, Duration: 30 * sim.Second}, []*tcpsim.Conn{c})
	st.Start()
	s.Run(100 * sim.Second)
	if arrived := int64(len(st.Trace().Arrivals)); arrived != st.Generated() {
		t.Fatalf("single-path stream lost packets: %d/%d", arrived, st.Generated())
	}
	if share := pathShare(st, 0); share != 1.0 {
		t.Fatalf("share = %v", share)
	}
}

func TestQueueBacklogWhenUnderprovisioned(t *testing.T) {
	// Aggregate capacity below µ: the server queue must grow (live content
	// cannot be dropped by the server).
	cfg := VideoConfig{Mu: 200, Duration: 30 * sim.Second}
	s, st := twoPathStream(9, cfg, [2]float64{0.5, 0.5}, [2]sim.Time{20 * sim.Millisecond, 20 * sim.Millisecond}, 20)
	st.Start()
	s.Run(30 * sim.Second)
	if st.QueueLen() < 100 {
		t.Fatalf("queue backlog %d; expected large backlog at 2.4x overload", st.QueueLen())
	}
}

// pathShare is path k's fraction of the fetched packets.
func pathShare(st *Stream, k int) float64 {
	counts := st.PathCounts()
	var tot int64
	for _, c := range counts {
		tot += c
	}
	return float64(counts[k]) / float64(tot)
}

// refLog is the arrival record Stream kept before it wrote a core.Trace,
// with the late-fraction, required-delay and reorder analysis it ran on
// it: the reference the Trace's answers must equal exactly. It records
// deliveries itself, beside the Stream's own hook.
type refLog struct {
	mu       float64
	startAt  sim.Time
	arrivals []sim.Time // arrival time per packet number; -1 = not arrived
	log      []int64    // packet numbers in arrival order
	logAt    []sim.Time // their arrival times
}

func newRefLog(s *sim.Simulator, st *Stream, cfg VideoConfig, conns []*tcpsim.Conn) *refLog {
	r := &refLog{mu: cfg.Mu, arrivals: make([]sim.Time, int64(cfg.Duration.Seconds()*cfg.Mu))}
	for i := range r.arrivals {
		r.arrivals[i] = -1
	}
	for _, c := range conns {
		deliver := c.Rcv.OnDeliver
		c.Rcv.OnDeliver = func(seq int64, app any) {
			deliver(seq, app)
			pkt := app.(int64)
			if r.arrivals[pkt] < 0 {
				r.arrivals[pkt] = s.Now()
				r.log = append(r.log, pkt)
				r.logAt = append(r.logAt, s.Now())
			}
		}
	}
	r.startAt = s.Now()
	st.Start()
	return r
}

func (r *refLog) lateFraction(tau float64) (playback, arrivalOrder float64) {
	total := int64(len(r.arrivals))
	if total == 0 {
		return 0, 0
	}
	var latePB int64
	for i, at := range r.arrivals {
		deadline := r.startAt + sim.Seconds(float64(i)/r.mu+tau)
		if at < 0 || at > deadline {
			latePB++
		}
	}
	var lateAO int64
	for j, at := range r.logAt {
		deadline := r.startAt + sim.Seconds(float64(j)/r.mu+tau)
		if at > deadline {
			lateAO++
		}
	}
	lateAO += total - int64(len(r.logAt)) // missing packets are late
	return float64(latePB) / float64(total), float64(lateAO) / float64(total)
}

func (r *refLog) requiredDelay(quality float64) (delay float64, ok bool) {
	n := len(r.arrivals)
	if n == 0 {
		return 0, true
	}
	slacks := make([]float64, 0, n)
	missing := 0
	for i, at := range r.arrivals {
		if at < 0 {
			missing++
			continue
		}
		gen := r.startAt + sim.Seconds(float64(i)/r.mu)
		slacks = append(slacks, (at - gen).Seconds())
	}
	budget := int(quality * float64(n))
	if missing > budget {
		return 0, false
	}
	sort.Float64s(slacks)
	idx := len(slacks) - 1 - (budget - missing)
	if idx < 0 {
		return 0, true
	}
	return max(slacks[idx], 0), true
}

func (r *refLog) outOfOrder() int64 {
	var n int64
	maxSeen := int64(-1)
	for _, pkt := range r.log {
		if pkt < maxSeen {
			n++
		} else {
			maxSeen = pkt
		}
	}
	return n
}

// TestTraceMatchesReference runs seeded simulations — lossless, congested,
// asymmetric, behind a loaded dumbbell, and one stopped long before its
// drain with most packets missing — and requires every Trace answer to equal
// the reference analysis exactly.
func TestTraceMatchesReference(t *testing.T) {
	type run struct {
		name  string
		seed  int64
		cfg   VideoConfig
		build func(s *sim.Simulator) []*tcpsim.Conn
		until sim.Time
	}
	direct := func(rates [2]float64, delays [2]sim.Time, buf int) func(*sim.Simulator) []*tcpsim.Conn {
		return func(s *sim.Simulator) []*tcpsim.Conn {
			var conns []*tcpsim.Conn
			for k := 0; k < 2; k++ {
				c := tcpsim.NewConn(s, netsim.FlowID(k+1), tcpsim.Config{})
				fwd := netsim.NewLink(s, "fwd", rates[k], delays[k], buf, nil)
				rev := netsim.NewLink(s, "rev", 100, delays[k], 1<<20, nil)
				c.Wire(netsim.NewPath(c.Rcv, fwd), netsim.NewPath(c.Snd, rev))
				conns = append(conns, c)
			}
			return conns
		}
	}
	dumbbell := func(s *sim.Simulator) []*tcpsim.Conn {
		var next netsim.FlowID = 10
		var conns []*tcpsim.Conn
		for k, red := range []bool{false, true} {
			attach := Dumbbell(s, 1.5, 20*sim.Millisecond, 30, red, 2, 8, &next)
			c := tcpsim.NewConn(s, netsim.FlowID(k+1), tcpsim.Config{})
			attach(netsim.FlowID(k+1), c)
			conns = append(conns, c)
		}
		return conns
	}
	runs := []run{
		{"lossless", 1, VideoConfig{Mu: 50, Duration: 30 * sim.Second},
			direct([2]float64{10, 10}, [2]sim.Time{20 * sim.Millisecond, 20 * sim.Millisecond}, 1000), 120 * sim.Second},
		{"congested", 4, VideoConfig{Mu: 100, Duration: 60 * sim.Second},
			direct([2]float64{0.7, 0.7}, [2]sim.Time{30 * sim.Millisecond, 30 * sim.Millisecond}, 30), 300 * sim.Second},
		{"asymmetric", 7, VideoConfig{Mu: 60, Duration: 60 * sim.Second},
			direct([2]float64{2, 0.4}, [2]sim.Time{5 * sim.Millisecond, 150 * sim.Millisecond}, 50), 300 * sim.Second},
		{"dumbbell", 11, VideoConfig{Mu: 30, Duration: 60 * sim.Second}, dumbbell, 200 * sim.Second},
		{"cut short", 9, VideoConfig{Mu: 200, Duration: 30 * sim.Second},
			direct([2]float64{0.5, 0.5}, [2]sim.Time{20 * sim.Millisecond, 20 * sim.Millisecond}, 20), 30 * sim.Second},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			s := sim.New(r.seed)
			conns := r.build(s)
			st := New(s, r.cfg, conns)
			ref := newRefLog(s, st, r.cfg, conns)
			s.Run(r.until)
			tr := st.Trace()
			if r.name == "cut short" && len(tr.Missing()) == 0 {
				t.Fatal("the cut-short run delivered every packet")
			}
			for tau := 0.0; tau <= 40; tau += 0.25 {
				pb, ao := tr.LateFraction(tau)
				wantPB, wantAO := ref.lateFraction(tau)
				if pb != wantPB || ao != wantAO {
					t.Fatalf("tau=%v: trace %v/%v, reference %v/%v", tau, pb, ao, wantPB, wantAO)
				}
			}
			for _, q := range []float64{0, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.5, 1} {
				d, ok := tr.RequiredDelay(q)
				want, wantOK := ref.requiredDelay(q)
				if ok != wantOK || d != time.Duration(want*float64(time.Second)) {
					t.Fatalf("quality %v: trace %v/%v, reference %vs/%v", q, d, ok, want, wantOK)
				}
			}
			if got, want := tr.ReorderCount(), ref.outOfOrder(); got != want {
				t.Fatalf("reorder count %d, reference %d", got, want)
			}
			// A path delivers what it fetched once the stream has drained.
			delivered, fetched := tr.PathCounts(len(conns)), st.PathCounts()
			for k := range fetched {
				if delivered[k] > fetched[k] || len(tr.Missing()) == 0 && delivered[k] != fetched[k] {
					t.Fatalf("path %d delivered %d of the %d packets it fetched", k, delivered[k], fetched[k])
				}
			}
		})
	}
}

func TestNewRejectsUnnumberableStreams(t *testing.T) {
	s := sim.New(1)
	conns := []*tcpsim.Conn{tcpsim.NewConn(s, 1, tcpsim.Config{})}
	for _, cfg := range []VideoConfig{
		{Mu: 0, Duration: sim.Second},
		{Mu: math.NaN(), Duration: sim.Second},
		{Mu: 1e300, Duration: sim.Second},
		{Mu: float64(core.EndMarker), Duration: sim.Second},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted µ=%v over %v", cfg.Mu, cfg.Duration)
				}
			}()
			New(s, cfg, conns)
		}()
	}
}
