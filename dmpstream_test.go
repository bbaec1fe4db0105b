package dmpstream_test

import (
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"dmpstream"
)

func twoPathModel(ratio float64, mu float64) dmpstream.Model {
	// Build a homogeneous two-path model with aggregate throughput
	// ratio·mu by scaling the RTT (σ scales exactly as 1/RTT).
	ref := dmpstream.PathParams{LossRate: 0.02, RTT: 100 * time.Millisecond, TimeoutRatio: 4}
	sigma, err := dmpstream.PathThroughput(ref)
	if err != nil {
		panic(err)
	}
	// Want per-path σ' = ratio·mu/2: RTT' = RTT·σ/σ'.
	ref.RTT = time.Duration(float64(ref.RTT) * sigma / (ratio * mu / 2))
	return dmpstream.Model{Paths: []dmpstream.PathParams{ref, ref}, PlaybackRate: mu, Seed: 1}
}

func TestHeadlineResultMultipathAt1_6(t *testing.T) {
	// The paper's headline: two paths at sigma_a/mu = 1.6 reach satisfactory
	// quality (late fraction < 1e-4) with a startup delay around 10 seconds.
	m := twoPathModel(1.6, 25)
	agg, err := m.AggregateThroughput()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(agg/25-1.6) > 0.01 {
		t.Fatalf("constructed ratio %v", agg/25)
	}
	delay, ok, err := m.RequiredStartupDelay(1e-4, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no feasible startup delay at sigma_a/mu = 1.6")
	}
	if delay > 30*time.Second {
		t.Fatalf("required delay %v; paper reports around 10s", delay)
	}
}

func TestMultipathBeatsSinglePathAtEqualAggregate(t *testing.T) {
	// Single-path TCP streaming needs sigma/mu ≈ 2; multipath gets away with
	// 1.6. At an aggregate ratio of 1.5 the single path should need a larger
	// buffer than the two-path split, or fail outright.
	const mu = 25
	dual := twoPathModel(1.5, mu)
	ref := dual.Paths[0]
	ref.RTT /= 2 // one path with the full aggregate throughput
	single := dmpstream.Model{Paths: []dmpstream.PathParams{ref}, PlaybackRate: mu, Seed: 1}

	dualDelay, dualOK, err := dual.RequiredStartupDelay(1e-3, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	singleDelay, singleOK, err := single.RequiredStartupDelay(1e-3, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !dualOK {
		t.Fatal("two paths infeasible at ratio 1.5")
	}
	if singleOK && singleDelay < dualDelay {
		t.Fatalf("single path (%v) beat two paths (%v) at equal aggregate throughput",
			singleDelay, dualDelay)
	}
}

func TestIntroQuestionTwoHalfPaths(t *testing.T) {
	// Paper intro question (i): two paths with half the throughput each can
	// replace one full path.
	const mu = 50
	full := twoPathModel(2.0, mu) // per-path σ = mu
	half := full.Paths[0]
	single := dmpstream.Model{Paths: []dmpstream.PathParams{half}, PlaybackRate: mu, Seed: 1}
	singleF, err := single.FractionLate(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	dualF, err := full.FractionLate(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The single half-path has sigma/mu = 1 and must be bad; the pair works.
	if singleF < 0.01 {
		t.Fatalf("single half-path late fraction %v; expected severe lateness", singleF)
	}
	if dualF > 1e-3 {
		t.Fatalf("two half-paths late fraction %v; expected satisfactory", dualF)
	}
}

func TestModelValidation(t *testing.T) {
	bad := []dmpstream.Model{
		{Paths: nil, PlaybackRate: 10},
		{Paths: []dmpstream.PathParams{{LossRate: 0.02, RTT: time.Second, TimeoutRatio: 4}}, PlaybackRate: 0},
		{Paths: []dmpstream.PathParams{{LossRate: 0, RTT: time.Second, TimeoutRatio: 4}}, PlaybackRate: 10},
		// Non-finite inputs used to pass: a NaN rate never consumes, so
		// FractionLate spun forever.
		{Paths: []dmpstream.PathParams{{LossRate: 0.02, RTT: time.Second, TimeoutRatio: 4}}, PlaybackRate: math.NaN()},
		{Paths: []dmpstream.PathParams{{LossRate: 0.02, RTT: time.Second, TimeoutRatio: 4}}, PlaybackRate: math.Inf(1)},
		{Paths: []dmpstream.PathParams{{LossRate: math.NaN(), RTT: time.Second, TimeoutRatio: 4}}, PlaybackRate: 10},
		{Paths: []dmpstream.PathParams{{LossRate: 0.02, RTT: 0, TimeoutRatio: 4}}, PlaybackRate: 10},
		{Paths: []dmpstream.PathParams{{LossRate: 0.02, RTT: -time.Second, TimeoutRatio: 4}}, PlaybackRate: 10},
		{Paths: []dmpstream.PathParams{{LossRate: 0.02, RTT: time.Second, TimeoutRatio: math.Inf(1)}}, PlaybackRate: 10},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %d passed Validate", i)
		}
		if _, err := m.FractionLate(5 * time.Second); err == nil {
			t.Errorf("model %d accepted", i)
		}
	}
}

func TestSimulateStreamingDeterministic(t *testing.T) {
	paths := []dmpstream.SimPath{
		{BottleneckMbps: 2, OneWayDelay: 20 * time.Millisecond, BufferPkts: 40, FTPFlows: 3, HTTPFlows: 5},
		{BottleneckMbps: 1, OneWayDelay: 40 * time.Millisecond, BufferPkts: 30, FTPFlows: 2, HTTPFlows: 5},
	}
	a, err := dmpstream.SimulateStreaming(paths, 40, 60*time.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dmpstream.SimulateStreaming(paths, 40, 60*time.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Generated != b.Generated || a.Arrived != b.Arrived ||
		a.PathCounts[0] != b.PathCounts[0] || a.PathCounts[1] != b.PathCounts[1] {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	pa, _ := a.LateFraction(5)
	pb, _ := b.LateFraction(5)
	if pa != pb {
		t.Fatalf("late fractions diverged: %v vs %v", pa, pb)
	}
	if a.Generated != 2400 {
		t.Fatalf("generated %d, want 2400", a.Generated)
	}
	if a.Arrived != a.Generated {
		t.Fatalf("TCP lost packets: %d/%d", a.Arrived, a.Generated)
	}
	// Values captured before the simulator wrote a core.Trace; nothing in
	// the simulated path or its analysis may move them.
	for _, tau := range []float64{4, 6, 8, 10} {
		if pb, ao := a.LateFraction(tau); pb != 0 || ao != 0 {
			t.Errorf("tau=%v: late %v/%v, pinned 0/0", tau, pb, ao)
		}
	}
	if d, ok := dmpstream.SimTrace(a).RequiredDelay(0.01); !ok || d != 1344726400 {
		t.Errorf("delay for 1%% late %v (ok=%v), pinned 1.3447264s", d, ok)
	}
	if a.PathCounts[0] != 1378 || a.PathCounts[1] != 1022 {
		t.Errorf("path counts %v, pinned [1378 1022]", a.PathCounts)
	}
}

func TestSimulateStreamingValidation(t *testing.T) {
	good := dmpstream.SimPath{BottleneckMbps: 1, BufferPkts: 10}
	with := func(edit func(*dmpstream.SimPath)) []dmpstream.SimPath {
		p := good
		edit(&p)
		return []dmpstream.SimPath{good, p}
	}
	for _, c := range []struct {
		name  string
		paths []dmpstream.SimPath
		rate  float64
		dur   time.Duration
	}{
		{"no paths", nil, 10, time.Second},
		{"zero rate", []dmpstream.SimPath{good}, 0, time.Second},
		{"NaN rate", []dmpstream.SimPath{good}, math.NaN(), time.Second},
		{"infinite rate", []dmpstream.SimPath{good}, math.Inf(1), time.Second},
		{"zero duration", []dmpstream.SimPath{good}, 10, 0},
		{"packets past the end marker", []dmpstream.SimPath{good}, 1e300, time.Second},
		{"zero bottleneck", with(func(p *dmpstream.SimPath) { p.BottleneckMbps = 0 }), 10, time.Second},
		{"NaN bottleneck", with(func(p *dmpstream.SimPath) { p.BottleneckMbps = math.NaN() }), 10, time.Second},
		{"infinite bottleneck", with(func(p *dmpstream.SimPath) { p.BottleneckMbps = math.Inf(1) }), 10, time.Second},
		{"zero buffer", with(func(p *dmpstream.SimPath) { p.BufferPkts = 0 }), 10, time.Second},
		{"negative delay", with(func(p *dmpstream.SimPath) { p.OneWayDelay = -time.Millisecond }), 10, time.Second},
		{"negative FTP flows", with(func(p *dmpstream.SimPath) { p.FTPFlows = -1 }), 10, time.Second},
		{"negative HTTP flows", with(func(p *dmpstream.SimPath) { p.HTTPFlows = -1 }), 10, time.Second},
	} {
		if _, err := dmpstream.SimulateStreaming(c.paths, c.rate, c.dur, 1); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestRealStreamingEndToEnd(t *testing.T) {
	srv, err := dmpstream.NewServer(dmpstream.StreamConfig{Rate: 500, PayloadSize: 100, Count: 400})
	if err != nil {
		t.Fatal(err)
	}
	serverConns := make([]net.Conn, 2)
	clientConns := make([]net.Conn, 2)
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		acc := make(chan net.Conn, 1)
		go func() {
			c, err := ln.Accept()
			if err == nil {
				acc <- c
			}
		}()
		clientConns[i], err = net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		serverConns[i] = <-acc
		ln.Close()
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := srv.Serve(serverConns); err != nil {
			t.Errorf("serve: %v", err)
		}
		for _, c := range serverConns {
			c.Close()
		}
	}()
	trace, err := dmpstream.Receive(clientConns)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if trace.Expected != 400 || int64(len(trace.Arrivals)) != 400 {
		t.Fatalf("trace %d/%d", len(trace.Arrivals), trace.Expected)
	}
	if pb, ao := trace.LateFraction(2); pb != 0 || ao != 0 {
		t.Fatalf("late on loopback: %v %v", pb, ao)
	}
	counts := srv.PathCounts()
	if counts[0]+counts[1] != 400 {
		t.Fatalf("path counts %v", counts)
	}
}

func TestHubBroadcastFacade(t *testing.T) {
	h, err := dmpstream.NewHub(dmpstream.HubConfig{
		Rate:        500,
		PayloadSize: 100,
		Count:       300,
		StreamID:    "facade",
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go h.Serve(ln)

	const subs = 2
	traces := make([]*dmpstream.Trace, subs)
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		conns, err := dmpstream.DialStream(
			[]string{ln.Addr().String(), ln.Addr().String()}, "facade")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, conns []net.Conn) {
			defer wg.Done()
			tr, err := dmpstream.Receive(conns)
			if err != nil {
				t.Errorf("subscriber %d: %v", i, err)
			}
			for _, c := range conns {
				c.Close()
			}
			traces[i] = tr
		}(i, conns)
	}
	wg.Wait()
	h.Stop()
	h.Wait()

	var sent int64
	for i, tr := range traces {
		if tr == nil {
			t.Fatalf("subscriber %d: no trace", i)
		}
		if int64(len(tr.Arrivals)) != tr.Expected || tr.Expected == 0 {
			t.Fatalf("subscriber %d: %d/%d", i, len(tr.Arrivals), tr.Expected)
		}
		sent += int64(len(tr.Arrivals))
	}
	st := h.Stats()
	if st.Sent != sent {
		t.Fatalf("hub reports %d sent, subscribers received %d", st.Sent, sent)
	}
	if st.Generated != 300 {
		t.Fatalf("generated %d", st.Generated)
	}
	if st.Dropped != 0 || st.Evicted != 0 {
		t.Fatalf("unexpected drops/evictions: %+v", st)
	}
}

func TestPathThroughputScaling(t *testing.T) {
	a, err := dmpstream.PathThroughput(dmpstream.PathParams{LossRate: 0.02, RTT: 100 * time.Millisecond, TimeoutRatio: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := dmpstream.PathThroughput(dmpstream.PathParams{LossRate: 0.02, RTT: 200 * time.Millisecond, TimeoutRatio: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a/b-2) > 1e-9 {
		t.Fatalf("σ(100ms)/σ(200ms) = %v, want 2", a/b)
	}
}

// TestFacadeRejectsBadConfig: the façade's constructors refuse what the
// layers beneath them refuse — a redial policy no schedule can follow, and
// a negative join timeout, which is an error rather than "no timeout".
func TestFacadeRejectsBadConfig(t *testing.T) {
	for _, p := range []dmpstream.RedialPolicy{
		{Base: time.Millisecond, Jitter: 2},
		{Base: time.Millisecond, Jitter: -1},
		{Base: -time.Second},
		{Max: -time.Second},
		{Budget: -1},
		{Base: time.Millisecond, Multiplier: math.NaN()},
	} {
		if _, err := dmpstream.NewStreamClient([]string{"127.0.0.1:1"}, "live", p); err == nil {
			t.Errorf("NewStreamClient accepted redial policy %+v", p)
		}
	}
	// A rate the generator cannot pace or the stream header cannot carry.
	for _, rate := range []float64{math.NaN(), math.Inf(1), 1e-7, 2e9} {
		if _, err := dmpstream.NewServer(dmpstream.StreamConfig{Rate: rate}); err == nil {
			t.Errorf("NewServer accepted Rate %v", rate)
		}
		if h, err := dmpstream.NewHub(dmpstream.HubConfig{Rate: rate}); err == nil {
			h.Close()
			t.Errorf("NewHub accepted Rate %v", rate)
		}
	}
	if h, err := dmpstream.NewHub(dmpstream.HubConfig{Rate: 10, JoinTimeout: -time.Second}); err == nil {
		h.Close()
		t.Error("NewHub accepted a negative JoinTimeout")
	}
	if r, err := dmpstream.NewRegistry(dmpstream.RegistryConfig{Stream: dmpstream.HubConfig{Rate: 10}, JoinTimeout: -time.Second}); err == nil {
		r.Close()
		t.Error("NewRegistry accepted a negative JoinTimeout")
	}
}
