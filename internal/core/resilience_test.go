package core

import (
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmpstream/internal/emunet"
	"dmpstream/internal/wire"
)

// host serves a Session behind a real listener, attaching every accepted
// connection as a new path — the minimal server-side re-attach loop (core
// cannot import hub, whose Attach does the same keyed by token). With
// useJoin it consumes the DMPJ handshake first, and kills lets it close the
// first N connections right after their handshake, modeling a path that
// dies mid-join.
type host struct {
	t    *testing.T
	ln   net.Listener
	srv  *Server
	sess *Session

	useJoin bool
	mu      sync.Mutex
	kills   int // guarded by mu

	wg sync.WaitGroup
}

func startHost(t *testing.T, cfg wire.Config, useJoin bool, kills int) *host {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &host{t: t, ln: ln, srv: srv, sess: srv.Start(), useJoin: useJoin, kills: kills}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.acceptLoop()
	}()
	return h
}

func (h *host) acceptLoop() {
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return
		}
		if h.useJoin {
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := wire.ReadJoin(conn); err != nil {
				conn.Close()
				continue
			}
			conn.SetReadDeadline(time.Time{})
		}
		h.mu.Lock()
		kill := h.kills > 0
		if kill {
			h.kills--
		}
		h.mu.Unlock()
		if kill {
			conn.Close() // dies between the DMPJ handshake and the header
			continue
		}
		h.sess.AddPath(conn)
	}
}

// finish stops accepting and joins the session; call after the client is done.
func (h *host) finish() (int64, error) {
	h.ln.Close()
	h.wg.Wait()
	return h.sess.Wait()
}

// faultCase is one scripted failure scenario: two paths, each through its
// own fault-capable relay, consumed by a redialing Client.
type faultCase struct {
	name    string
	cfg     wire.Config
	policy  RedialPolicy
	useJoin bool
	kills   int
	scripts [2]string        // per-path fault script on that path's relay
	closeAt [2]time.Duration // when to close a path's relay entirely (0 = never)

	minDowns int32   // at least this many OnPathDown events
	tau      float64 // startup delay for the late-fraction bound
	maxLate  float64 // playback-order late fraction must stay below this
}

func TestFaultScenarios(t *testing.T) {
	base := wire.Config{Mu: 200, PayloadSize: 100, Count: 600, // 3 s of stream
		WriteStallTimeout: 2 * time.Second, ResendWindow: 128}
	cases := []faultCase{
		{
			// A path is reset mid-stream and never redialed: the surviving
			// path must deliver the full stream, including the dead path's
			// requeued resend window.
			name:     "single-path-death",
			cfg:      base,
			policy:   RedialPolicy{}, // no redial
			scripts:  [2]string{"", "drop@500ms"},
			minDowns: 1,
			tau:      2.0, maxLate: 0.05,
		},
		{
			// Both paths die (staggered), both redial and recover. For a
			// moment no path exists at all; the queue buffers the stream
			// until the first redial lands.
			name:     "all-paths-flap",
			cfg:      base,
			policy:   RedialPolicy{Base: 300 * time.Millisecond, Multiplier: 1, Budget: 5, Seed: 7},
			scripts:  [2]string{"sever@600ms", "sever@900ms"},
			minDowns: 2,
			tau:      2.0, maxLate: 0.05,
		},
		{
			// The server closes a connection right after its DMPJ handshake;
			// the redial must attach a fresh path and the stream complete.
			name:     "death-during-handshake",
			cfg:      base,
			policy:   RedialPolicy{Base: 200 * time.Millisecond, Multiplier: 1, Budget: 4, Seed: 3},
			useJoin:  true,
			kills:    1,
			minDowns: 1,
			tau:      2.0, maxLate: 0.05,
		},
		{
			// A path dies and every redial fails (its relay is gone): the
			// budget must bound the attempts, and the surviving path still
			// conserves the stream.
			name:     "redial-exhausts-budget",
			cfg:      base,
			policy:   RedialPolicy{Base: 250 * time.Millisecond, Multiplier: 1, Budget: 2, Seed: 5},
			scripts:  [2]string{"", "sever@500ms"},
			closeAt:  [2]time.Duration{0, 600 * time.Millisecond},
			minDowns: 3, // the death plus two refused redials
			tau:      2.0, maxLate: 0.05,
		},
	}
	for _, fc := range cases {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			t.Parallel()
			runFaultScenario(t, fc)
		})
	}
}

func runFaultScenario(t *testing.T, fc faultCase) {
	h := startHost(t, fc.cfg, fc.useJoin, fc.kills)

	relays := make([]*emunet.Relay, 2)
	for i := range relays {
		r, err := emunet.Listen("127.0.0.1:0", h.ln.Addr().String(), emunet.PathConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		relays[i] = r
		if fc.scripts[i] != "" {
			evs, err := emunet.ParseFaultScript(fc.scripts[i])
			if err != nil {
				t.Fatal(err)
			}
			tl := r.Schedule(evs)
			defer tl.Stop()
		}
		if fc.closeAt[i] > 0 {
			r := r
			timer := time.AfterFunc(fc.closeAt[i], func() { r.Close() })
			defer timer.Stop()
		}
	}

	var downs atomic.Int32
	client := &Client{
		Dial:       func(k int) (net.Conn, error) { return net.Dial("tcp", relays[k].Addr()) },
		Paths:      2,
		Policy:     fc.policy,
		OnPathDown: func(int, error) { downs.Add(1) },
	}
	if fc.useJoin {
		tok, err := wire.NewToken()
		if err != nil {
			t.Fatal(err)
		}
		client.Join = &wire.Join{StreamID: "live", Token: tok}
	}

	tr, err := client.Run()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	n, _ := h.finish() // path errors on the server side are expected here
	if n != fc.cfg.Count {
		t.Fatalf("generated %d, want %d", n, fc.cfg.Count)
	}

	// Packet conservation: every generated packet arrived exactly once.
	if tr.Expected != fc.cfg.Count {
		t.Fatalf("trace expected %d, want %d", tr.Expected, fc.cfg.Count)
	}
	if missing := tr.Missing(); len(missing) != 0 {
		t.Fatalf("%d packets lost (first: %d)", len(missing), missing[0])
	}
	if int64(len(tr.Arrivals)) != fc.cfg.Count {
		t.Fatalf("%d arrivals for %d packets", len(tr.Arrivals), fc.cfg.Count)
	}

	// Bounded lateness: the failure may delay packets, but a startup delay
	// of tau seconds must still absorb almost all of it.
	if late, _ := tr.LateFraction(fc.tau); late > fc.maxLate {
		t.Fatalf("late fraction %.4f at tau=%gs exceeds %.4f", late, fc.tau, fc.maxLate)
	}
	if got := downs.Load(); got < fc.minDowns {
		t.Fatalf("OnPathDown fired %d times, want >= %d", got, fc.minDowns)
	}
}

// TestSeverRedialAcceptance is the issue's acceptance scenario: path 1 of
// two is severed at t=5s and redials (base backoff 5s, no jitter) land at
// t=10s. The stream must complete with zero lost packets, the late fraction
// must stay within 10 percentage points of a no-failure baseline, and two
// seeded runs must agree on every deterministic observable.
func TestSeverRedialAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("15s real-time scenario")
	}
	cfg := wire.Config{Mu: 40, PayloadSize: 200, Count: 600, // 15 s of stream
		WriteStallTimeout: 2 * time.Second, ResendWindow: 128}

	type outcome struct {
		tr       *Trace
		redials  []int     // OnPathUp attempt numbers, in order, per event
		reupAt   []float64 // seconds since start of each re-attach
		lateFrac float64
	}
	run := func(sever bool) outcome {
		h := startHost(t, cfg, false, 0)
		relay, err := emunet.Listen("127.0.0.1:0", h.ln.Addr().String(), emunet.PathConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer relay.Close()
		if sever {
			evs, err := emunet.ParseFaultScript("sever@5s")
			if err != nil {
				t.Fatal(err)
			}
			tl := relay.Schedule(evs)
			defer tl.Stop()
		}
		addrs := []string{h.ln.Addr().String(), relay.Addr()}
		var mu sync.Mutex
		var out outcome
		start := time.Now()
		client := &Client{
			Dial:   func(k int) (net.Conn, error) { return net.Dial("tcp", addrs[k]) },
			Paths:  2,
			Policy: RedialPolicy{Base: 5 * time.Second, Multiplier: 1, Jitter: 0, Budget: 3, Seed: 42},
			OnPathUp: func(path, attempt int) {
				if attempt > 0 {
					mu.Lock()
					out.redials = append(out.redials, attempt)
					out.reupAt = append(out.reupAt, time.Since(start).Seconds())
					mu.Unlock()
				}
			},
		}
		tr, err := client.Run()
		if err != nil {
			t.Errorf("client: %v", err)
		}
		if _, err := h.finish(); sever == (err == nil) {
			t.Errorf("server path errors: %v (sever=%v)", err, sever)
		}
		out.tr = tr
		out.lateFrac, _ = tr.LateFraction(2.0)
		return out
	}

	// Baseline and the two seeded fault runs are independent stacks; run
	// them concurrently so the test costs one 15 s stream, not three.
	var baseline, runA, runB outcome
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); baseline = run(false) }()
	go func() { defer wg.Done(); runA = run(true) }()
	go func() { defer wg.Done(); runB = run(true) }()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for name, o := range map[string]outcome{"baseline": baseline, "runA": runA, "runB": runB} {
		if o.tr.Expected != cfg.Count || int64(len(o.tr.Arrivals)) != cfg.Count {
			t.Fatalf("%s: %d/%d packets (expected field %d)", name, len(o.tr.Arrivals), cfg.Count, o.tr.Expected)
		}
		if missing := o.tr.Missing(); len(missing) != 0 {
			t.Fatalf("%s: %d packets lost", name, len(missing))
		}
	}
	for name, o := range map[string]outcome{"runA": runA, "runB": runB} {
		if len(o.redials) != 1 || o.redials[0] != 1 {
			t.Fatalf("%s: redial events %v, want exactly one first-attempt redial", name, o.redials)
		}
		// Death at t=5s plus the 5 s base backoff: the re-attach lands at
		// t=10s (allow slack for dial/handshake scheduling).
		if at := o.reupAt[0]; at < 9.5 || at > 12 {
			t.Fatalf("%s: re-attach at t=%.1fs, want ~10s", name, at)
		}
		if o.lateFrac > baseline.lateFrac+0.10 {
			t.Fatalf("%s: late fraction %.4f exceeds baseline %.4f + 10pp", name, o.lateFrac, baseline.lateFrac)
		}
	}
	// Determinism: the two seeded runs agree on every deterministic
	// observable (delivered set and count, redial count and sequence).
	if len(runA.tr.Arrivals) != len(runB.tr.Arrivals) {
		t.Fatalf("runs delivered %d vs %d packets", len(runA.tr.Arrivals), len(runB.tr.Arrivals))
	}
	seen := make(map[uint32]bool, len(runA.tr.Arrivals))
	for _, a := range runA.tr.Arrivals {
		seen[a.Pkt] = true
	}
	for _, a := range runB.tr.Arrivals {
		if !seen[a.Pkt] {
			t.Fatalf("runB delivered packet %d that runA did not", a.Pkt)
		}
	}
	if len(runA.redials) != len(runB.redials) {
		t.Fatalf("redial sequences differ: %v vs %v", runA.redials, runB.redials)
	}
}

// TestSessionChurnRace hammers one session with concurrent AddPath,
// RemovePath, path kills (client-side closes), state polling and Stop —
// meaningful under -race, where any unguarded state in the path lifecycle
// machinery shows up.
func TestSessionChurnRace(t *testing.T) {
	srv, err := NewServer(wire.Config{Mu: 500, PayloadSize: 50, ResendWindow: 32,
		WriteStallTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sess := srv.Start()

	var mu sync.Mutex
	var clientConns []net.Conn
	var drainers sync.WaitGroup

	addPath := func() int {
		c, s := tcpPair(t)
		k := sess.AddPath(s)
		mu.Lock()
		clientConns = append(clientConns, c)
		mu.Unlock()
		drainers.Add(1)
		go func() {
			defer drainers.Done()
			buf := make([]byte, 4096)
			for {
				c.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, err := c.Read(buf); err != nil {
					return
				}
			}
		}()
		return k
	}

	for i := 0; i < 4; i++ {
		addPath()
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(4)
	go func() { // churn: keep adding paths
		defer wg.Done()
		for i := 0; i < 12; i++ {
			select {
			case <-stop:
				return
			case <-time.After(40 * time.Millisecond):
				addPath()
			}
		}
	}()
	go func() { // churn: remove paths administratively
		defer wg.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			case <-time.After(90 * time.Millisecond):
				sess.RemovePath(k * 3)
			}
		}
	}()
	go func() { // churn: kill paths from the client side
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(110 * time.Millisecond):
				mu.Lock()
				if i*2 < len(clientConns) {
					clientConns[i*2].Close()
				}
				mu.Unlock()
			}
		}
	}()
	go func() { // observers
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				_ = sess.PathStates()
				_ = srv.PathCounts()
				_ = sess.PathState(1)
			}
		}
	}()

	time.Sleep(700 * time.Millisecond)
	srv.Stop()
	close(stop)
	wg.Wait()
	if _, err := sess.Wait(); err != nil {
		t.Logf("path errors during churn (expected): %v", err)
	}
	mu.Lock()
	for _, c := range clientConns {
		c.Close()
	}
	mu.Unlock()
	drainers.Wait()

	// Every path must have landed in a coherent terminal-or-live state.
	for k, st := range sess.PathStates() {
		switch st {
		case PathActive, PathDead, PathRemoved:
		default:
			t.Fatalf("path %d in impossible state %v", k, st)
		}
	}
}

// badRedialPolicies are policies no redial schedule can follow. Where Base
// is positive a Budget is set, so an engine that does not reject them still
// stops redialing.
var badRedialPolicies = []struct {
	name   string
	policy RedialPolicy
}{
	{"jitter above 1", RedialPolicy{Base: time.Millisecond, Jitter: 2, Budget: 2}},
	{"negative jitter", RedialPolicy{Base: time.Millisecond, Jitter: -0.5, Budget: 2}},
	{"NaN jitter", RedialPolicy{Base: time.Millisecond, Jitter: math.NaN(), Budget: 2}},
	{"negative base", RedialPolicy{Base: -time.Second}},
	{"negative max", RedialPolicy{Base: time.Millisecond, Max: -time.Second, Budget: 2}},
	{"negative budget", RedialPolicy{Budget: -1}},
	{"infinite multiplier", RedialPolicy{Base: time.Millisecond, Multiplier: math.Inf(1), Budget: 2}},
	{"NaN multiplier", RedialPolicy{Base: time.Millisecond, Multiplier: math.NaN(), Budget: 2}},
}

// TestRedialPolicyValidation: a policy no schedule can follow is refused
// before any path is dialed — with a Jitter above 1 the randomized backoff
// can be zero or negative and the engine would redial in a tight loop —
// and every path reports the error, as for a missing Dial.
func TestRedialPolicyValidation(t *testing.T) {
	for _, tc := range badRedialPolicies {
		var dials atomic.Int64
		c := &Client{
			Dial: func(int) (net.Conn, error) {
				dials.Add(1)
				return nil, errors.New("refused")
			},
			Paths:  2,
			Policy: tc.policy,
		}
		errs := c.RunWith(NewReceiver(ReceiverOptions{}))
		if n := dials.Load(); n != 0 {
			t.Errorf("%s: %d dials, want none", tc.name, n)
		}
		for k, err := range errs {
			if err == nil || !strings.Contains(err.Error(), "redial") {
				t.Errorf("%s: path %d error %v, want the policy's", tc.name, k, err)
			}
		}
		if ValidateRedialPolicy(tc.policy) == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	for _, ok := range []RedialPolicy{
		{},
		{Base: time.Millisecond, Max: time.Second, Multiplier: 0.5, Jitter: 1, Budget: 3},
		{Base: time.Millisecond, Multiplier: -1, Jitter: 0},
	} {
		if err := ValidateRedialPolicy(ok); err != nil {
			t.Errorf("%+v rejected: %v", ok, err)
		}
	}
}
