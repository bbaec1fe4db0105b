// Package chaos is the randomized soak harness for the broadcast stack:
// it stands up a real origin, drives a seeded schedule of churn and faults
// against it, and checks invariants after every event.
//
// One harness covers every topology. The origin is always a stream
// registry serving Config.Streams live streams; Config.Depth tiers of edge
// relays hang under stream 0. A single hub is {Streams: 1, Depth: 0}. Two
// emunet fault relays front the origin, and every conserving subscriber's
// paths cross them: the stayers (two per stream) dial them directly, and
// each tier-1 relay ranks one first.
//
// The client populations:
//
//   - Stayers subscribe for the whole run with a redial policy and must end
//     with a perfectly conserved stream despite drops, severs and stalls on
//     their paths — including the stayers of a stream ended mid-run.
//   - Leaves (Depth > 0) join the deepest relay tier with origin-absolute
//     numbering, dual-homed on two relays, and must conserve the stream from
//     their first packet through relay kills and restarts.
//   - Churn joiners (Depth == 0) join directly: leavers read a while and
//     hang up abruptly; burst joiners arrive together against the admission
//     caps and must each see the stream header or a typed DMPR reject.
//   - The hog (Depth == 0) joins and never reads, so the resource
//     governor's degradation ladder runs against it for the whole soak.
//
// Plan draws the whole schedule from Config.Seed before the run starts, so
// a schedule is data: the same seed always yields the same events (their
// outcomes still meet kernel scheduling, which the invariants tolerate).
// At teardown the harness drains the origin (asserting the draining reject
// on a late join), judges every conserving subscriber, and requires the
// process's goroutine count to settle back to its baseline.
package chaos

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmpstream/internal/core"
	"dmpstream/internal/emunet"
	"dmpstream/internal/hub"
	"dmpstream/internal/registry"
	"dmpstream/internal/relay"
)

// Config parameterizes one soak run. The zero value of every field picks
// a sensible default.
type Config struct {
	// Seed drives every random decision of the run. Same seed, same plan.
	Seed int64
	// Duration is how long the schedule runs (teardown and drain come
	// after). Default 5s.
	Duration time.Duration
	// Streams is how many live streams the origin registry serves.
	// Default 1; with more, the last one ends mid-run.
	Streams int
	// Depth is how many relay tiers hang under stream 0. Default 0.
	Depth int
	// MaxBytes is each origin stream's resource-governor budget. Default
	// 96 KiB; negative for unlimited.
	MaxBytes int64
	// Logf, when set, receives verbose progress lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Duration == 0 {
		c.Duration = 5 * time.Second
	}
	c.Streams = max(c.Streams, 1)
	c.Depth = max(c.Depth, 0)
	if c.MaxBytes == 0 {
		c.MaxBytes = 96 << 10
	}
	c.MaxBytes = max(c.MaxBytes, 0)
	return c
}

// The fixed shape of every run.
const (
	rate             = 300  // packets/second on every origin stream
	payload          = 64   // bytes per packet
	lagWindow        = 2048 // ring size of every hub
	burstSize        = 6    // joiners per overload burst
	stayersPerStream = 2
	leaves           = 4       // subscribers under the deepest relay tier
	relaysPerTier    = 2       // also the origin's fault relays: one per tier-1 relay
	relayMaxBytes    = 4 << 20 // every relay hub's byte budget
	// hubMaxSubs caps each origin stream: its stayers, the hog and three
	// churn joiners, so a burst overflows it.
	hubMaxSubs = stayersPerStream + 4
)

// regMaxSubs is the registry-wide cap: the same headroom over all stayers.
func regMaxSubs(streams int) int { return streams*stayersPerStream + 4 }

// Verdict is one conserving subscriber's end state.
type Verdict struct {
	Name     string
	Received int64  // distinct packets delivered
	Expected int64  // end-marker head
	MinPkt   int64  // first packet delivered (-1: none)
	BadBytes int64  // packets off the origin's payload or numbering
	Err      string // a path's final error, informational once conservation holds
}

// RelayReport is one relay slot's end state.
type RelayReport struct {
	Name     string
	Restarts int         // kill/restart events the slot absorbed
	Final    relay.Stats // last incarnation's snapshot after the drain (want State ended)
}

// Report is the outcome of a soak run. A run passed iff Violations is
// empty.
type Report struct {
	Seed            int64
	Streams         int
	Depth           int
	Events          int   // plan events executed
	Faults          int   // drop, sever and stall events on the fault relays
	Kills           int   // relay kill/restart events
	Joins           int64 // churn joins admitted
	Leaves          int64 // churn joiners that read and hung up
	Rejected        int64 // churn joins answered with a typed reject
	Subscribers     []Verdict
	Relays          []RelayReport
	Final           registry.Stats // origin snapshot just before the drain
	Drained         bool
	GoroutinesStart int
	GoroutinesEnd   int
	Violations      []string
}

// slot is one position in the relay tree: its address and upstream ranking
// survive kill/restart, the relay incarnation behind them changes.
type slot struct {
	name      string
	addr      string   // stable listen address, rebound on restart
	upstreams []string // ranked candidates, stable across restarts
	token     core.Token
	seed      int64
	r         *relay.Relay
	ln        net.Listener
	restarts  int
}

// runner carries one run's state. Everything but the counters and the
// violations list is owned by the schedule goroutine.
type runner struct {
	cfg    Config
	rep    *Report
	reg    *registry.Registry
	addr   string   // origin listen address
	ids    []string // stream ids, index-aligned with event targets
	faults []*emunet.Relay
	slots  []*slot // tier-major
	subs   []*sub
	ended  int // index of the stream ended mid-run; -1 before

	prevHub   map[string]hub.Stats   // last snapshot per hub, this epoch
	prevRelay map[string]relay.Stats // last snapshot per relay, this epoch

	joins, leaves, rejected atomic.Int64
	probes                  sync.WaitGroup // churn joiners

	mu         sync.Mutex
	violations []string // guarded by mu
}

func newRunner(cfg Config) *runner {
	return &runner{
		cfg:       cfg.withDefaults(),
		rep:       &Report{},
		ended:     -1,
		prevHub:   make(map[string]hub.Stats),
		prevRelay: make(map[string]relay.Stats),
	}
}

// Run executes one soak. The returned error covers only setup failures
// (ports, attachment); everything the schedule uncovers lands in
// Report.Violations.
func Run(cfg Config) (*Report, error) {
	r := newRunner(cfg)
	cfg = r.cfg
	rep := r.rep
	rep.Seed, rep.Streams, rep.Depth = cfg.Seed, cfg.Streams, cfg.Depth
	rep.GoroutinesStart = runtime.NumGoroutine()
	plan := Plan(cfg)

	reg, err := registry.New(registry.Config{
		Hub: hub.Config{
			Stream:          core.Config{Mu: rate, PayloadSize: payload, Count: 1 << 40, Fill: fill},
			LagWindow:       lagWindow,
			Policy:          hub.DropOldest,
			PathWriteBuffer: 4096,
			ReattachGrace:   2 * time.Second,
			ResendWindow:    256,
			MaxSubscribers:  hubMaxSubs,
			MaxBytes:        cfg.MaxBytes,
			JoinTimeout:     2 * time.Second,
			// Poison released payload buffers so a zero-copy sender writing
			// through a stale pin turns into a counted PoisonTrip instead of
			// silent frame corruption; checkHub gates on the counters.
			PoisonPool: true,
		},
		MaxSubscribers: regMaxSubs(cfg.Streams),
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: registry: %w", err)
	}
	defer reg.Close()
	r.reg = reg
	for i := 0; i < cfg.Streams; i++ {
		id := fmt.Sprintf("chaos-%d", i)
		if _, err := reg.Create(id); err != nil {
			return nil, fmt.Errorf("chaos: create %s: %w", id, err)
		}
		r.ids = append(r.ids, id)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = reg.Serve(ln)
	}()
	r.addr = ln.Addr().String()

	for k := 0; k < relaysPerTier; k++ {
		f, err := emunet.Listen("127.0.0.1:0", r.addr, emunet.PathConfig{
			Downstream: true,
			Delay:      2 * time.Millisecond,
			Seed:       cfg.Seed + int64(k),
		})
		if err != nil {
			return nil, fmt.Errorf("chaos: fault relay %d: %w", k, err)
		}
		defer f.Close()
		r.faults = append(r.faults, f)
	}

	var hog net.Conn
	if cfg.Depth == 0 {
		// The hog joins and never reads another byte: a standing target for
		// the resource governor.
		if hog, err = r.join(r.ids[0]); err != nil {
			return nil, fmt.Errorf("chaos: hog join: %w", err)
		}
		defer hog.Close()
	} else {
		defer r.closeRelays()
		if err := r.buildTree(); err != nil {
			return nil, err
		}
	}

	for _, id := range r.ids {
		for j := 0; j < stayersPerStream; j++ {
			r.subscribe(fmt.Sprintf("stayer %s/%d", id, j), id, false, cfg.Seed+1000+int64(len(r.subs)),
				func(k int) (net.Conn, error) {
					return net.DialTimeout("tcp", r.faults[(j+k)%relaysPerTier].Addr(), 5*time.Second)
				})
		}
	}
	if cfg.Depth > 0 {
		bottom := r.slots[len(r.slots)-relaysPerTier:]
		for j := 0; j < leaves; j++ {
			r.subscribe(fmt.Sprintf("leaf %d", j), r.ids[0], true, cfg.Seed+2000+int64(j),
				func(k int) (net.Conn, error) {
					return net.DialTimeout("tcp", bottom[(j+k)%relaysPerTier].addr, 5*time.Second)
				})
		}
	}
	// The schedule runs against a known baseline: every conserving
	// subscriber already receiving.
	for _, s := range r.subs {
		if !poll(10*time.Second, func() bool { return s.seen.Load() > 0 }) {
			return nil, fmt.Errorf("chaos: %s never received a packet", s.name)
		}
	}

	r.logf("plan: %d events over %v", len(plan), cfg.Duration)
	start := time.Now()
	for _, ev := range plan {
		if d := time.Until(start.Add(ev.At)); d > 0 {
			time.Sleep(d)
		}
		r.logf("%8v %-8v %d", ev.At.Round(time.Millisecond), ev.Kind, ev.Target)
		r.exec(ev)
		rep.Events++
		r.checkInvariants()
	}

	// Teardown: the plan has lifted every stall; let the churn finish, then
	// drain. Admission must close with a typed verdict — any other outcome
	// of the probe, a failed dial included, is a violation — while the live
	// population finishes.
	r.probes.Wait()
	rep.Final = reg.Stats()
	reg.BeginDrain()
	conn, err := r.join(r.ids[0])
	if err == nil {
		_ = conn.Close()
	}
	if !errors.Is(err, core.ErrDraining) {
		r.violatef("join while draining: got %v, want ErrDraining", err)
	}
	if hog != nil {
		_ = hog.Close()
	}
	if rep.Drained = reg.Drain(10 * time.Second); !rep.Drained {
		r.violatef("origin drain missed its 10s deadline")
	}
	finish := time.Now().Add(15 * time.Second)
	for _, s := range r.subs {
		select {
		case out := <-s.out:
			rep.Subscribers = append(rep.Subscribers, r.verdict(s, out))
		case <-time.After(time.Until(finish)):
			r.violatef("%s never finished", s.name)
			rep.Subscribers = append(rep.Subscribers, Verdict{Name: s.name, MinPkt: -1, Err: "result timeout"})
		}
	}
	for _, s := range r.slots {
		st := s.r.Stats()
		if st.State != relay.StateEnded {
			r.violatef("%s finished in state %v, want ended", s.name, st.State)
		}
		rep.Relays = append(rep.Relays, RelayReport{Name: s.name, Restarts: s.restarts, Final: st})
	}

	// Full teardown, then the leak check: everything the run started must
	// be gone, or a long soak accumulates goroutines until it dies.
	r.closeRelays()
	reg.Close()
	<-serveDone
	for _, f := range r.faults {
		_ = f.Close()
	}
	poll(3*time.Second, func() bool {
		rep.GoroutinesEnd = runtime.NumGoroutine()
		return rep.GoroutinesEnd <= rep.GoroutinesStart+2
	})
	if rep.GoroutinesEnd > rep.GoroutinesStart+2 {
		r.violatef("goroutines leaked: %d at start, %d after teardown", rep.GoroutinesStart, rep.GoroutinesEnd)
	}

	rep.Joins, rep.Leaves, rep.Rejected = r.joins.Load(), r.leaves.Load(), r.rejected.Load()
	r.mu.Lock()
	rep.Violations = append(rep.Violations, r.violations...)
	r.mu.Unlock()
	return rep, nil
}

// exec performs one planned event.
func (r *runner) exec(ev Event) {
	switch ev.Kind {
	case Join:
		id, wantEnded := r.ids[ev.Target], ev.Target == r.ended
		r.probes.Add(1)
		go func() {
			defer r.probes.Done()
			r.probeJoin(id, ev.Hold, wantEnded)
		}()
	case Burst:
		id, wantEnded := r.ids[ev.Target], ev.Target == r.ended
		var burst sync.WaitGroup
		for i := 0; i < burstSize; i++ {
			burst.Add(1)
			go func() {
				defer burst.Done()
				r.probeJoin(id, 0, wantEnded)
			}()
		}
		burst.Wait()
	case Breather:
	case Drop:
		r.faults[ev.Target].Drop()
		r.rep.Faults++
	case Sever:
		r.faults[ev.Target].Sever()
		r.rep.Faults++
	case Stall:
		r.faults[ev.Target].Stall()
		r.rep.Faults++
	case Unstall:
		r.faults[ev.Target].Unstall()
	case Kill:
		r.restart(r.slots[ev.Target])
		r.rep.Kills++
	case End:
		if err := r.reg.End(r.ids[ev.Target]); err != nil {
			r.violatef("mid-run End(%s): %v", r.ids[ev.Target], err)
		}
		r.ended = ev.Target
	}
}

// subscribe starts one conserving two-path subscriber on stream id.
func (r *runner) subscribe(name, id string, absolute bool, seed int64, dial func(int) (net.Conn, error)) {
	s := &sub{name: name, absolute: absolute, out: make(chan outcome, 1)}
	join := &core.Join{StreamID: id, Token: newToken()}
	if absolute {
		join.Flags = core.JoinFlagAbsolute
	}
	cl := &core.Client{
		Paths: 2,
		Dial:  dial,
		Join:  join,
		Policy: core.RedialPolicy{
			Base: 50 * time.Millisecond, Max: 500 * time.Millisecond,
			Jitter: 0.3, Multiplier: 1.6, Seed: seed,
		},
	}
	rec := core.NewReceiver(core.ReceiverOptions{OnPacket: s.onPacket})
	go func() {
		errs := cl.RunWith(rec)
		s.out <- outcome{rec.Trace(), errs}
	}()
	r.subs = append(r.subs, s)
}

// join dials the origin directly and joins stream id with a fresh token,
// returning the open connection once admitted, or the handshake's outcome.
func (r *runner) join(id string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", r.addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if err := core.WriteJoin(conn, core.Join{StreamID: id, Token: newToken()}); err != nil {
		_ = conn.Close()
		return nil, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := core.ReadStreamHeader(conn); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return conn, nil
}

// probeJoin runs one churn client against stream id. wantEnded asserts the
// stream-ended reject (the stream was ended mid-run); otherwise the join
// must be admitted — then read for hold and hang up without ceremony — or
// carry a typed reject. Silence or a bare connection error is a violation
// either way: an overloaded origin must never answer a well-formed join so.
func (r *runner) probeJoin(id string, hold time.Duration, wantEnded bool) {
	conn, err := r.join(id)
	if conn != nil {
		defer conn.Close()
	}
	switch {
	case wantEnded:
		if !errors.Is(err, core.ErrStreamOver) {
			r.violatef("join to ended %s: got %v, want ErrStreamOver", id, err)
			return
		}
		r.rejected.Add(1)
	case err == nil:
		r.joins.Add(1)
		if hold > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(hold))
			buf := make([]byte, 4096)
			for {
				if _, err := conn.Read(buf); err != nil {
					break
				}
			}
			r.leaves.Add(1)
		}
	case errors.Is(err, core.ErrRejected):
		r.rejected.Add(1)
	default:
		r.violatef("join to %s got an untyped outcome: %v", id, err)
	}
}

// buildTree stands up Depth tiers of relays under stream 0, top-down. Every
// relay (and leaf) is dual-homed on two distinct parents, so a single kill
// or sever never cuts the only copy of the stream; tier-1 relay i ranks
// fault relay i first and the origin itself second.
func (r *runner) buildTree() error {
	for tier := 1; tier <= r.cfg.Depth; tier++ {
		parents := r.slots[max(0, len(r.slots)-relaysPerTier):]
		for i := 0; i < relaysPerTier; i++ {
			ups := []string{r.faults[i].Addr(), r.addr}
			if tier > 1 {
				ups = []string{parents[i].addr, parents[(i+1)%relaysPerTier].addr}
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return fmt.Errorf("chaos: relay listen: %w", err)
			}
			s := &slot{
				name:      fmt.Sprintf("relay t%d/%d", tier, i),
				addr:      ln.Addr().String(),
				upstreams: ups,
				token:     newToken(),
				seed:      r.cfg.Seed + int64(tier)*100 + int64(i),
				ln:        ln,
			}
			rl, err := r.newRelay(s)
			if err != nil {
				_ = ln.Close()
				return fmt.Errorf("chaos: %s: %w", s.name, err)
			}
			s.r = rl
			go func() { _ = rl.Serve(ln) }()
			r.slots = append(r.slots, s)
		}
	}
	for _, s := range r.slots {
		select {
		case <-s.r.Ready():
		case <-time.After(10 * time.Second):
			return fmt.Errorf("chaos: %s never saw its upstream", s.name)
		}
	}
	return nil
}

// newRelay builds one relay incarnation for a slot.
func (r *runner) newRelay(s *slot) (*relay.Relay, error) {
	return relay.New(relay.Config{
		Upstreams: s.upstreams,
		StreamID:  r.ids[0],
		Paths:     2,
		Token:     s.token,
		Redial: core.RedialPolicy{
			Base: 50 * time.Millisecond, Max: 400 * time.Millisecond,
			Jitter: 0.3, Multiplier: 1.6, Seed: s.seed,
		},
		// The orphan grace must never fire mid-soak: every fault here is
		// transient, and a premature orphan verdict would end the subtree.
		OrphanGrace:   30 * time.Second,
		ReorderWindow: 512,
		Hub: hub.Config{
			LagWindow:       lagWindow,
			PathWriteBuffer: 4096,
			ReattachGrace:   2 * time.Second,
			ResendWindow:    256,
			MaxBytes:        relayMaxBytes,
			JoinTimeout:     2 * time.Second,
			PoisonPool:      true,
		},
	})
}

// restart is the kill/restart event: the incarnation dies taking every
// connection with it, then a new one rebinds the same address with the
// same token — children and leaves redial the unchanged address, and the
// upstream re-attach (token preserved, inside the grace) replays the dead
// paths' resend windows.
func (r *runner) restart(s *slot) {
	s.r.Close()
	_ = s.ln.Close()
	var ln net.Listener
	var err error
	poll(2*time.Second, func() bool {
		ln, err = net.Listen("tcp", s.addr)
		return err == nil
	})
	if err != nil {
		r.violatef("%s: rebind %s: %v", s.name, s.addr, err)
		return
	}
	nr, err := r.newRelay(s)
	if err != nil {
		_ = ln.Close()
		r.violatef("%s: restart: %v", s.name, err)
		return
	}
	s.r, s.ln = nr, ln
	s.restarts++
	r.newEpoch(s.name)
	go func() { _ = nr.Serve(ln) }()
}

func (r *runner) closeRelays() {
	for _, s := range r.slots {
		s.r.Close()
		_ = s.ln.Close()
	}
}

// poll re-evaluates cond every few milliseconds until it holds or timeout
// passes, and reports whether it held.
func poll(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// newToken draws a token, panicking only if the OS entropy pool is broken.
func newToken() core.Token {
	tok, err := core.NewToken()
	if err != nil {
		panic(err)
	}
	return tok
}
