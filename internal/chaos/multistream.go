package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmpstream/internal/core"
	"dmpstream/internal/hub"
	"dmpstream/internal/registry"
)

// ChurnKind classifies one event of a churn schedule.
type ChurnKind int

const (
	// ChurnJoin: one subscriber joins the event's stream, reads for Hold,
	// and hangs up abruptly.
	ChurnJoin ChurnKind = iota
	// ChurnBurst: Size subscribers join the event's stream simultaneously
	// and hang up immediately — the overload shape.
	ChurnBurst
	// ChurnBreather: nothing joins; invariants are checked on a quiet
	// registry.
	ChurnBreather
)

func (k ChurnKind) String() string {
	switch k {
	case ChurnJoin:
		return "join"
	case ChurnBurst:
		return "burst"
	case ChurnBreather:
		return "breather"
	default:
		return fmt.Sprintf("churn(%d)", int(k))
	}
}

// ChurnEvent is one entry of a seeded churn schedule: at offset At from the
// schedule start, Kind happens against stream index Stream.
type ChurnEvent struct {
	At     time.Duration
	Stream int           // index into the run's stream id list
	Kind   ChurnKind     //
	Hold   time.Duration // ChurnJoin: how long the joiner reads before hanging up
	Size   int           // ChurnBurst: simultaneous joiners
}

// ChurnSchedule derives a deterministic multi-stream churn schedule from a
// seed: exponentially spaced events across duration d, each targeting one
// of streams stream indices. Same arguments, same schedule — the property
// the chaos soak leans on to make runs reproducible.
func ChurnSchedule(seed int64, d time.Duration, streams int, meanGap time.Duration) []ChurnEvent {
	if streams < 1 {
		streams = 1
	}
	if meanGap <= 0 {
		meanGap = 120 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(seed))
	var evs []ChurnEvent
	at := time.Duration(0)
	for {
		gap := time.Duration(rng.ExpFloat64() * float64(meanGap))
		if gap > time.Second {
			gap = time.Second
		}
		at += gap
		if at >= d {
			return evs
		}
		ev := ChurnEvent{At: at, Stream: rng.Intn(streams)}
		switch pick := rng.Intn(10); {
		case pick < 5:
			ev.Kind = ChurnJoin
			ev.Hold = time.Duration(50+rng.Intn(350)) * time.Millisecond
		case pick < 8:
			ev.Kind = ChurnBurst
			ev.Size = 4 + rng.Intn(5)
		default:
			ev.Kind = ChurnBreather
		}
		evs = append(evs, ev)
	}
}

// MultiConfig parameterizes one multi-stream soak run against a registry.
type MultiConfig struct {
	// Seed drives the churn schedule and every token draw.
	Seed int64
	// Duration is how long the churn schedule runs. Default 5s.
	Duration time.Duration
	// Streams is how many concurrent live streams the registry serves.
	// Default 4. Stream 0 is ended mid-run to prove per-stream lifecycle
	// independence, so conservation math needs Streams >= 2.
	Streams int
	// Mu is each stream's rate in packets/second. Default 300.
	Mu float64
	// Payload is the packet payload size in bytes. Default 64.
	Payload int
	// LagWindow is each hub's ring size. Default 2048.
	LagWindow int
	// MaxSubscribers caps admission registry-wide. Default
	// Streams*2+4 (the stayers plus churn headroom — bursts overflow it).
	// Set negative for unlimited.
	MaxSubscribers int
	// MaxBytes is each hub's resource-governor budget. Default 96 KiB.
	// Set negative for unlimited.
	MaxBytes int64
	// MeanGap is the mean pause between churn events. Default 120ms.
	MeanGap time.Duration
	// Logf, when set, receives verbose progress lines.
	Logf func(format string, args ...any)
}

func (c MultiConfig) withDefaults() MultiConfig {
	if c.Duration == 0 {
		c.Duration = 5 * time.Second
	}
	if c.Streams == 0 {
		c.Streams = 4
	}
	if c.Streams < 2 {
		c.Streams = 2
	}
	if c.Mu == 0 {
		c.Mu = 300
	}
	if c.Payload == 0 {
		c.Payload = 64
	}
	if c.LagWindow == 0 {
		c.LagWindow = 2048
	}
	if c.MaxSubscribers == 0 {
		c.MaxSubscribers = c.Streams*2 + 4
	}
	if c.MaxSubscribers < 0 {
		c.MaxSubscribers = 0
	}
	if c.MaxBytes == 0 {
		c.MaxBytes = 96 << 10
	}
	if c.MaxBytes < 0 {
		c.MaxBytes = 0
	}
	if c.MeanGap == 0 {
		c.MeanGap = 120 * time.Millisecond
	}
	return c
}

// MultiReport is the outcome of a multi-stream soak. The run passed iff
// Violations is empty.
type MultiReport struct {
	Seed            int64
	StreamIDs       []string // the ids served, index-aligned with the schedule
	EndedMid        string   // the stream ended mid-run (StreamIDs[0])
	Events          int      // churn events executed
	Joins           int64    // churn joins admitted
	Leaves          int64    // churn joiners that read and hung up
	Rejected        int64    // joins answered with a typed reject
	Stayers         map[string]StayerResult
	Final           registry.Stats // snapshot just before the registry drain
	Drained         bool
	GoroutinesStart int
	GoroutinesEnd   int
	Violations      []string
}

// multiRunner carries one multi-stream soak's state.
type multiRunner struct {
	cfg  MultiConfig
	reg  *registry.Registry
	addr string
	ids  []string

	joins    atomic.Int64
	leaves   atomic.Int64
	rejected atomic.Int64

	probes sync.WaitGroup

	mu         sync.Mutex
	violations []string // guarded by mu
}

func (r *multiRunner) violatef(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	r.violations = append(r.violations, msg)
	r.mu.Unlock()
	r.logf("VIOLATION: %s", msg)
}

func (r *multiRunner) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// RunMulti executes one multi-stream soak: a registry serving
// cfg.Streams concurrent live streams takes a seeded churn schedule of
// joins, leaves and bursts spread across the stream ids, stream 0 is ended
// mid-run, and per-stream conservation plus registry-wide invariants are
// checked throughout. The returned error covers only setup failures;
// everything the schedule uncovers lands in MultiReport.Violations.
func RunMulti(cfg MultiConfig) (*MultiReport, error) {
	cfg = cfg.withDefaults()
	r := &multiRunner{cfg: cfg}
	rep := &MultiReport{
		Seed:            cfg.Seed,
		Stayers:         make(map[string]StayerResult),
		GoroutinesStart: runtime.NumGoroutine(),
	}

	reg, err := registry.New(registry.Config{
		Hub: hub.Config{
			Stream:          core.Config{Mu: cfg.Mu, PayloadSize: cfg.Payload, Count: 1 << 40},
			LagWindow:       cfg.LagWindow,
			Policy:          hub.DropOldest,
			PathWriteBuffer: 4096,
			ReattachGrace:   time.Second,
			MaxBytes:        cfg.MaxBytes,
			JoinTimeout:     2 * time.Second,
			// Poison-on-put across every stream's pool: churn plus
			// re-attach replay is exactly the traffic that would surface
			// a stale zero-copy pin, and the counters make it loud.
			PoisonPool: true,
		},
		MaxSubscribers: cfg.MaxSubscribers,
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
	rep.StreamIDs = append(rep.StreamIDs, r.ids...)
	rep.EndedMid = r.ids[0]

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

	// One two-path stayer per stream; each must end with a perfectly
	// conserved stream — including the one whose stream is ended mid-run,
	// which must drain to a clean end marker early.
	type stayerOutcome struct {
		tr  *core.Trace
		err error
	}
	stayerCh := make([]chan stayerOutcome, cfg.Streams)
	for i := 0; i < cfg.Streams; i++ {
		ch := make(chan stayerOutcome, 1)
		stayerCh[i] = ch
		id := r.ids[i]
		cl := &core.Client{
			Paths: 2,
			Dial: func(int) (net.Conn, error) {
				return net.DialTimeout("tcp", r.addr, 5*time.Second)
			},
			Join: &core.Join{StreamID: id, Token: newToken()},
		}
		go func() {
			tr, err := cl.Run()
			ch <- stayerOutcome{tr, err}
		}()
	}
	settleDeadline := time.Now().Add(10 * time.Second)
	for {
		total := 0
		for _, st := range reg.Stats().Streams {
			total += st.Hub.Subscribers
		}
		if total >= cfg.Streams {
			break
		}
		if time.Now().After(settleDeadline) {
			return nil, fmt.Errorf("chaos: stayers failed to attach: %+v", reg.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Execute the seeded schedule. Halfway in, stream 0 is ended: from then
	// on its joins must answer stream-ended while the siblings keep taking
	// (and refusing) churn exactly as before.
	evs := ChurnSchedule(cfg.Seed, cfg.Duration, cfg.Streams, cfg.MeanGap)
	start := time.Now()
	half := cfg.Duration / 2
	ended := false
	prev := make(map[string]hub.Stats)
	for _, st := range reg.Stats().Streams {
		prev[st.ID] = st.Hub
	}
	for _, ev := range evs {
		if d := time.Until(start.Add(ev.At)); d > 0 {
			time.Sleep(d)
		}
		if !ended && time.Since(start) >= half {
			if err := reg.End(r.ids[0]); err != nil {
				r.violatef("mid-run End(%s): %v", r.ids[0], err)
			}
			delete(prev, r.ids[0])
			ended = true
			r.logf("ended %s mid-run", r.ids[0])
		}
		id := r.ids[ev.Stream]
		wantEnded := ended && ev.Stream == 0
		switch ev.Kind {
		case ChurnJoin:
			r.probes.Add(1)
			go func() {
				defer r.probes.Done()
				r.probeJoin(id, ev.Hold, wantEnded)
			}()
		case ChurnBurst:
			var burst sync.WaitGroup
			for i := 0; i < ev.Size; i++ {
				burst.Add(1)
				go func() {
					defer burst.Done()
					r.probeJoin(id, 0, wantEnded)
				}()
			}
			burst.Wait()
		case ChurnBreather:
		}
		rep.Events++
		prev = r.checkInvariants(prev)
	}
	r.probes.Wait()
	rep.Final = reg.Stats()

	// Graceful registry-wide drain: fresh joins answer draining, then every
	// live path gets its end marker.
	reg.BeginDrain()
	if err := r.probeOutcome(r.ids[1]); !errors.Is(err, core.ErrDraining) {
		r.violatef("join while draining: got %v, want ErrDraining", err)
	}
	rep.Drained = reg.Drain(10 * time.Second)
	if !rep.Drained {
		r.violatef("registry drain missed its 10s deadline")
	}
	for i, ch := range stayerCh {
		id := r.ids[i]
		select {
		case out := <-ch:
			rep.Stayers[id] = r.checkStayerTrace(id, out.tr, out.err)
		case <-time.After(15 * time.Second):
			r.violatef("stayer on %s never finished", id)
			rep.Stayers[id] = StayerResult{Err: "result timeout"}
		}
	}

	reg.Close()
	<-serveDone
	settleDeadline = time.Now().Add(3 * time.Second)
	for {
		rep.GoroutinesEnd = runtime.NumGoroutine()
		if rep.GoroutinesEnd <= rep.GoroutinesStart+2 || time.Now().After(settleDeadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if rep.GoroutinesEnd > rep.GoroutinesStart+2 {
		r.violatef("goroutines leaked: %d at start, %d after teardown",
			rep.GoroutinesStart, rep.GoroutinesEnd)
	}

	rep.Joins = r.joins.Load()
	rep.Leaves = r.leaves.Load()
	rep.Rejected = r.rejected.Load()
	r.mu.Lock()
	rep.Violations = append(rep.Violations, r.violations...)
	r.mu.Unlock()
	return rep, nil
}

// probeJoin runs one churn client against stream id. wantEnded asserts the
// join is answered with the stream-ended reject (the stream was ended
// mid-run); otherwise the join must be admitted or carry a typed reject —
// silence or a bare connection error is a violation either way.
func (r *multiRunner) probeJoin(id string, hold time.Duration, wantEnded bool) {
	conn, err := net.DialTimeout("tcp", r.addr, 5*time.Second)
	if err != nil {
		r.violatef("churn join dial: %v", err)
		return
	}
	defer conn.Close()
	if err := core.WriteJoin(conn, core.Join{StreamID: id, Token: newToken()}); err != nil {
		r.violatef("churn join write: %v", err)
		return
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, _, err = core.ReadStreamHeader(conn)
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
			conn.SetReadDeadline(time.Now().Add(hold))
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

// probeOutcome performs one join against id and returns the raw outcome.
func (r *multiRunner) probeOutcome(id string) error {
	conn, err := net.DialTimeout("tcp", r.addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := core.WriteJoin(conn, core.Join{StreamID: id, Token: newToken()}); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, _, err = core.ReadStreamHeader(conn)
	return err
}

// checkInvariants asserts the registry-wide guarantees against a fresh
// snapshot: every live hub under its byte budget, the registry-wide
// subscriber cap held, and no per-stream counter regressing while its
// stream lives. It returns the per-stream snapshots for the next round.
func (r *multiRunner) checkInvariants(prev map[string]hub.Stats) map[string]hub.Stats {
	st := r.reg.Stats()
	total := 0
	next := make(map[string]hub.Stats, len(st.Streams))
	for _, ss := range st.Streams {
		total += ss.Hub.Subscribers
		if r.cfg.MaxBytes > 0 && ss.Hub.BytesHeld > r.cfg.MaxBytes {
			r.violatef("%s: BytesHeld %d exceeds MaxBytes %d", ss.ID, ss.Hub.BytesHeld, r.cfg.MaxBytes)
		}
		if p, ok := prev[ss.ID]; ok {
			if ss.Hub.Generated < p.Generated || ss.Hub.Sent < p.Sent ||
				ss.Hub.Dropped < p.Dropped || ss.Hub.Rejected < p.Rejected ||
				ss.Hub.Shed < p.Shed || ss.Hub.Evicted < p.Evicted {
				r.violatef("%s: hub counters regressed: %+v -> %+v", ss.ID, p, ss.Hub)
			}
		}
		if ss.Hub.Pool.DoublePuts != 0 || ss.Hub.Pool.PoisonTrips != 0 {
			r.violatef("%s: payload pool integrity violated (double put or use-after-put): %+v", ss.ID, ss.Hub.Pool)
		}
		next[ss.ID] = ss.Hub
	}
	// The registry cap is approximate under concurrent handshakes (each
	// hub's own cap is the strict one), so allow in-flight headroom of one
	// burst before calling it a violation.
	if r.cfg.MaxSubscribers > 0 && total > r.cfg.MaxSubscribers+8 {
		r.violatef("%d subscribers far exceed registry MaxSubscribers %d", total, r.cfg.MaxSubscribers)
	}
	return next
}

// checkStayerTrace turns one stayer's trace into a result, recording a
// violation unless its stream was perfectly conserved from its join to its
// end marker.
func (r *multiRunner) checkStayerTrace(id string, tr *core.Trace, err error) StayerResult {
	res := StayerResult{}
	if err != nil {
		res.Err = err.Error()
	}
	if tr == nil {
		r.violatef("stayer on %s: no trace (%v)", id, err)
		return res
	}
	res.Expected = tr.Expected
	res.Received = int64(len(tr.Arrivals))
	var seen core.PacketSet
	for _, a := range tr.Arrivals {
		if int64(a.Pkt) >= tr.Expected {
			r.violatef("stayer on %s: packet %d outside announced range %d", id, a.Pkt, tr.Expected)
			return res
		}
		if !seen.Add(a.Pkt) {
			r.violatef("stayer on %s: packet %d delivered twice", id, a.Pkt)
			return res
		}
	}
	if err != nil {
		r.violatef("stayer on %s: stream not conserved: %v", id, err)
		return res
	}
	if int64(seen.Len()) != res.Expected {
		r.violatef("stayer on %s: %d distinct packets of %d expected", id, seen.Len(), res.Expected)
	}
	return res
}
