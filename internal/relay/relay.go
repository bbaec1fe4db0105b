// Package relay implements the edge relay of a DMP distribution tree: a
// node that joins an upstream hub (or another relay) as an ordinary
// multipath subscriber and re-fans the received stream through its own
// local hub.Hub to downstream subscribers — the paper's Fig-7 relay
// generalized to a CDN shape, where the origin serves hundreds of relays
// instead of millions of clients.
//
// The upstream side reuses the whole client resilience stack verbatim:
// core.Client's capped-backoff redial engine drives the relay's upstream
// paths, the DMPJ join carries a stable re-attach token (so the upstream
// subscription — and its resend window — survives path flaps, candidate
// failover and even a relay restart that preserved the token), and the
// join sets wire.JoinFlagAbsolute, so packet numbering is origin-absolute
// at every tier. Absolute numbering is what makes the tree's failure
// story compose: a replayed resend window, a failover to another upstream
// address, or a restarted mid-tier hub all re-deliver packets under the
// same identity, and each tier's dedup (the forwarder here, core.Receiver
// at the leaves) collapses them exactly once.
//
// Robustness model:
//
//   - Ranked upstream candidates. Config.Upstreams lists addresses that
//     reach the same logical upstream feed (the direct address plus
//     alternate routes/front-ends). Path k starts on candidate k mod N
//     for path diversity; every abnormal path death rotates that path to
//     the next candidate (primary → secondary → … → back to primary),
//     while the redial engine applies its capped backoff per attempt.
//   - Upstream health: Connecting → Healthy/Degraded → Orphaned/Ended.
//     While at least one upstream path is live the relay is Healthy (all
//     paths) or Degraded (some). When the last path drops, an orphan
//     countdown of Config.OrphanGrace starts; if nothing re-attaches in
//     time the relay declares the upstream lost: the local hub Fails with
//     RejectUpstreamLost — live downstream subscribers drain what the
//     relay holds and get a clean end marker, new joiners get the typed
//     DMPR reject — instead of hanging its subscribers on a silent feed.
//   - Every tier keeps the hub's own protections: admission caps, join
//     timeouts, the byte-budget governor and the lag-window policy all
//     apply to the relay's downstream side exactly as at the origin.
//   - Two-phase cascading drain. Drain detaches from the upstream first
//     (so the origin frees this relay's slot), flushes the reorder buffer
//     into the local ring, then drains downstream with end markers.
//
// Lock hierarchy (extends DESIGN.md §7): relay.Relay.mu and
// relay.forwarder.mu sit above the hub locks — forwarder.mu ≺
// hub.Hub.govMu ≺ hub.shard.mu ≺ hub.ring.mu (the ingest edge), and
// neither relay lock is ever taken while a hub lock is held.
package relay

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dmpstream/internal/clock"
	"dmpstream/internal/core"
	"dmpstream/internal/hub"
	"dmpstream/internal/lockrank"
	"dmpstream/internal/wire"
)

// DefaultOrphanGrace is how long the relay tolerates having zero live
// upstream paths before declaring the upstream lost.
const DefaultOrphanGrace = 10 * time.Second

// DefaultReorderWindow is the forwarder's reorder span: a gap is abandoned
// once a packet arrives more than this many sequences past it, so whatever
// the reorder ring parks lies within this many sequences of the next one
// due. It must comfortably exceed the upstream's resend window plus
// in-flight path skew, or failover replays arrive "too late" and turn into
// gaps.
const DefaultReorderWindow = 256

// DefaultDialTimeout bounds one upstream candidate dial.
const DefaultDialTimeout = 5 * time.Second

// ErrNoUpstream is returned by Serve when the relay never established an
// upstream feed (orphaned before the first stream header).
var ErrNoUpstream = errors.New("relay: no upstream feed")

// State is the relay's upstream-health state.
type State int

const (
	// StateConnecting: no upstream path has delivered a header yet (the
	// orphan countdown is already running).
	StateConnecting State = iota
	// StateHealthy: every configured upstream path is live.
	StateHealthy
	// StateDegraded: some upstream paths are down, at least one is live.
	StateDegraded
	// StateOrphaned: zero live paths for longer than the orphan grace; the
	// local hub has Failed with RejectUpstreamLost.
	StateOrphaned
	// StateEnded: the upstream delivered its end marker; the local hub is
	// propagating end-of-stream downstream.
	StateEnded
)

func (s State) String() string {
	switch s {
	case StateConnecting:
		return "connecting"
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateOrphaned:
		return "orphaned"
	case StateEnded:
		return "ended"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Config describes one edge relay.
type Config struct {
	// Upstreams is the ranked candidate address list for the upstream
	// feed — every entry must reach the same logical stream (the origin
	// hub directly, or routes/front-ends to it). Required, at least one.
	Upstreams []string
	// StreamID names the stream: it is sent in the upstream join and
	// served to downstream joiners. Default "live".
	StreamID string
	// Paths is how many upstream path connections to run. Default 2.
	Paths int
	// Token is the upstream subscription token. The zero value draws a
	// random one; pass an explicit token to re-attach an earlier relay
	// incarnation's subscription after a restart (within the upstream's
	// re-attach grace), so its resend window replays instead of the
	// stream gapping.
	Token wire.Token
	// Redial is the upstream redial policy. A zero Base selects a capped
	// exponential default (50ms base, 1s cap, unlimited budget); a policy
	// core.ValidateRedialPolicy rejects is an error.
	Redial core.RedialPolicy
	// OrphanGrace is how long the relay tolerates zero live upstream paths
	// before declaring the upstream lost and failing its local hub with
	// RejectUpstreamLost. 0 selects DefaultOrphanGrace.
	OrphanGrace time.Duration
	// ReorderWindow is the upstream reorder span in sequences (see
	// DefaultReorderWindow), below core.MaxSeqSpan: the reorder ring is
	// sized for it at New. 0 selects the default.
	ReorderWindow int
	// Hub configures the local downstream fan-out (lag window, policy,
	// delivery, admission caps, byte budget, grace windows — everything a
	// standalone hub takes). Its Stream rate/payload and StreamID are
	// overridden from the upstream header and StreamID above, and
	// ExternalSource is forced on.
	Hub hub.Config
	// Logf, when set, receives progress lines (state transitions,
	// failovers, orphan verdicts).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() (Config, error) {
	if len(c.Upstreams) == 0 {
		return c, errors.New("relay: no upstream candidates")
	}
	if c.StreamID == "" {
		c.StreamID = "live"
	}
	if err := wire.ValidateStreamID(c.StreamID); err != nil {
		return c, fmt.Errorf("relay: %w", err)
	}
	if c.Paths == 0 {
		c.Paths = 2
	}
	if c.Paths < 0 {
		return c, fmt.Errorf("relay: paths %d < 0", c.Paths)
	}
	if err := core.ValidateRedialPolicy(c.Redial); err != nil {
		return c, fmt.Errorf("relay: %w", err)
	}
	if c.Redial.Base == 0 {
		c.Redial = core.RedialPolicy{
			Base:       50 * time.Millisecond,
			Max:        time.Second,
			Multiplier: 2,
			Jitter:     0.3,
			Seed:       c.Redial.Seed,
		}
	}
	if c.OrphanGrace == 0 {
		c.OrphanGrace = DefaultOrphanGrace
	}
	if c.OrphanGrace < 0 {
		return c, fmt.Errorf("relay: orphan grace %v < 0", c.OrphanGrace)
	}
	if c.ReorderWindow == 0 {
		c.ReorderWindow = DefaultReorderWindow
	}
	if c.ReorderWindow < 0 || c.ReorderWindow >= core.MaxSeqSpan {
		return c, fmt.Errorf("relay: reorder window %d outside [0, %d)", c.ReorderWindow, core.MaxSeqSpan)
	}
	// The local hub is built at the first upstream header, which only sets
	// its rate and payload size: a setting no hub takes fails here, not
	// there.
	if err := c.localHub(1, 1).Validate(); err != nil {
		return c, fmt.Errorf("relay: local hub: %w", err)
	}
	return c, nil
}

// localHub is the configuration of the local hub for a feed of mu packets
// per second carrying payload-byte packets.
func (c Config) localHub(mu float64, payload int) hub.Config {
	hc := c.Hub
	hc.ExternalSource = true
	hc.StreamID = c.StreamID
	hc.Stream.Mu = mu
	hc.Stream.PayloadSize = payload
	hc.Stream.Count = 0
	hc.Stream.Fill = nil
	return hc
}

// Relay is a running edge relay: an upstream multipath subscription being
// republished through a local hub.
type Relay struct {
	cfg    Config
	token  wire.Token
	fwd    *forwarder
	client *core.Client
	wg     sync.WaitGroup

	readyCh      chan struct{} // closed by markReady: local has something to serve
	readyOnce    sync.Once     // closes readyCh
	failCh       chan struct{} // closed by signalFail if the relay gives up before a hub exists
	failOnce     sync.Once
	stopCh       chan struct{} // closed by signalStop once upstream consumption is over (ends redial backoffs)
	stopOnce     sync.Once
	upstreamDone chan struct{} // closed once the upstream manager (redial engine + flush) exited

	// local is the downstream hub, nil until the first upstream header;
	// stored once, by onHeader under mu. The forwarder publishes into it
	// from then on, but it is served downstream (Hub, Serve) only once
	// readyCh is closed.
	local atomic.Pointer[hub.Hub]

	mu        lockrank.Mutex
	up        []bool // guarded by mu; per-path liveness (header-delivering conns)
	live      int    // guarded by mu; count of true entries in up
	cand      []int  // guarded by mu; per-path current candidate index
	failovers int64  // guarded by mu; candidate rotations on multi-candidate configs
	fate      fate   // guarded by mu; decided once (decideLocked)

	// The orphan countdown, armed from New and when the last path goes
	// down, stopped when one comes back or the fate is decided.
	orphan clock.Countdown[*Relay] // guarded by mu
	clock  clock.Clock             // New's clock.Wall, or a test's through newOn
}

// fate is how upstream consumption ends: open until the upstream is lost
// (orphaned) or it is over otherwise (cancelled: Close or Drain, no local
// hub could be built, or every upstream path has retired).
type fate int

const (
	fateOpen fate = iota
	fateCancelled
	fateOrphaned
)

// decideLocked settles the fate as f, or reports false if it was decided
// already. A decided relay reads upstream no more (signalStop), disarms
// the countdown and builds no hub it has not built (signalFail). Caller
// holds r.mu.
func (r *Relay) decideLocked(f fate) bool {
	if r.fate != fateOpen {
		return false
	}
	r.fate = f
	r.orphan.Stop()
	r.signalStop()
	if r.local.Load() == nil {
		r.signalFail()
	}
	return true
}

// New validates cfg, draws (or adopts) the upstream token and starts the
// upstream subscription. The local hub is built once the first upstream
// stream header fixes the feed's rate and payload size, and served once it
// holds its first packet; Serve blocks on that. Shut down with Drain
// (graceful) or Close.
func New(cfg Config) (*Relay, error) { return newOn(clock.Wall{}, cfg) }

// newOn is New with its orphan countdown on clock c.
func newOn(c clock.Clock, cfg Config) (*Relay, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	tok := cfg.Token
	if tok == (wire.Token{}) {
		if tok, err = wire.NewToken(); err != nil {
			return nil, fmt.Errorf("relay: %w", err)
		}
	}
	// Path k starts on candidate k round-robin, so a multi-path relay
	// spreads its paths across the upstream list from the first dial.
	cand := make([]int, cfg.Paths)
	for k := range cand {
		cand[k] = k % len(cfg.Upstreams)
	}
	r := &Relay{
		cfg:          cfg,
		token:        tok,
		readyCh:      make(chan struct{}),
		failCh:       make(chan struct{}),
		stopCh:       make(chan struct{}),
		upstreamDone: make(chan struct{}),
		up:           make([]bool, cfg.Paths),
		cand:         cand,
		clock:        c,
	}
	r.mu.Init(lockrank.Relay)
	r.fwd = newForwarder(r, core.DefaultEndGrace)
	r.client = &core.Client{
		Paths:      cfg.Paths,
		Dial:       r.dialUpstream,
		Join:       &wire.Join{StreamID: cfg.StreamID, Token: tok, Flags: wire.JoinFlagAbsolute},
		Policy:     cfg.Redial,
		OnPathUp:   r.pathUp,
		OnPathDown: r.pathDown,
	}
	// The initial orphan countdown: a relay that never reaches any
	// candidate must not sit Connecting forever.
	r.mu.Lock()
	r.orphan.Arm(r.clock, cfg.OrphanGrace, (*Relay).orphanFire, r)
	r.mu.Unlock()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(r.upstreamDone)
		errs := r.client.RunWith(r.fwd)
		r.onUpstreamDone(errs)
	}()
	return r, nil
}

// Token returns the upstream subscription token — persist it to re-attach
// a restarted relay to the same upstream subscription.
func (r *Relay) Token() wire.Token { return r.token }

// Hub returns the local downstream hub, or nil until Ready is closed.
func (r *Relay) Hub() *hub.Hub {
	select {
	case <-r.readyCh:
		return r.local.Load()
	default:
		return nil
	}
}

// Ready is closed once the local hub has something to serve: the
// forwarder published its first packet into it, or the upstream ended or
// was lost before delivering one (joiners then get the stream's verdict).
// Hub and Serve wait for it, so a downstream subscriber never attaches
// before the first packet, and a rebased one is numbered from a packet
// the relay really holds, not from sequence 0 of a stream the relay
// joined mid-way.
func (r *Relay) Ready() <-chan struct{} { return r.readyCh }

// markReady closes Ready; only once local is stored.
func (r *Relay) markReady() { r.readyOnce.Do(func() { close(r.readyCh) }) }

func (r *Relay) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// dialUpstream opens path k's connection to its current candidate.
// After the relay is cancelled (Close, Drain, orphan verdict) it returns
// an error carrying a typed reject so the redial engine treats it as a
// verdict and retires the path instead of backing off forever.
func (r *Relay) dialUpstream(k int) (net.Conn, error) {
	r.mu.Lock()
	if r.fate != fateOpen || r.upstreamEnded() {
		r.mu.Unlock()
		return nil, fmt.Errorf("relay: upstream detached: %w",
			&wire.RejectError{Code: wire.RejectStreamEnded})
	}
	addr := r.cfg.Upstreams[r.cand[k]%len(r.cfg.Upstreams)]
	r.mu.Unlock()
	return net.DialTimeout("tcp", addr, DefaultDialTimeout)
}

// pathUp marks path k live and disarms any pending orphan countdown.
// Called from the path's goroutine on every (re)attach.
func (r *Relay) pathUp(k, attempt int) {
	r.mu.Lock()
	if !r.up[k] {
		r.up[k] = true
		r.live++
		r.orphan.Stop()
	}
	live, paths := r.live, r.cfg.Paths
	r.mu.Unlock()
	r.logf("relay: path %d up (attempt %d), %d/%d live", k, attempt, live, paths)
}

// pathDown marks path k dead, rotates it to the next upstream candidate,
// and — when it was the last live path — starts the orphan countdown,
// unless it is counting already: every failed redial reports another
// pathDown, and re-arming per retry would push the verdict out forever.
// Called from the path's goroutine on dial failures and connection
// deaths alike.
func (r *Relay) pathDown(k int, err error) {
	r.mu.Lock()
	if r.up[k] {
		r.up[k] = false
		r.live--
	}
	if r.fate != fateOpen || r.upstreamEnded() {
		r.mu.Unlock()
		return
	}
	r.cand[k] = (r.cand[k] + 1) % len(r.cfg.Upstreams)
	if len(r.cfg.Upstreams) > 1 {
		r.failovers++
	}
	if r.live == 0 {
		r.orphan.Arm(r.clock, r.cfg.OrphanGrace, (*Relay).orphanFire, r)
	}
	live, next := r.live, r.cand[k]
	r.mu.Unlock()
	r.logf("relay: path %d down (%v), %d live, next candidate %d", k, err, live, next)
}

// orphanFire is the orphan countdown's firing. While the countdown is Due
// — no path came back and the fate is open — and the stream has not ended,
// it delivers the verdict: the relay detaches from the upstream for good
// and the local hub (if any) Fails with RejectUpstreamLost.
func (r *Relay) orphanFire() {
	r.mu.Lock()
	if !r.orphan.Due(r.clock) || r.upstreamEnded() || !r.decideLocked(fateOrphaned) {
		r.mu.Unlock()
		return
	}
	// Armed, the countdown outlives no upstream manager (onUpstreamDone
	// disarms it), whose wg count keeps this Add off a Wait from zero.
	r.wg.Add(1)
	defer r.wg.Done()
	h := r.local.Load()
	r.mu.Unlock()
	r.logf("relay: orphaned: no live upstream path for %v", r.cfg.OrphanGrace)
	r.fwd.flush()
	if h != nil {
		h.Fail(wire.RejectUpstreamLost)
		r.markReady()
	}
	for _, c := range r.fwd.Conns() {
		_ = c.Close()
	}
}

// onHeader reacts to an upstream path's stream header, which the
// forwarder's reader has already checked against the first: the first
// call builds the local hub from the feed's rate and payload size, and
// every path waits for it before its first frame.
func (r *Relay) onHeader(mu float64, payload int) error {
	r.mu.Lock()
	if r.local.Load() != nil {
		r.mu.Unlock()
		return nil
	}
	if r.fate != fateOpen || r.upstreamEnded() {
		r.mu.Unlock()
		return fmt.Errorf("relay: stream already over")
	}
	h, err := hub.New(r.cfg.localHub(mu, payload))
	if err != nil {
		// A hub that cannot be built from the upstream's own header will
		// never build: give up rather than redial into the same wall.
		r.decideLocked(fateCancelled)
		r.mu.Unlock()
		return fmt.Errorf("relay: local hub: %w", err)
	}
	r.local.Store(h)
	r.mu.Unlock()
	r.logf("relay: local hub up: µ=%v payload=%d", mu, payload)
	return nil
}

// onUpstreamDone runs once the redial engine has retired every upstream
// path: flush the reorder buffer and settle the local hub's fate.
func (r *Relay) onUpstreamDone(errs []error) {
	r.fwd.flush()
	r.mu.Lock()
	ended := r.upstreamEnded()
	h := r.local.Load()
	// Every path has retired. Without an end marker, a hub whose fate was
	// still open has lost its feed for good (budget spent, upstream
	// verdicts); any other open fate closes as cancelled.
	lost := h != nil && !ended && r.decideLocked(fateOrphaned)
	r.decideLocked(fateCancelled)
	r.mu.Unlock()
	switch {
	case h != nil && ended:
		// Graceful end-of-stream: senders drain the ring and emit end
		// markers carrying the absolute head.
		r.logf("relay: upstream stream ended")
		h.Stop()
	case lost:
		h.Fail(wire.RejectUpstreamLost)
	}
	if h != nil {
		// A feed that ended before its first packet still has a verdict
		// for joiners.
		r.markReady()
	}
	for _, err := range errs {
		if err != nil {
			r.logf("relay: upstream path retired: %v", err)
		}
	}
}

// upstreamEnded reports whether an upstream path delivered the stream's
// end marker.
func (r *Relay) upstreamEnded() bool {
	select {
	case <-r.fwd.PathReader.Done():
		return true
	default:
		return false
	}
}

// signalFail and signalStop close their channel exactly once; signalStop
// says upstream consumption is over.
func (r *Relay) signalFail() { r.failOnce.Do(func() { close(r.failCh) }) }
func (r *Relay) signalStop() { r.stopOnce.Do(func() { close(r.stopCh) }) }

// Serve accepts downstream subscribers on ln, blocking first until Ready
// (the local hub needs the upstream header's rate and payload size, and a
// first packet to number joiners from). If the relay orphans before ever
// seeing a header, ln is closed and ErrNoUpstream returned. Once serving,
// the listener keeps answering joins even after the stream ends or fails
// — with the typed verdict (stream-ended, upstream-lost) — until Close.
func (r *Relay) Serve(ln net.Listener) error {
	select {
	case <-r.readyCh:
	case <-r.failCh:
		_ = ln.Close()
		return ErrNoUpstream
	}
	return r.Hub().Serve(ln)
}

// BeginDrain closes downstream admission (fresh tokens get a draining
// reject; re-attaches of live subscriptions still heal). The upstream
// side is untouched — pair with Drain for the full cascade.
func (r *Relay) BeginDrain() {
	if h := r.local.Load(); h != nil {
		h.BeginDrain()
	}
}

// Drain is the cascading two-phase shutdown: close downstream admission,
// detach from the upstream (freeing this relay's slot at the origin),
// flush the reorder buffer into the local ring, then drain downstream —
// every live path gets the remaining ring contents and an end marker.
// Both phases share the one timeout. It returns true when every
// downstream path drained within it.
func (r *Relay) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	r.BeginDrain()
	r.cancelUpstream()
	t := time.NewTimer(timeout)
	select {
	case <-r.upstreamDone: // reorder buffer flushed
	case <-t.C:
	}
	t.Stop()
	ok := true
	if h := r.local.Load(); h != nil {
		ok = h.Drain(time.Until(deadline))
	}
	r.wg.Wait()
	return ok
}

// cancelUpstream detaches from the upstream: no more dials (the redial
// engine gets a typed verdict) and the live upstream connections are cut.
func (r *Relay) cancelUpstream() {
	r.mu.Lock()
	r.decideLocked(fateCancelled)
	r.mu.Unlock()
	for _, c := range r.fwd.Conns() {
		_ = c.Close()
	}
}

// Close force-stops the relay: the upstream detaches, the local hub (if
// any) force-closes with its listeners and subscriber connections, and
// every goroutine the relay started is joined.
func (r *Relay) Close() {
	r.cancelUpstream()
	if h := r.local.Load(); h != nil {
		h.Close()
	}
	r.wg.Wait()
}

// Stats is a point-in-time snapshot of the relay.
type Stats struct {
	State      State
	LivePaths  int   // upstream paths currently delivering
	Paths      int   // configured upstream paths
	Candidates []int // per-path current candidate index into Upstreams
	Failovers  int64 // candidate rotations (multi-candidate configs)
	Forwarded  int64 // packets republished into the local ring
	LateDrops  int64 // upstream duplicates / too-late arrivals discarded
	Reordered  int64 // packets that parked in the reorder buffer
	GapSkips   int64 // sequences abandoned past the reorder window
	Refused    int64 // publishes the local hub refused (stopped/draining)
	Held       int   // packets currently parked in the reorder buffer
	Ended      bool  // upstream end marker seen
	Expected   int64 // end-marker packet count (absolute head), once Ended
	HubReady   bool  // Ready is closed: the local hub is serving
	Hub        hub.Stats
}

// Stats snapshots the relay: upstream health first, then the forwarder
// counters, then (when ready) the local hub's own snapshot.
func (r *Relay) Stats() Stats {
	r.mu.Lock()
	st := Stats{
		LivePaths:  r.live,
		Paths:      r.cfg.Paths,
		Candidates: append([]int(nil), r.cand...),
		Failovers:  r.failovers,
	}
	switch {
	case r.fate == fateOrphaned:
		st.State = StateOrphaned
	case r.upstreamEnded():
		st.State = StateEnded
	case r.live == 0:
		st.State = StateConnecting
	case r.live >= r.cfg.Paths:
		st.State = StateHealthy
	default:
		st.State = StateDegraded
	}
	h := r.Hub()
	r.mu.Unlock()
	f := r.fwd
	f.mu.Lock()
	st.Forwarded = f.forwarded
	st.LateDrops = f.order.lateDrops
	st.Reordered = f.order.reordered
	st.GapSkips = f.order.gapSkips
	st.Refused = f.refused
	st.Held = f.order.ring.Len()
	f.mu.Unlock()
	if exp := f.Expected(); exp >= 0 {
		st.Ended, st.Expected = true, exp
	}
	if h != nil {
		st.HubReady = true
		st.Hub = h.Stats()
	}
	return st
}
