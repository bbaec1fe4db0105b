// Package registry multiplexes many concurrent live streams behind one
// accept loop.
//
// A hub (internal/hub) serves exactly one stream id; a real origin serves
// many. The registry owns a set of hubs keyed by stream id and routes each
// incoming join by the StreamID already carried in the DMPJ handshake: the
// accept loop reads the 40-byte join, looks the id up, and hands the
// connection to the owning hub's AttachJoined. A join naming no stream is
// answered with a DMPR unknown-stream reject; a join naming a stream that
// has ended keeps getting a stream-ended reject from the registry's
// tombstone long after the hub itself is gone, while sibling streams keep
// serving untouched.
//
// Streams have independent lifecycles: Create starts a stream's generator,
// End stops one gracefully (its paths drain their end markers),
// DrainStream walks the hub's full drain ladder — all without disturbing
// the registry's other streams or its accept loop. Registry-wide admission
// caps (MaxStreams, MaxConns, MaxSubscribers) layer over each hub's own
// governor: the per-hub caps and byte budget keep protecting each stream,
// and the registry adds global ceilings so one origin process has a
// bounded total footprint no matter how load spreads across streams.
//
// Lock hierarchy (see DESIGN.md): Registry.mu is taken strictly before any
// hub lock (Hub.mu ≺ Hub.govMu ≺ shard.mu ≺ ring.mu); no hub code ever
// calls back into the registry. Routing holds Registry.mu only for the
// lookup and cap check, never across a reject write or a hub attach, so a
// slow refused client cannot stall the whole origin's admission path.
package registry

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dmpstream/internal/core"
	"dmpstream/internal/hub"
)

// Sentinel errors for stream lifecycle misuse.
var (
	// ErrUnknownStream: the id names no live stream.
	ErrUnknownStream = errors.New("registry: unknown stream")
	// ErrStreamEnded: the id belongs to a stream that has ended; ids are
	// not reusable, so joins (and Creates) for it are refused for the
	// registry's lifetime.
	ErrStreamEnded = errors.New("registry: stream ended")
	// ErrStreamExists: Create was asked for an id already serving.
	ErrStreamExists = errors.New("registry: stream exists")
	// ErrMaxStreams: Create would exceed Config.MaxStreams.
	ErrMaxStreams = errors.New("registry: stream limit reached")
	// ErrClosed: the registry has been closed (or is draining, for Create).
	ErrClosed = errors.New("registry: closed")
)

// rejectWriteTimeout bounds the courtesy reject-frame write, exactly as in
// the hub: a refused client that never reads cannot pin a goroutine.
const rejectWriteTimeout = 2 * time.Second

// Config describes a stream registry.
type Config struct {
	// Hub is the per-stream template: every stream Create starts gets this
	// configuration with only StreamID replaced by the stream's id. Zero
	// fields take the hub defaults as usual.
	Hub hub.Config
	// MaxStreams caps concurrently live streams; Create past it returns
	// ErrMaxStreams. 0 = unlimited.
	MaxStreams int
	// MaxSubscribers caps subscriptions across all streams. A join with a
	// token the target stream does not already know is refused with a
	// server-full reject once the registry-wide total reaches the cap. The
	// check is exact for serial joins; concurrent handshakes may land a few
	// over before the counts settle (each hub's own MaxSubscribers stays
	// strict). 0 = unlimited.
	MaxSubscribers int
	// MaxConns caps attached path connections across all streams, strictly:
	// the slot is reserved under the registry lock before the hub sees the
	// connection and released exactly once when the connection closes.
	// 0 = unlimited.
	MaxConns int
	// JoinTimeout bounds how long an accepted connection may take to present
	// its join request. 0 selects hub.DefaultJoinTimeout.
	JoinTimeout time.Duration
	// HandshakeLimit caps connections sitting in the join handshake
	// concurrently across the registry's accept loops.
	// 0 selects hub.DefaultHandshakeLimit.
	HandshakeLimit int
}

func (c Config) withDefaults() (Config, error) {
	if c.MaxStreams < 0 {
		return c, fmt.Errorf("registry: max streams %d < 0", c.MaxStreams)
	}
	if c.MaxSubscribers < 0 {
		return c, fmt.Errorf("registry: max subscribers %d < 0", c.MaxSubscribers)
	}
	if c.MaxConns < 0 {
		return c, fmt.Errorf("registry: max conns %d < 0", c.MaxConns)
	}
	if c.JoinTimeout < 0 {
		return c, fmt.Errorf("registry: join timeout %v < 0", c.JoinTimeout)
	}
	if c.JoinTimeout == 0 {
		c.JoinTimeout = hub.DefaultJoinTimeout
	}
	if c.HandshakeLimit < 0 {
		return c, fmt.Errorf("registry: handshake limit %d < 0", c.HandshakeLimit)
	}
	if c.HandshakeLimit == 0 {
		c.HandshakeLimit = hub.DefaultHandshakeLimit
	}
	return c, nil
}

// Registry routes joins across many live streams and owns their lifecycles.
type Registry struct {
	cfg Config
	wg  sync.WaitGroup

	closed atomic.Bool // stored under mu, read lock-free

	mu       sync.Mutex
	streams  map[string]*hub.Hub   // guarded by mu; live, join-routable
	ended    map[string]struct{}   // guarded by mu; tombstones of ended ids
	retired  []*hub.Hub            // guarded by mu; ended hubs not yet force-closed
	lns      []net.Listener        // guarded by mu
	pending  map[net.Conn]struct{} // guarded by mu; accepted conns mid-handshake
	draining bool                  // guarded by mu

	// connCount is the registry-wide MaxConns account: incremented only
	// under mu (strict cap), decremented exactly once per connection by the
	// countedConn wrapper.
	connCount atomic.Int64

	rejected      atomic.Int64 // joins the registry itself refused
	unknownStream atomic.Int64 // ... because the id named no stream
	streamEnded   atomic.Int64 // ... because the id's stream had ended
	acceptRetries atomic.Int64 // temporary Accept errors retried with backoff
	created       atomic.Int64 // streams created over the registry's lifetime
}

// New validates cfg and returns an empty registry; add streams with Create.
func New(cfg Config) (*Registry, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Registry{
		cfg:     cfg,
		streams: make(map[string]*hub.Hub),
		ended:   make(map[string]struct{}),
		pending: make(map[net.Conn]struct{}),
	}, nil
}

// countedConn releases its registry connection slot exactly once on Close,
// however many times the hub (or a racing Close path) closes it.
type countedConn struct {
	net.Conn
	r    *Registry
	once sync.Once
}

func (c *countedConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() { c.r.connCount.Add(-1) })
	return err
}

// WriteBuffers forwards a vectored write to the wrapped connection, so the
// hub's zero-copy batch path survives the counting wrapper: net.Buffers'
// writev fast path type-asserts the concrete conn and would otherwise
// degrade to one Write call per buffer behind this embedding.
func (c *countedConn) WriteBuffers(bufs net.Buffers) (int64, error) {
	if bw, ok := c.Conn.(hub.BuffersWriter); ok {
		return bw.WriteBuffers(bufs)
	}
	return writeBuffersTo(c.Conn, bufs)
}

// writeBuffersTo is the net.Buffers fallback for conns without a native
// vectored write. It is a function of its own because WriteTo's pointer
// receiver makes bufs escape: here only this path pays the 24-byte heap
// copy; written inside WriteBuffers, the parameter moves to the heap on
// entry and every call pays it, fast path included.
//
//go:noinline
func writeBuffersTo(w io.Writer, bufs net.Buffers) (int64, error) {
	return bufs.WriteTo(w)
}

// Create starts a new live stream under id using the Hub template and
// returns its hub. Ids are never reusable: creating over a tombstone
// returns ErrStreamEnded, so late joiners of the old stream can still be
// told it ended rather than be spliced into an unrelated successor.
func (r *Registry) Create(id string) (*hub.Hub, error) {
	if err := core.ValidateStreamID(id); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() || r.draining {
		return nil, ErrClosed
	}
	if _, ok := r.ended[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrStreamEnded, id)
	}
	if _, ok := r.streams[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrStreamExists, id)
	}
	if r.cfg.MaxStreams > 0 && len(r.streams) >= r.cfg.MaxStreams {
		return nil, fmt.Errorf("%w (%d live)", ErrMaxStreams, len(r.streams))
	}
	hcfg := r.cfg.Hub
	hcfg.StreamID = id
	h, err := hub.New(hcfg)
	if err != nil {
		return nil, err
	}
	r.streams[id] = h
	r.created.Add(1)
	return h, nil
}

// Hub returns the live stream's hub, or nil if id is not currently serving.
func (r *Registry) Hub(id string) *hub.Hub {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.streams[id]
}

// Streams returns the live stream ids, sorted.
func (r *Registry) Streams() []string {
	r.mu.Lock()
	ids := make([]string, 0, len(r.streams))
	for id := range r.streams {
		ids = append(ids, id)
	}
	r.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// endLocked moves id from the live table to the tombstones and returns its
// hub. Caller holds r.mu.
func (r *Registry) endLocked(id string) (*hub.Hub, error) {
	h, ok := r.streams[id]
	if !ok {
		if _, ended := r.ended[id]; ended {
			return nil, fmt.Errorf("%w: %s", ErrStreamEnded, id)
		}
		return nil, fmt.Errorf("%w: %s", ErrUnknownStream, id)
	}
	delete(r.streams, id)
	r.ended[id] = struct{}{}
	r.retired = append(r.retired, h)
	return h, nil
}

// End gracefully ends one stream: generation stops, its attached paths
// drain the ring and receive end markers, and from this moment joins for
// id are answered with a stream-ended reject. Sibling streams are
// unaffected. End does not wait for the drain; use the hub handle (from
// Create or Hub, before End) or DrainStream for a bounded wait.
func (r *Registry) End(id string) error {
	r.mu.Lock()
	h, err := r.endLocked(id)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	h.Stop()
	return nil
}

// DrainStream ends one stream through the hub's full graceful-shutdown
// ladder (stop admitting, stop generating, bounded wait, force-close the
// stragglers) and reports whether every path drained within the timeout.
func (r *Registry) DrainStream(id string, timeout time.Duration) (bool, error) {
	r.mu.Lock()
	h, err := r.endLocked(id)
	r.mu.Unlock()
	if err != nil {
		return false, err
	}
	return h.Drain(timeout), nil
}

// BeginDrain closes admission registry-wide: every live hub stops taking
// fresh tokens (re-attaches still heal) and Create refuses new streams.
// Generation continues; pair with End/Drain to finish.
func (r *Registry) BeginDrain() {
	r.mu.Lock()
	r.draining = true
	hubs := make([]*hub.Hub, 0, len(r.streams))
	for _, h := range r.streams {
		hubs = append(hubs, h)
	}
	r.mu.Unlock()
	for _, h := range hubs {
		h.BeginDrain()
	}
}

// Draining reports whether registry-wide admission has been closed.
func (r *Registry) Draining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.draining
}

// Drain is the registry-wide graceful shutdown: admission closes, every
// stream's generation stops, and all paths get until timeout (shared, not
// per stream) to drain their end markers; whatever remains is then
// force-closed. It returns true when everything drained in time.
func (r *Registry) Drain(timeout time.Duration) bool {
	r.BeginDrain()
	r.mu.Lock()
	hubs := r.allHubsLocked()
	for id := range r.streams {
		delete(r.streams, id)
		r.ended[id] = struct{}{}
	}
	r.retired = r.retired[:0]
	r.mu.Unlock()
	for _, h := range hubs {
		h.Stop()
	}
	done := make(chan struct{})
	go func() {
		for _, h := range hubs {
			h.Wait()
		}
		close(done)
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		r.Close()
		return true
	case <-t.C:
		r.Close()
		return false
	}
}

// allHubsLocked snapshots every hub the registry still owns, live and
// retired. Caller holds r.mu.
func (r *Registry) allHubsLocked() []*hub.Hub {
	hubs := make([]*hub.Hub, 0, len(r.streams)+len(r.retired))
	for _, h := range r.streams {
		hubs = append(hubs, h)
	}
	hubs = append(hubs, r.retired...)
	return hubs
}

// rejectConn answers a refused join with the typed reject frame and closes
// the connection, mirroring the hub's refusal path.
func (r *Registry) rejectConn(conn net.Conn, code core.RejectCode) {
	r.rejected.Add(1)
	conn.SetWriteDeadline(time.Now().Add(rejectWriteTimeout))
	_ = core.WriteReject(conn, code)
	_ = conn.Close()
}

// Attach performs the join handshake on conn and routes the connection to
// the stream its join names. It closes conn on any error; refusals answer
// with the typed reject frame and the returned error unwraps to the
// matching core sentinel.
func (r *Registry) Attach(conn net.Conn) error {
	conn.SetReadDeadline(time.Now().Add(r.cfg.JoinTimeout))
	j, err := core.ReadJoin(conn)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		_ = conn.Close()
		return fmt.Errorf("registry: join: %w", err)
	}
	return r.Route(conn, j)
}

// Route admits a connection whose join has already been read: look the
// stream up, apply the registry-wide caps, and hand the connection to the
// owning hub. The registry lock covers only the lookup and cap check —
// never a reject write or the hub attach — so refused or slow clients on
// one stream cannot stall routing for the others.
//
// hotpath — the per-join admission root; a redialing path storm lands
// here once per reconnect attempt.
func (r *Registry) Route(conn net.Conn, j core.Join) error {
	if tc, ok := conn.(*net.TCPConn); ok {
		// The hub's own TCP tuning can't reach through the counting
		// wrapper, so apply it here, from the same template every hub got.
		tc.SetNoDelay(true)
		if r.cfg.Hub.PathWriteBuffer > 0 {
			tc.SetWriteBuffer(r.cfg.Hub.PathWriteBuffer)
		}
	}
	r.mu.Lock()
	if r.closed.Load() {
		r.mu.Unlock()
		r.streamEnded.Add(1)
		r.rejectConn(conn, core.RejectStreamEnded)
		return ErrClosed
	}
	h, live := r.streams[j.StreamID]
	if !live {
		_, ended := r.ended[j.StreamID]
		r.mu.Unlock()
		if ended {
			r.streamEnded.Add(1)
			r.rejectConn(conn, core.RejectStreamEnded)
			return fmt.Errorf("%w: %s: %s", ErrStreamEnded, j.StreamID,
				&core.RejectError{Code: core.RejectStreamEnded})
		}
		r.unknownStream.Add(1)
		r.rejectConn(conn, core.RejectUnknownStream)
		return fmt.Errorf("%w: %q: %s", ErrUnknownStream, j.StreamID,
			&core.RejectError{Code: core.RejectUnknownStream})
	}
	if r.draining && !h.HasSubscriber(j.Token) {
		// Draining answers before any capacity check, like the hub's own
		// admission order: a fresh token during drain is told the truth
		// (draining), not a coincidental server-full.
		r.mu.Unlock()
		r.rejectConn(conn, core.RejectDraining)
		return fmt.Errorf("registry: draining: %w", &core.RejectError{Code: core.RejectDraining})
	}
	if r.cfg.MaxConns > 0 && int(r.connCount.Load()) >= r.cfg.MaxConns {
		r.mu.Unlock()
		r.rejectConn(conn, core.RejectServerFull)
		return fmt.Errorf("registry: %d connections attached: %w",
			r.cfg.MaxConns, &core.RejectError{Code: core.RejectServerFull})
	}
	if r.cfg.MaxSubscribers > 0 {
		total := 0
		for _, lh := range r.streams {
			total += lh.SubscriberCount()
		}
		// Re-attaches of tokens the stream already knows are exempt, like
		// the hub's own fresh-token rule: a full house never strands a
		// subscription that is only healing a flapped path.
		if total >= r.cfg.MaxSubscribers && !h.HasSubscriber(j.Token) {
			r.mu.Unlock()
			r.rejectConn(conn, core.RejectServerFull)
			return fmt.Errorf("registry: %d subscribers attached: %w",
				total, &core.RejectError{Code: core.RejectServerFull})
		}
	}
	r.connCount.Add(1)
	r.mu.Unlock()
	return h.AttachJoined(&countedConn{Conn: conn, r: r}, j) // nolint:hotalloc one wrapper per admitted connection; the hub attach below is its own domain
}

// Serve accepts connections on ln and routes each join to its stream. It
// returns when ln is closed; per-connection failures are counted, not
// returned. The loop carries the hub's accept hardening: capped backoff on
// temporary errors and a handshake concurrency cap shedding slowloris
// herds with a server-full reject.
func (r *Registry) Serve(ln net.Listener) error {
	r.mu.Lock()
	r.lns = append(r.lns, ln)
	closed := r.closed.Load()
	r.mu.Unlock()
	if closed {
		_ = ln.Close()
		return ErrClosed
	}
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if r.closed.Load() {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				r.acceptRetries.Add(1)
				switch {
				case backoff <= 0:
					backoff = 5 * time.Millisecond
				case backoff < time.Second:
					backoff *= 2
					if backoff > time.Second {
						backoff = time.Second
					}
				}
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		r.mu.Lock()
		if r.closed.Load() {
			r.mu.Unlock()
			_ = conn.Close()
			continue
		}
		if len(r.pending) >= r.cfg.HandshakeLimit {
			r.mu.Unlock()
			r.rejectConn(conn, core.RejectServerFull)
			continue
		}
		r.pending[conn] = struct{}{}
		r.wg.Add(1)
		r.mu.Unlock()
		go func() {
			defer r.wg.Done()
			_ = r.Attach(conn)
			r.mu.Lock()
			delete(r.pending, conn)
			r.mu.Unlock()
		}()
	}
}

// Close force-stops the registry: every stream's hub is closed (paths are
// NOT drained), listeners and mid-handshake connections are cut, and new
// joins and Creates are refused. It waits for all goroutines to exit.
func (r *Registry) Close() {
	r.mu.Lock()
	r.closed.Store(true)
	hubs := r.allHubsLocked()
	for id := range r.streams {
		delete(r.streams, id)
		r.ended[id] = struct{}{}
	}
	r.retired = r.retired[:0]
	for _, ln := range r.lns {
		_ = ln.Close()
	}
	for c := range r.pending {
		_ = c.Close()
	}
	r.mu.Unlock()
	for _, h := range hubs {
		h.Close()
	}
	r.wg.Wait()
}

// ConnCount returns the attached path connections across all streams.
func (r *Registry) ConnCount() int { return int(r.connCount.Load()) }

// StreamStats is one live stream's snapshot within Stats.
type StreamStats struct {
	ID  string
	Hub hub.Stats
}

// Stats is a point-in-time snapshot of the registry.
type Stats struct {
	Streams       []StreamStats // live streams, sorted by id
	Ended         []string      // tombstoned ids, sorted
	Created       int64         // streams created over the lifetime
	Conns         int           // attached path connections, all streams
	Handshaking   int           // accepted connections still in the join handshake
	Rejected      int64         // joins the registry refused (unknown, ended, full)
	UnknownStream int64         // ... for an id naming no stream
	StreamEnded   int64         // ... for an id whose stream ended
	AcceptRetries int64         // temporary accept errors retried with backoff
	Draining      bool
}

// Stats snapshots the registry and every live stream. Per-stream hub
// snapshots are taken after the registry lock is released, so a busy
// stream's stats walk never blocks routing for its siblings.
func (r *Registry) Stats() Stats {
	st := Stats{
		Created:       r.created.Load(),
		Conns:         int(r.connCount.Load()),
		Rejected:      r.rejected.Load(),
		UnknownStream: r.unknownStream.Load(),
		StreamEnded:   r.streamEnded.Load(),
		AcceptRetries: r.acceptRetries.Load(),
	}
	r.mu.Lock()
	st.Handshaking = len(r.pending)
	st.Draining = r.draining
	hubs := make([]*hub.Hub, 0, len(r.streams))
	for _, h := range r.streams {
		hubs = append(hubs, h)
	}
	for id := range r.ended {
		st.Ended = append(st.Ended, id)
	}
	r.mu.Unlock()
	for _, h := range hubs {
		st.Streams = append(st.Streams, StreamStats{ID: h.StreamID(), Hub: h.Stats()})
	}
	sort.Slice(st.Streams, func(i, j int) bool { return st.Streams[i].ID < st.Streams[j].ID })
	sort.Strings(st.Ended)
	return st
}
