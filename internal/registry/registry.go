// Package registry multiplexes many concurrent live streams behind one
// accept loop.
//
// A hub (internal/hub) serves exactly one stream id; a real origin serves
// many. The registry owns a set of hubs keyed by stream id and routes each
// incoming join by the StreamID already carried in the DMPJ handshake: the
// accept loop reads the 40-byte join, looks the id up, and hands the
// connection to the owning hub's AttachJoined. A join naming no stream is
// answered with a DMPR unknown-stream reject. A join naming a stream that
// has ended still goes to its hub while the registry holds it, which
// admits only a subscription the sealed stream still owes packets and
// answers any other join stream-ended; once Close or Drain has dropped the
// hub, the registry's tombstone answers stream-ended itself for the
// registry's lifetime. Sibling streams keep serving untouched.
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

	"dmpstream/internal/hub"
	"dmpstream/internal/lockrank"
	"dmpstream/internal/wire"
)

// Sentinel errors for stream lifecycle misuse.
var (
	// ErrUnknownStream: the id names no live stream.
	ErrUnknownStream = errors.New("registry: unknown stream")
	// ErrStreamEnded: the id belongs to a stream that has ended; ids are
	// not reusable, so Creates for it are refused for the registry's
	// lifetime, and so are joins, but for a re-attach the ended stream's hub
	// still owes packets to.
	ErrStreamEnded = errors.New("registry: stream ended")
	// ErrStreamExists: Create was asked for an id already serving.
	ErrStreamExists = errors.New("registry: stream exists")
	// ErrMaxStreams: Create would exceed Config.MaxStreams.
	ErrMaxStreams = errors.New("registry: stream limit reached")
	// ErrClosed: the registry has been closed (or is draining, for Create).
	ErrClosed = errors.New("registry: closed")
)

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
	return c, nil
}

// Registry routes joins across many live streams and owns their lifecycles.
type Registry struct {
	cfg Config
	acc *hub.Acceptor

	closed atomic.Bool // stored under mu, read lock-free

	mu       lockrank.Mutex
	streams  map[string]stream // guarded by mu; every id ever created
	draining bool              // guarded by mu

	// connCount is the registry-wide MaxConns account: incremented only
	// under mu (strict cap), decremented exactly once per connection by the
	// countedConn wrapper.
	connCount atomic.Int64

	unknownStream atomic.Int64 // joins refused because the id named no stream
	streamEnded   atomic.Int64 // ... because the id's stream had ended
	hubEnded      atomic.Int64 // of those, the ones an ended stream's hub refused, with its own reject
	created       atomic.Int64 // streams created over the registry's lifetime
}

// stream is one id's entry: live, it routes joins to h; ended, it is the
// id's tombstone and still routes joins to h, which admits only what it
// owes, until Close or Drain force-closes it.
type stream struct {
	h     *hub.Hub
	ended bool
}

// New validates cfg and returns an empty registry; add streams with Create.
func New(cfg Config) (*Registry, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	r := &Registry{cfg: cfg, streams: make(map[string]stream)}
	r.mu.Init(lockrank.Registry)
	r.acc = hub.NewAcceptor(cfg.JoinTimeout, ErrClosed, r.Route)
	return r, nil
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

// StreamEndedRefused counts the stream-ended refusal an ended stream's hub
// is about to write on c: counted before the frame goes out, it is in
// Stats by the time the client reads it.
func (c *countedConn) StreamEndedRefused() {
	c.r.streamEnded.Add(1)
	c.r.hubEnded.Add(1)
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
	if err := wire.ValidateStreamID(id); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() || r.draining {
		return nil, ErrClosed
	}
	if st, ok := r.streams[id]; ok && st.ended {
		return nil, fmt.Errorf("%w: %s", ErrStreamEnded, id)
	} else if ok {
		return nil, fmt.Errorf("%w: %s", ErrStreamExists, id)
	}
	if live := r.liveLocked(); r.cfg.MaxStreams > 0 && len(live) >= r.cfg.MaxStreams {
		return nil, fmt.Errorf("%w (%d live)", ErrMaxStreams, len(live))
	}
	hcfg := r.cfg.Hub
	hcfg.StreamID = id
	h, err := hub.New(hcfg)
	if err != nil {
		return nil, err
	}
	r.streams[id] = stream{h: h}
	r.created.Add(1)
	return h, nil
}

// Hub returns the live stream's hub, or nil if id is not currently serving.
func (r *Registry) Hub(id string) *hub.Hub {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st := r.streams[id]; !st.ended {
		return st.h
	}
	return nil
}

// Streams returns the live stream ids, sorted.
func (r *Registry) Streams() []string {
	r.mu.Lock()
	ids := make([]string, 0, len(r.streams))
	for _, h := range r.liveLocked() {
		ids = append(ids, h.StreamID())
	}
	r.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// liveLocked returns the live streams' hubs. Caller holds r.mu.
func (r *Registry) liveLocked() []*hub.Hub {
	var hubs []*hub.Hub
	for _, st := range r.streams {
		if !st.ended {
			hubs = append(hubs, st.h)
		}
	}
	return hubs
}

// end turns id's entry into a tombstone and returns its hub.
func (r *Registry) end(id string) (*hub.Hub, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.streams[id]
	switch {
	case !ok:
		return nil, fmt.Errorf("%w: %s", ErrUnknownStream, id)
	case st.ended:
		return nil, fmt.Errorf("%w: %s", ErrStreamEnded, id)
	}
	r.streams[id] = stream{h: st.h, ended: true}
	return st.h, nil
}

// End gracefully ends one stream: generation stops, its attached paths
// drain the ring and receive end markers, and from this moment joins for
// id are answered with a stream-ended reject — but for the re-attach of a
// subscription the hub still owes packets, which drains. Sibling streams
// are unaffected. End does not wait for the drain; use the hub handle
// (from Create or Hub, before End) or DrainStream for a bounded wait.
func (r *Registry) End(id string) error {
	h, err := r.end(id)
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
	h, err := r.end(id)
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
	hubs := r.liveLocked()
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
// stream is sealed at once, and each hub's Drain then waits against one
// deadline timeout from now (shared, not per stream); then the registry
// closes. It returns true when everything drained in time.
func (r *Registry) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	r.BeginDrain()
	r.mu.Lock()
	hubs := r.releaseLocked()
	r.mu.Unlock()
	for _, h := range hubs {
		h.Stop()
	}
	drained := true
	for _, h := range hubs {
		drained = h.Drain(time.Until(deadline)) && drained
	}
	r.Close()
	return drained
}

// releaseLocked turns every entry into a tombstone without a hub and
// returns the hubs the registry held, live and ended. Caller holds r.mu.
func (r *Registry) releaseLocked() []*hub.Hub {
	var hubs []*hub.Hub
	for id, st := range r.streams {
		if st.h != nil {
			hubs = append(hubs, st.h)
			r.streams[id] = stream{ended: true}
		}
	}
	return hubs
}

// Attach performs the join handshake on conn and routes the connection to
// the stream its join names. It closes conn on any error; refusals answer
// with the typed reject frame and the returned error unwraps to the
// matching wire sentinel.
func (r *Registry) Attach(conn net.Conn) error { return r.acc.Attach(conn) }

// Route admits a connection whose join has already been read: look the
// stream up, apply the registry-wide caps, and hand the connection to the
// owning hub — an ended stream's too, while the registry holds it, whose
// own admission rule refuses anything but a subscription it still owes.
// The registry lock covers only the lookup and cap check — never a reject
// write or the hub attach — so refused or slow clients on one stream
// cannot stall routing for the others. A redialing path storm lands here
// once per reconnect attempt.
func (r *Registry) Route(conn net.Conn, j wire.Join) error {
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
		r.acc.Reject(conn, wire.RejectStreamEnded)
		return ErrClosed
	}
	st, ok := r.streams[j.StreamID]
	h := st.h
	if h == nil {
		r.mu.Unlock()
		if ok {
			r.streamEnded.Add(1)
			return fmt.Errorf("%w: %s: %s", ErrStreamEnded, j.StreamID,
				r.acc.Reject(conn, wire.RejectStreamEnded))
		}
		r.unknownStream.Add(1)
		return fmt.Errorf("%w: %q: %s", ErrUnknownStream, j.StreamID,
			r.acc.Reject(conn, wire.RejectUnknownStream))
	}
	// Draining and the subscriber cap turn fresh tokens away from a live
	// stream. An ended stream's hub admits no fresh token and answers it
	// stream-ended itself, so neither applies to it.
	if r.draining && !st.ended && !h.HasSubscriber(j.Token) {
		// Draining answers before any capacity check, like the hub's own
		// admission order: a fresh token during drain is told the truth
		// (draining), not a coincidental server-full.
		r.mu.Unlock()
		return fmt.Errorf("registry: draining: %w", r.acc.Reject(conn, wire.RejectDraining))
	}
	if r.cfg.MaxConns > 0 && int(r.connCount.Load()) >= r.cfg.MaxConns {
		r.mu.Unlock()
		return fmt.Errorf("registry: %d connections attached: %w",
			r.cfg.MaxConns, r.acc.Reject(conn, wire.RejectServerFull))
	}
	if r.cfg.MaxSubscribers > 0 && !st.ended {
		total := 0
		for _, ls := range r.streams {
			if !ls.ended {
				total += ls.h.SubscriberCount()
			}
		}
		// Re-attaches of tokens the stream already knows are exempt, like
		// the hub's own fresh-token rule: a full house never strands a
		// subscription that is only healing a flapped path.
		if total >= r.cfg.MaxSubscribers && !h.HasSubscriber(j.Token) {
			r.mu.Unlock()
			return fmt.Errorf("registry: %d subscribers attached: %w",
				total, r.acc.Reject(conn, wire.RejectServerFull))
		}
	}
	r.connCount.Add(1)
	r.mu.Unlock()
	err := h.AttachJoined(&countedConn{Conn: conn, r: r}, j)
	if errors.Is(err, hub.ErrStreamEnded) { // counted by StreamEndedRefused
		return fmt.Errorf("%w: %s", ErrStreamEnded, j.StreamID)
	}
	return err
}

// Serve accepts connections on ln and routes each join to its stream,
// through the same Acceptor a hub serves with: capped backoff on temporary
// errors, a handshake concurrency cap shedding slowloris herds with a
// server-full reject. It returns when ln is closed; per-connection failures
// are counted, not returned.
func (r *Registry) Serve(ln net.Listener) error { return r.acc.Serve(ln) }

// Close force-stops the registry: every stream's hub is closed (paths are
// NOT drained), listeners and mid-handshake connections are cut, and new
// joins and Creates are refused. It waits for all goroutines to exit.
func (r *Registry) Close() {
	r.mu.Lock()
	r.closed.Store(true)
	hubs := r.releaseLocked()
	r.mu.Unlock()
	r.acc.Close()
	for _, h := range hubs {
		h.Close()
	}
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
		UnknownStream: r.unknownStream.Load(),
		StreamEnded:   r.streamEnded.Load(),
		Handshaking:   r.acc.Handshaking(),
	}
	st.AcceptRetries, st.Rejected, _ = r.acc.Counters()
	st.Rejected += r.hubEnded.Load()
	r.mu.Lock()
	st.Draining = r.draining
	hubs := r.liveLocked()
	for id, s := range r.streams {
		if s.ended {
			st.Ended = append(st.Ended, id)
		}
	}
	r.mu.Unlock()
	for _, h := range hubs {
		st.Streams = append(st.Streams, StreamStats{ID: h.StreamID(), Hub: h.Stats()})
	}
	sort.Slice(st.Streams, func(i, j int) bool { return st.Streams[i].ID < st.Streams[j].ID })
	sort.Strings(st.Ended)
	return st
}
