// Package dmpstream is a TCP-based multipath live-streaming library — an
// implementation and performance-modeling toolkit for the DMP-streaming
// scheme of Wang, Wei, Guo and Towsley, "Multipath Live Streaming via TCP:
// Scheme, Performance and Benefits" (CoNEXT 2007).
//
// The package offers three coordinated surfaces:
//
//   - A production implementation of DMP-streaming over real TCP
//     connections: NewServer/Serve stripe a live CBR packet stream across K
//     paths using send-buffer backpressure to infer per-path achievable
//     throughput; Receive reassembles and records a timestamped trace.
//
//   - The paper's analytical model: Model.FractionLate predicts the fraction
//     of late packets for a startup delay from per-path TCP parameters
//     (loss rate, RTT, timeout ratio), and Model.RequiredStartupDelay finds
//     the buffer a target quality needs. This answers provisioning questions
//     ("can two 1.5 Mbps DSL lines carry a 2 Mbps live stream?") without
//     running traffic.
//
//   - A packet-level network simulator (SimulateStreaming) with full TCP
//     Reno, drop-tail bottlenecks and background traffic, for studying the
//     scheme under controlled congestion.
//
// The internal packages contain the substrates: internal/tcpsim (TCP Reno on
// a discrete-event engine), internal/dmpmodel (the composed Markov chain),
// internal/emunet (WAN emulation for real sockets), and internal/exps (the
// paper's full experiment suite; see EXPERIMENTS.md).
package dmpstream

import (
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"dmpstream/internal/core"
	"dmpstream/internal/dmpmodel"
	"dmpstream/internal/hub"
	"dmpstream/internal/netsim"
	"dmpstream/internal/registry"
	"dmpstream/internal/relay"
	"dmpstream/internal/sim"
	"dmpstream/internal/simstream"
	"dmpstream/internal/tcpmodel"
	"dmpstream/internal/tcpsim"
	"dmpstream/internal/wire"
)

// ---------- Real streaming over TCP ----------

// StreamConfig describes a live CBR video source.
type StreamConfig struct {
	// Rate is the packet generation (= playback) rate in packets per second.
	Rate float64
	// PayloadSize is the payload bytes per packet (default 1000).
	PayloadSize int
	// Count is the number of packets to stream; 0 streams until Stop.
	Count int64
	// Fill, if non-nil, fills each packet's payload with content. It must
	// be a pure function of the packet number, safe to call concurrently:
	// a packet's payload is rendered at every write, resends included.
	Fill func(pkt uint32, buf []byte)
	// WriteStallTimeout bounds each per-path write; a path stalling longer
	// is dead (its unsent window goes to the other paths) instead of
	// blocking the stream forever. 0 keeps blocking writes.
	WriteStallTimeout time.Duration
	// ResendWindow, when positive, requeues the last N packets a dead path
	// wrote so surviving paths retransmit them; the receiver deduplicates.
	ResendWindow int
}

// Server streams a live source over multiple TCP paths using DMP-streaming.
type Server struct{ inner *core.Server }

// NewServer validates cfg and creates a streaming server.
func NewServer(cfg StreamConfig) (*Server, error) {
	inner, err := core.NewServer(wire.Config{
		Mu:                cfg.Rate,
		PayloadSize:       cfg.PayloadSize,
		Count:             cfg.Count,
		Fill:              cfg.Fill,
		WriteStallTimeout: cfg.WriteStallTimeout,
		ResendWindow:      cfg.ResendWindow,
	})
	if err != nil {
		return nil, err
	}
	return &Server{inner: inner}, nil
}

// Serve streams over the given path connections (one TCP connection per
// path), blocking until the stream completes. It returns the number of
// packets generated.
func (s *Server) Serve(conns []net.Conn) (int64, error) { return s.inner.Serve(conns) }

// Stop ends a live (Count=0) stream; queued packets still drain.
func (s *Server) Stop() { s.inner.Stop() }

// Session is a running stream with dynamic path membership: paths may be
// added while streaming, and a failed path leaves the rest carrying the
// stream.
type Session struct{ inner *core.Session }

// Start begins generation and returns a Session; attach paths with AddPath
// and finish with Wait. Serve is the static-membership convenience wrapper.
func (s *Server) Start() *Session { return &Session{inner: s.inner.Start()} }

// AddPath attaches a connection as a new path, returning its index.
func (sess *Session) AddPath(conn net.Conn) int { return sess.inner.AddPath(conn) }

// RemovePath gracefully drains a path: its sender stops fetching and emits
// an end marker; the remaining paths absorb the load.
func (sess *Session) RemovePath(k int) { sess.inner.RemovePath(k) }

// Wait blocks until the stream completes; it returns the number of packets
// generated and the joined errors of any failed paths.
func (sess *Session) Wait() (int64, error) { return sess.inner.Wait() }

// PathState is one path's position in the health state machine:
// active → dead → removed.
type PathState = core.PathState

// Path health states (see Session.PathStates).
const (
	PathActive  = core.PathActive
	PathDead    = core.PathDead
	PathRemoved = core.PathRemoved
)

// PathStates snapshots every path's health state, indexed by path.
func (sess *Session) PathStates() []PathState { return sess.inner.PathStates() }

// PathCounts reports how many packets each path carried.
func (s *Server) PathCounts() []int64 { return s.inner.PathCounts() }

// Trace is a client-side record of a streaming session; it exposes the
// fraction of late packets for any startup delay.
type Trace = core.Trace

// Arrival is one received-packet observation within a Trace.
type Arrival = core.Arrival

// Receive consumes a streaming session from the given path connections and
// returns the merged arrival trace.
func Receive(conns []net.Conn) (*Trace, error) { return core.Receive(conns) }

// ReadTraceCSV loads a trace previously saved with Trace.WriteCSV.
func ReadTraceCSV(r io.Reader) (*Trace, error) { return core.ReadTraceCSV(r) }

// PlayerConfig configures real-time playout (see Play).
type PlayerConfig = core.PlayerConfig

// PlayerStats summarizes a live playout.
type PlayerStats = core.PlayerStats

// Play consumes a session in real time: packets are handed to the
// application at their playback slots (startup delay τ after stream start)
// and missing packets surface as glitches — the live counterpart of the
// trace analysis Receive enables.
func Play(conns []net.Conn, cfg PlayerConfig) (PlayerStats, error) {
	return core.Play(conns, cfg)
}

// RedialPolicy is a Client's reaction to a dead path: capped exponential
// backoff with deterministic seeded jitter and a per-path retry budget. The
// zero value never redials.
type RedialPolicy = core.RedialPolicy

// ReceiverOptions tunes stream reassembly (end-of-stream grace).
type ReceiverOptions = core.ReceiverOptions

// Client consumes a multipath stream and keeps its paths alive by redialing
// dead ones under a RedialPolicy; see NewStreamClient for the common
// dial-a-hub setup.
type Client = core.Client

// NewStreamClient builds a Client that dials one path per address and joins
// them all to streamID under a single fresh token. When a path dies
// mid-stream the client redials its address under policy and re-presents
// the same token, so the hub resumes the subscription (within its re-attach
// grace window) with numbering intact. A policy no redial schedule can
// follow — a negative Base, Max or Budget, a Jitter outside [0, 1], a
// Multiplier that is not finite — is an error. Run the returned client to
// stream.
func NewStreamClient(addrs []string, streamID string, policy RedialPolicy) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("dmpstream: no path addresses")
	}
	if err := core.ValidateRedialPolicy(policy); err != nil {
		return nil, err
	}
	tok, err := wire.NewToken()
	if err != nil {
		return nil, err
	}
	dests := make([]string, len(addrs))
	copy(dests, addrs)
	return &Client{
		Dial:   func(k int) (net.Conn, error) { return net.Dial("tcp", dests[k]) },
		Paths:  len(dests),
		Join:   &wire.Join{StreamID: streamID, Token: tok},
		Policy: policy,
	}, nil
}

// ---------- Broadcast hub ----------

// SlowPolicy selects how a Hub treats a subscriber that lags beyond the
// configured window.
type SlowPolicy int

const (
	// DropOldest skips the laggard ahead to the oldest packet still
	// buffered, counting the skipped packets as drops.
	DropOldest SlowPolicy = SlowPolicy(hub.DropOldest)
	// Evict disconnects the laggard.
	Evict SlowPolicy = SlowPolicy(hub.Evict)
)

// HubConfig describes a broadcast hub: one live CBR source fanned out to
// many multipath subscribers.
type HubConfig struct {
	// Rate is the packet generation (= playback) rate in packets per second.
	Rate float64
	// PayloadSize is the payload bytes per packet (default 1000).
	PayloadSize int
	// Count is the number of packets to stream; 0 streams until Stop/Close.
	Count int64
	// Fill, if non-nil, fills each packet's payload with content. It must
	// be a pure function of the packet number, safe to call concurrently:
	// the hub keeps only the payloads its subscribers still need and renders
	// a packet again for a late catch-up or a resend.
	Fill func(pkt uint32, buf []byte)
	// StreamID names the stream clients join (default "live").
	StreamID string
	// LagWindow is how many packets a subscriber may lag behind the live
	// source before SlowSubscriber applies (default 1024).
	LagWindow int
	// SlowSubscriber is the policy for subscribers exceeding LagWindow.
	SlowSubscriber SlowPolicy
	// WriteStallTimeout bounds each per-path write; 0 blocks indefinitely.
	WriteStallTimeout time.Duration
	// PathWriteBuffer, when positive, caps each path's kernel send buffer.
	PathWriteBuffer int
	// ReattachGrace keeps a subscription alive after its last path dies so a
	// redialing client can resume it with the same token. 0 selects the
	// default (5s); negative disables.
	ReattachGrace time.Duration
	// ResendWindow is how many of a dead path's most recent packets are
	// retransmitted on the subscriber's other paths. 0 selects the default
	// (64); negative disables.
	ResendWindow int
	// MaxSubscribers caps concurrent subscriptions; joins beyond the cap
	// receive a typed reject frame (ErrServerFull). 0 = unlimited.
	MaxSubscribers int
	// MaxConns caps total subscriber path connections. 0 = unlimited.
	MaxConns int
	// MaxBytes is the resource governor's budget: the total bytes the hub
	// may hold buffered for subscribers. When exceeded, the laggiest
	// subscriber is degraded (backlog dropped, lag window shrunk, finally
	// evicted) until the hub is back under budget. 0 = unlimited.
	MaxBytes int64
	// JoinTimeout bounds the join handshake on an accepted connection;
	// connections that stay silent longer are cut (slowloris defense).
	// 0 selects the default (10s); a negative value is an error.
	JoinTimeout time.Duration
}

// Hub broadcasts a single live source to many subscribers, each running its
// own DMP multipath session joined via the wire handshake (see JoinStream).
type Hub struct{ inner *hub.Hub }

// HubStats is a point-in-time snapshot of a Hub.
type HubStats = hub.Stats

// HubSubscriberStats is one subscriber's entry within HubStats.
type HubSubscriberStats = hub.SubscriberStats

// toInternal maps the façade hub configuration onto the internal one.
func (cfg HubConfig) toInternal() hub.Config {
	return hub.Config{
		Stream: wire.Config{
			Mu:                cfg.Rate,
			PayloadSize:       cfg.PayloadSize,
			Count:             cfg.Count,
			Fill:              cfg.Fill,
			WriteStallTimeout: cfg.WriteStallTimeout,
		},
		StreamID:        cfg.StreamID,
		LagWindow:       cfg.LagWindow,
		Policy:          hub.Policy(cfg.SlowSubscriber),
		PathWriteBuffer: cfg.PathWriteBuffer,
		ReattachGrace:   cfg.ReattachGrace,
		ResendWindow:    cfg.ResendWindow,
		MaxSubscribers:  cfg.MaxSubscribers,
		MaxConns:        cfg.MaxConns,
		MaxBytes:        cfg.MaxBytes,
		JoinTimeout:     cfg.JoinTimeout,
	}
}

// NewHub validates cfg, starts the live generator and returns the hub.
func NewHub(cfg HubConfig) (*Hub, error) {
	inner, err := hub.New(cfg.toInternal())
	if err != nil {
		return nil, err
	}
	return &Hub{inner: inner}, nil
}

// Serve accepts subscriber path connections on ln until ln closes.
func (h *Hub) Serve(ln net.Listener) error { return h.inner.Serve(ln) }

// Attach runs the join handshake on one already-accepted connection.
func (h *Hub) Attach(conn net.Conn) error { return h.inner.Attach(conn) }

// Stop ends generation; every path drains and receives an end marker.
func (h *Hub) Stop() { h.inner.Stop() }

// Wait blocks until generation has ended and every path has drained.
func (h *Hub) Wait() { h.inner.Wait() }

// Close force-stops the hub, closing listeners and subscriber connections.
func (h *Hub) Close() { h.inner.Close() }

// BeginDrain closes admission: fresh joins are rejected with ErrDraining
// while live subscriptions (and their re-attaches) continue undisturbed.
func (h *Hub) BeginDrain() { h.inner.BeginDrain() }

// Draining reports whether admission has been closed by BeginDrain/Drain.
func (h *Hub) Draining() bool { return h.inner.Draining() }

// Drain gracefully shuts the hub down: admission closes, generation stops,
// and every subscriber path is given until timeout to drain its backlog and
// end marker. It returns true if everything drained in time; on timeout the
// hub is force-closed and Drain returns false.
func (h *Hub) Drain(timeout time.Duration) bool { return h.inner.Drain(timeout) }

// Stats returns a snapshot: subscriber count, per-subscriber lag/paths/
// drops, aggregate goodput.
func (h *Hub) Stats() HubStats { return h.inner.Stats() }

// Generated returns the number of packets generated so far.
func (h *Hub) Generated() int64 { return h.inner.Generated() }

// ---------- Stream registry ----------

// RegistryConfig describes a multi-stream registry: many live hubs behind
// one accept loop, with joins routed by the stream id in the handshake.
type RegistryConfig struct {
	// Stream is the per-stream template: every CreateStream starts a hub
	// with this configuration, with only StreamID replaced by the stream's
	// id. Zero fields take the hub defaults.
	Stream HubConfig
	// MaxStreams caps concurrently live streams; CreateStream past it
	// returns ErrMaxStreams. 0 = unlimited.
	MaxStreams int
	// MaxSubscribers caps subscriptions summed across all streams (each
	// hub's own MaxSubscribers stays strict). 0 = unlimited.
	MaxSubscribers int
	// MaxConns strictly caps attached path connections across all streams.
	// 0 = unlimited.
	MaxConns int
	// JoinTimeout bounds the join handshake on accepted connections.
	// 0 selects the default (10s); a negative value is an error.
	JoinTimeout time.Duration
}

// Registry serves many concurrent live streams behind one accept loop. Each
// stream is an independent Hub: created, ended and drained on its own, with
// joins routed by the StreamID in the handshake. Joins naming no stream are
// refused with ErrUnknownStream; joins naming an ended stream with
// ErrStreamOver, forever — stream ids are single-use.
type Registry struct{ inner *registry.Registry }

// RegistryStats is a point-in-time snapshot of a Registry.
type RegistryStats = registry.Stats

// RegistryStreamStats is one live stream's entry within RegistryStats.
type RegistryStreamStats = registry.StreamStats

// Registry lifecycle errors (use errors.Is).
var (
	// ErrStreamExists: CreateStream named a currently live stream.
	ErrStreamExists = registry.ErrStreamExists
	// ErrStreamEnded: CreateStream named an already-ended stream; ids are
	// single-use so late joiners can never splice into an unrelated
	// successor stream.
	ErrStreamEnded = registry.ErrStreamEnded
	// ErrMaxStreams: CreateStream would exceed MaxStreams.
	ErrMaxStreams = registry.ErrMaxStreams
	// ErrRegistryClosed: the registry has been closed or is draining.
	ErrRegistryClosed = registry.ErrClosed
)

// NewRegistry validates cfg and returns an empty registry; add streams with
// CreateStream.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	inner, err := registry.New(registry.Config{
		Hub:            cfg.Stream.toInternal(),
		MaxStreams:     cfg.MaxStreams,
		MaxSubscribers: cfg.MaxSubscribers,
		MaxConns:       cfg.MaxConns,
		JoinTimeout:    cfg.JoinTimeout,
	})
	if err != nil {
		return nil, err
	}
	return &Registry{inner: inner}, nil
}

// CreateStream starts a new live stream under id and returns its hub. The
// generator starts immediately.
func (r *Registry) CreateStream(id string) (*Hub, error) {
	h, err := r.inner.Create(id)
	if err != nil {
		return nil, err
	}
	return &Hub{inner: h}, nil
}

// Stream returns the live stream's hub, or nil if id is not live.
func (r *Registry) Stream(id string) *Hub {
	h := r.inner.Hub(id)
	if h == nil {
		return nil
	}
	return &Hub{inner: h}
}

// Streams lists the live stream ids, sorted.
func (r *Registry) Streams() []string { return r.inner.Streams() }

// EndStream stops id's generator and tombstones the id: subscribers drain
// their backlog and end markers, and late joins are answered ErrStreamOver.
func (r *Registry) EndStream(id string) error { return r.inner.End(id) }

// DrainStream gracefully ends one stream: admission to it closes, the
// generator stops, and its subscribers get until timeout to drain. Sibling
// streams are undisturbed.
func (r *Registry) DrainStream(id string, timeout time.Duration) (bool, error) {
	return r.inner.DrainStream(id, timeout)
}

// Serve accepts subscriber connections on ln, routing each join to its
// stream, until ln closes.
func (r *Registry) Serve(ln net.Listener) error { return r.inner.Serve(ln) }

// Attach runs the join handshake on one already-accepted connection and
// routes it to its stream.
func (r *Registry) Attach(conn net.Conn) error { return r.inner.Attach(conn) }

// BeginDrain closes admission registry-wide: fresh joins are rejected with
// ErrDraining while live subscriptions continue undisturbed.
func (r *Registry) BeginDrain() { r.inner.BeginDrain() }

// Draining reports whether admission has been closed.
func (r *Registry) Draining() bool { return r.inner.Draining() }

// Drain gracefully shuts the whole registry down: admission closes, every
// stream's generation stops, and subscribers get until timeout to drain.
// It returns true if everything drained in time; on timeout the registry is
// force-closed and Drain returns false.
func (r *Registry) Drain(timeout time.Duration) bool { return r.inner.Drain(timeout) }

// Close force-stops every stream, closing listeners and connections.
func (r *Registry) Close() { r.inner.Close() }

// ConnCount returns the attached path connections across all streams.
func (r *Registry) ConnCount() int { return r.inner.ConnCount() }

// Stats snapshots the registry and every live stream.
func (r *Registry) Stats() RegistryStats { return r.inner.Stats() }

// Typed join-rejection errors. When a hub refuses a join it answers with a
// reject frame on the wire; clients surface it as an error matching both
// ErrRejected and the specific sentinel (use errors.Is). They propagate
// through Receive, Play and Client.Run wrapping intact.
var (
	// ErrRejected matches every reject, whatever the code.
	ErrRejected = wire.ErrRejected
	// ErrServerFull: the subscriber, connection or handshake cap is reached.
	ErrServerFull = wire.ErrServerFull
	// ErrUnknownStream: the stream id in the join is not served here.
	ErrUnknownStream = wire.ErrUnknownStream
	// ErrStreamOver: the stream already ended.
	ErrStreamOver = wire.ErrStreamOver
	// ErrDraining: the hub is shutting down and admits no new subscribers.
	ErrDraining = wire.ErrDraining
	// ErrEvicted: the resource governor removed this subscriber.
	ErrEvicted = wire.ErrEvicted
	// ErrUpstreamLost: the hub is an edge relay whose upstream feed is gone.
	ErrUpstreamLost = wire.ErrUpstreamLost
)

// ---------- Edge relay ----------

// RelayConfig describes a fault-tolerant edge relay: it joins an upstream
// hub (a Hub served elsewhere, or another relay) as an ordinary multipath
// subscriber and re-fans the stream through a local hub — the building
// block of a distribution tree.
type RelayConfig struct {
	// Upstreams is the ranked candidate list of upstream addresses, all
	// reaching the same feed. A dying path rotates to the next candidate.
	Upstreams []string
	// StreamID names the stream to subscribe and serve (default "live").
	StreamID string
	// Paths is the number of upstream path connections (default 2).
	Paths int
	// OrphanGrace is how long the relay tolerates zero live upstream paths
	// before declaring the feed lost (default 10s). Once orphaned, live
	// subscribers get a clean end marker and new joins ErrUpstreamLost.
	OrphanGrace time.Duration
	// ReorderWindow is the upstream reorder span in sequences (default
	// 256, below 2^20): a gap is abandoned once a packet arrives more than
	// this many sequences past it.
	ReorderWindow int
	// Downstream configures the local re-fan hub. Rate, PayloadSize, Count
	// and Fill are ignored: the relay's source is the upstream feed.
	Downstream HubConfig
}

// Relay is a fault-tolerant edge relay node; see RelayConfig.
type Relay struct{ inner *relay.Relay }

// RelayStats is a point-in-time snapshot of a Relay.
type RelayStats = relay.Stats

// NewRelay validates cfg and starts the upstream subscription. The
// downstream hub comes up once the upstream handshake reveals the stream
// geometry; Serve blocks until then.
func NewRelay(cfg RelayConfig) (*Relay, error) {
	inner, err := relay.New(relay.Config{
		Upstreams:     cfg.Upstreams,
		StreamID:      cfg.StreamID,
		Paths:         cfg.Paths,
		OrphanGrace:   cfg.OrphanGrace,
		ReorderWindow: cfg.ReorderWindow,
		Hub:           cfg.Downstream.toInternal(),
	})
	if err != nil {
		return nil, err
	}
	return &Relay{inner: inner}, nil
}

// Serve waits for the downstream hub to come up, then accepts subscriber
// connections on ln until ln closes. If the upstream feed never
// materializes it closes ln and returns relay.ErrNoUpstream.
func (r *Relay) Serve(ln net.Listener) error { return r.inner.Serve(ln) }

// Token returns the upstream subscription token (hex); reuse it via the
// dmpedge -token flag to re-attach after a process restart.
func (r *Relay) Token() string { return r.inner.Token().String() }

// BeginDrain closes downstream admission while live subscribers continue.
func (r *Relay) BeginDrain() { r.inner.BeginDrain() }

// Drain cascades a graceful shutdown: upstream detach first, then the
// local ring flushes and every downstream path gets an end marker. It
// returns true if everything drained within timeout.
func (r *Relay) Drain(timeout time.Duration) bool { return r.inner.Drain(timeout) }

// Close force-stops the relay: upstream paths, downstream hub, listeners.
func (r *Relay) Close() { r.inner.Close() }

// Stats snapshots the relay: health state, live paths, failovers,
// forwarding counters and the downstream hub.
func (r *Relay) Stats() RelayStats { return r.inner.Stats() }

// JoinStream attaches a set of path connections to one hub subscription:
// it writes the join handshake carrying streamID and a fresh shared token
// on every connection. After it returns, the connections form one multipath
// session — hand them to Receive or Play. The hex token is returned for
// correlation with HubStats.
func JoinStream(conns []net.Conn, streamID string) (string, error) {
	tok, err := wire.NewToken()
	if err != nil {
		return "", err
	}
	for _, conn := range conns {
		if err := wire.WriteJoin(conn, wire.Join{StreamID: streamID, Token: tok}); err != nil {
			return "", fmt.Errorf("dmpstream: join: %w", err)
		}
	}
	return tok.String(), nil
}

// DialStream dials one TCP connection per address (different addresses may
// route through different interfaces or relays — that is the multipath) and
// joins them all to streamID as a single hub subscription. On error, any
// connections already opened are closed.
func DialStream(addrs []string, streamID string) ([]net.Conn, error) {
	conns := make([]net.Conn, 0, len(addrs))
	closeAll := func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}
	for _, addr := range addrs {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			closeAll()
			return nil, err
		}
		conns = append(conns, c)
	}
	if _, err := JoinStream(conns, streamID); err != nil {
		closeAll()
		return nil, err
	}
	return conns, nil
}

// ---------- Analytical model ----------

// PathParams describes one network path for the analytical model.
type PathParams struct {
	LossRate     float64 // per-packet loss probability (0,1)
	RTT          time.Duration
	TimeoutRatio float64 // RTO/RTT, the paper's T_O (typically 1..4)
}

func (p PathParams) toModel() tcpmodel.Params {
	return tcpmodel.Params{P: p.LossRate, R: p.RTT.Seconds(), TO: p.TimeoutRatio}
}

// Model is the paper's analytical model of DMP-streaming over K paths.
type Model struct {
	Paths        []PathParams
	PlaybackRate float64 // packets per second
	// Budget bounds the Monte-Carlo effort per estimate (consumption events;
	// default 2,000,000). Larger budgets resolve smaller late fractions.
	Budget int64
	// Seed makes estimates reproducible (default 1).
	Seed int64
}

func (m Model) toInternal() (dmpmodel.Model, dmpmodel.Options) {
	paths := make([]tcpmodel.Params, len(m.Paths))
	for i, p := range m.Paths {
		paths[i] = p.toModel()
	}
	seed := m.Seed
	if seed == 0 {
		seed = 1
	}
	return dmpmodel.Model{Paths: paths, Mu: m.PlaybackRate},
		dmpmodel.Options{Seed: seed, MaxConsumptions: m.Budget}
}

// Validate reports whether the model can be evaluated: at least one path,
// a finite positive playback rate, and per path a loss rate in (0,1) and
// a finite positive RTT and timeout ratio.
func (m Model) Validate() error {
	im, _ := m.toInternal()
	return im.Validate()
}

// FractionLate predicts the stationary fraction of late packets for the
// given startup delay.
func (m Model) FractionLate(startupDelay time.Duration) (float64, error) {
	im, opts := m.toInternal()
	res, err := im.FractionLate(startupDelay.Seconds(), opts)
	if err != nil {
		return 0, err
	}
	return res.F, nil
}

// RequiredStartupDelay returns the smallest startup delay (0.5 s grid) that
// brings the fraction of late packets below threshold, searching up to
// maxDelay. It returns false when no delay up to maxDelay suffices, and an
// error when the rate is so high that the model's default warm-up stops the
// search short of maxDelay without an answer.
func (m Model) RequiredStartupDelay(threshold float64, maxDelay time.Duration) (time.Duration, bool, error) {
	im, opts := m.toInternal()
	tau, err := im.RequiredStartupDelay(threshold, 0.5, maxDelay.Seconds(), opts)
	if err != nil {
		return 0, false, err
	}
	if tau > maxDelay.Seconds() {
		return 0, false, nil
	}
	return time.Duration(tau * float64(time.Second)), true, nil
}

// AggregateThroughput returns σ_a, the summed achievable TCP throughput of
// the model's paths in packets per second. The paper's headline result: DMP
// streaming performs well once σ_a ≥ 1.6 × PlaybackRate (versus 2× for a
// single path).
func (m Model) AggregateThroughput() (float64, error) {
	im, _ := m.toInternal()
	return im.AggregateThroughput()
}

// PathThroughput returns the achievable TCP throughput of a single path in
// packets per second.
func PathThroughput(p PathParams) (float64, error) {
	return dmpmodel.Sigma(p.toModel())
}

// ---------- Packet-level simulation ----------

// SimPath describes one simulated path: a bottleneck link shared with
// background traffic, as in the paper's ns validation topology (Fig. 3).
type SimPath struct {
	BottleneckMbps float64       // bottleneck bandwidth
	OneWayDelay    time.Duration // bottleneck propagation delay
	BufferPkts     int           // drop-tail buffer, packets
	FTPFlows       int           // long-lived background flows
	HTTPFlows      int           // on/off web-like background flows
}

// SimResult is the outcome of a simulated streaming session.
type SimResult struct {
	Generated  int64
	Arrived    int64
	PathCounts []int64
	trace      *Trace
}

// LateFraction returns the fraction of late packets for startup delay tau
// (seconds) in playback order and in arrival order.
func (r *SimResult) LateFraction(tau float64) (playback, arrivalOrder float64) {
	return r.trace.LateFraction(tau)
}

// SimulateStreaming runs DMP-streaming at `rate` packets/second for
// `duration` of simulated time over the given paths and returns the arrival
// analysis. The run is deterministic for a given seed.
func SimulateStreaming(paths []SimPath, rate float64, duration time.Duration, seed int64) (*SimResult, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("dmpstream: no paths")
	}
	if !(rate > 0) || math.IsInf(rate, 1) {
		return nil, fmt.Errorf("dmpstream: rate %v must be finite and positive", rate)
	}
	if duration <= 0 {
		return nil, fmt.Errorf("dmpstream: duration %v must be positive", duration)
	}
	if n := rate * duration.Seconds(); !(n < float64(wire.EndMarker)) {
		return nil, fmt.Errorf("dmpstream: %g packets (rate × duration) do not fit below %d", n, wire.EndMarker)
	}
	for i, p := range paths {
		switch {
		case !(p.BottleneckMbps > 0) || math.IsInf(p.BottleneckMbps, 1):
			return nil, fmt.Errorf("dmpstream: path %d: bottleneck %v Mbps must be finite and positive", i, p.BottleneckMbps)
		case p.BufferPkts < 1:
			return nil, fmt.Errorf("dmpstream: path %d: buffer %d packets, want at least 1", i, p.BufferPkts)
		case p.OneWayDelay < 0 || p.FTPFlows < 0 || p.HTTPFlows < 0:
			return nil, fmt.Errorf("dmpstream: path %d: negative delay or flow count", i)
		}
	}
	s := sim.New(seed)
	var conns []*tcpsim.Conn
	var flowID netsim.FlowID = 1
	for _, p := range paths {
		attach := simstream.Dumbbell(s, p.BottleneckMbps, sim.Time(p.OneWayDelay), p.BufferPkts, false,
			p.FTPFlows, p.HTTPFlows, &flowID)
		conn := tcpsim.NewConn(s, flowID, tcpsim.Config{})
		attach(flowID, conn)
		flowID++
		conns = append(conns, conn)
	}
	st := simstream.New(s, simstream.VideoConfig{Mu: rate, Duration: sim.Time(duration)}, conns)
	st.Start()
	// Run past the horizon to let queued packets drain.
	s.Run(sim.Time(duration) + 120*sim.Second)
	return &SimResult{
		Generated:  st.Generated(),
		Arrived:    int64(len(st.Trace().Arrivals)),
		PathCounts: st.PathCounts(),
		trace:      st.Trace(),
	}, nil
}
