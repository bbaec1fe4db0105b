// Package core is the real implementation of DMP-streaming over TCP
// connections — the paper's Section 3 scheme, as deployed in its Internet
// experiments (Section 6).
//
// A Server generates CBR video packets into a shared server queue, and each
// path takes packets from its head with a blocking Write. The queue and
// senders are a broadcast hub's (internal/hub) with one subscriber: the
// ring is the queue, the subscriber's cursor its head, and a path blocked
// in Write holds no lock while its siblings keep fetching. Send-buffer
// backpressure therefore allocates packets to paths in proportion to their
// achievable throughput — no probing, exactly as the paper argues.
//
// The Client reads frames from all paths concurrently, reassembles by packet
// number and records a timestamped arrival trace, from which the fraction of
// late packets is computed for any startup delay in both playback order and
// arrival order (the paper's two accounting modes).
//
// The byte format both ends speak is internal/wire's. forward.go
// re-exports the 14 names of it the frozen benchmark module spells core.X
// — Config, Token, Join, RejectCode, RejectError, RejectServerFull,
// EndMarker, FrameHeaderSize, PutFrameHeader, ParseFrameHeader,
// WriteStreamHeader, ReadStreamHeader, WriteJoin and WriteReject — until
// the benchmark imports internal/wire.
package core

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync/atomic"
	"syscall"

	"dmpstream/internal/hub"
	"dmpstream/internal/lockrank"
	"dmpstream/internal/wire"
)

// Server streams a live CBR source over multiple paths.
type Server struct {
	cfg     hub.Config
	stopped atomic.Bool
	sess    atomic.Pointer[Session] // nil before Start
}

// NewServer validates the configuration and builds a server. Its queue is
// the hub's ring under hub.Keep: it holds every packet not yet taken, and
// every packet a path may still hand back, growing with that backlog up to
// hub.MaxLagWindow packets, so a backlogged path loses nothing short of
// that.
func NewServer(cfg wire.Config) (*Server, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	hc := hub.Config{
		Stream:    cfg,
		LagWindow: hub.MaxLagWindow,
		Policy:    hub.Keep,
		Shards:    1,
		// A session whose paths have all died waits for the next AddPath
		// for as long as the stream runs.
		ReattachGrace: math.MaxInt64,
		ResendWindow:  cfg.ResendWindow,
	}
	if hc.ResendWindow == 0 {
		hc.ResendWindow = -1 // only the write in hand is resent
	}
	if err := hc.Validate(); err != nil {
		return nil, err
	}
	return &Server{cfg: hc}, nil
}

// Stop ends generation; paths drain the queue and emit end markers.
func (s *Server) Stop() {
	s.stopped.Store(true)
	if sess := s.sess.Load(); sess != nil {
		sess.hub.Stop()
	}
}

// Generated returns the number of packets generated so far.
func (s *Server) Generated() int64 {
	if sess := s.sess.Load(); sess != nil {
		return sess.hub.Generated()
	}
	return 0
}

// PathCounts returns how many packets each path carried (valid after Serve).
func (s *Server) PathCounts() []int64 {
	sess := s.sess.Load()
	if sess == nil {
		return nil
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	out := make([]int64, len(sess.paths))
	for k, c := range sess.paths {
		out[k] = c.sent.Load()
	}
	return out
}

// Serve streams over the given connections, blocking until generation ends
// and every path drains (or fails). It returns the number of packets
// generated and the first error any sender hit (nil if all succeeded).
func (s *Server) Serve(conns []net.Conn) (int64, error) {
	if len(conns) == 0 {
		return 0, errors.New("core: no paths")
	}
	sess := s.Start()
	for _, conn := range conns {
		sess.AddPath(conn)
	}
	return sess.Wait()
}

// PathState is one path's position in the health state machine:
//
//	Active ──→ Dead
//	  └─────────┴──→ Removed
//
// A path is Active while writes complete, Dead once a write failed — a
// timed-out write (Config.WriteStallTimeout) is one — and its unsent window
// went back to the server queue, and Removed after RemovePath retired it.
type PathState int32

const (
	PathActive  PathState = iota // writing normally
	PathDead                     // a write failed; its window went to the surviving paths
	PathRemoved                  // RemovePath drained and retired the path
)

func (s PathState) String() string {
	switch s {
	case PathActive:
		return "active"
	case PathDead:
		return "dead"
	case PathRemoved:
		return "removed"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Session is a running stream whose paths can be added and removed while
// it is live, and survive each other's failure. It is its hub's one
// subscription; every path attaches as an absolute join under one token.
// mu is never held across a hub call, and the hub reaches the session (its
// pathConns' writes) holding no lock.
type Session struct {
	srv    *Server
	hub    *hub.Hub
	mu     lockrank.Mutex
	paths  []*pathConn // guarded by mu; indexed by path
	waited bool        // guarded by mu
}

// token is every session's subscriber token: its hub has no other.
var token wire.Token

// Start begins packet generation in the background and returns a Session to
// attach paths to. Call it once; the caller must eventually call Wait.
func (s *Server) Start() *Session {
	h, err := hub.New(s.cfg)
	if err != nil {
		panic(err) // NewServer validated the configuration
	}
	sess := &Session{srv: s, hub: h}
	sess.mu.Init(lockrank.Session)
	s.sess.Store(sess)
	if s.stopped.Load() {
		h.Stop()
	}
	return sess
}

// AddPath attaches a connection as a new path and returns its index. It
// must not be called after Wait has returned. A path added once the stream
// is over drains what the queue still holds; with nothing left it gets the
// stream-ended reject frame and is dead, with that error.
func (sess *Session) AddPath(conn net.Conn) int {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	pc := &pathConn{Conn: conn, sess: sess, frame: int64(wire.FrameHeaderSize + sess.srv.cfg.Stream.PayloadSize)}
	_, pc.vectored = conn.(syscall.Conn)
	sess.mu.Lock()
	if sess.waited {
		sess.mu.Unlock()
		panic("core: AddPath after Wait returned")
	}
	pc.k = len(sess.paths)
	sess.paths = append(sess.paths, pc)
	sess.mu.Unlock()
	if err := sess.hub.AttachJoined(pc, wire.Join{StreamID: sess.hub.StreamID(), Token: token, Flags: wire.JoinFlagAbsolute}); err != nil {
		pc.fail(err)
	}
	if sess.PathState(pc.k) == PathRemoved {
		sess.hub.RemovePath(token, pc) // removed while it attached
	}
	return pc.k
}

// PathStates snapshots every path's health state, indexed by path.
func (sess *Session) PathStates() []PathState {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	out := make([]PathState, len(sess.paths))
	for k, c := range sess.paths {
		out[k] = c.state
	}
	return out
}

// PathState returns path k's health state (PathRemoved for unknown k, the
// same answer as for a long-retired path).
func (sess *Session) PathState(k int) PathState {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if k < 0 || k >= len(sess.paths) {
		return PathRemoved
	}
	return sess.paths[k].state
}

// RemovePath gracefully drains path k: it finishes the write in hand, emits
// an end marker and is closed; the remaining paths absorb the load.
// Removing an unknown or already-removed path is a no-op.
func (sess *Session) RemovePath(k int) {
	sess.mu.Lock()
	if k < 0 || k >= len(sess.paths) || sess.paths[k].state == PathRemoved {
		sess.mu.Unlock()
		return
	}
	pc := sess.paths[k]
	pc.state = PathRemoved
	sess.mu.Unlock()
	sess.hub.RemovePath(token, pc)
}

// Wait blocks until generation has finished and every path has drained or
// failed, then closes the hub: a subscription whose paths all died still
// owed packets waits in its unbounded re-attach grace until then. It
// returns the number of packets generated and the joined errors of any
// failed paths.
func (sess *Session) Wait() (int64, error) {
	sess.hub.Wait()
	sess.hub.Close()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.waited = true
	var errs []error
	for _, c := range sess.paths {
		errs = append(errs, c.err)
	}
	return sess.hub.Generated(), errors.Join(errs...)
}

// pathConn is a path's connection as the hub sees it: it counts the frames
// that reach the connection whole and marks the path dead at its first
// failed write. The hub writes a path from one worker at a time.
type pathConn struct {
	net.Conn
	sess     *Session
	k        int
	frame    int64 // a frame's bytes on the wire
	vectored bool  // a kernel socket: a batch is one writev
	sent     atomic.Int64
	state    PathState // guarded by mu (the session's)
	err      error     // guarded by mu; the first failed write

	vec net.Buffers // a field, so WriteTo's pointer receiver does not move it to the heap
	buf []byte      // a batch gathered into one Write for a conn with no writev
}

func (c *pathConn) fail(err error) {
	c.sess.mu.Lock()
	defer c.sess.mu.Unlock()
	if c.state == PathActive {
		c.state = PathDead
	}
	if c.err == nil {
		c.err = fmt.Errorf("core: path %d: %w", c.k, err)
	}
}

func (c *pathConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if err != nil {
		c.fail(err)
	}
	return n, err
}

// WriteBuffers writes a batch of [header, payload] frames in one call: a
// socket takes it as one writev, any other conn as one Write of the frames
// gathered, where net.Buffers would make a Write of every header and every
// payload.
func (c *pathConn) WriteBuffers(bufs net.Buffers) (n int64, err error) {
	if c.vectored {
		c.vec = bufs
		n, err = c.vec.WriteTo(c.Conn)
		c.vec = nil
	} else {
		c.buf = c.buf[:0]
		for _, b := range bufs {
			c.buf = append(c.buf, b...)
		}
		var m int
		m, err = c.Conn.Write(c.buf)
		n = int64(m)
	}
	c.sent.Add(n / c.frame)
	if err != nil {
		c.fail(err)
	}
	return n, err
}

// Arrival is one received packet observation. The Receiver keeps each as a
// record of varint residuals against the arrivals before it, ≈ 7.4 bytes a
// packet for a CBR stream and never more than 30, and Trace decodes them
// back.
type Arrival struct {
	Pkt  uint32
	Path int32
	Gen  int64 // server generation timestamp, UnixNano
	At   int64 // client arrival timestamp, UnixNano
}

// Trace is the client-side record of a streaming session. Arrivals holds
// each distinct packet's first arrival; retransmissions of packets already
// received (a recovered path's resend window overlapping delivered content)
// are counted in Duplicates instead of appearing twice.
type Trace struct {
	Mu          float64
	PayloadSize int
	Expected    int64 // total packets the server generated
	Arrivals    []Arrival
	Duplicates  int64 // retransmitted packets discarded by reassembly
}

// LateFraction computes the fraction of late packets for startup delay tau
// (seconds), in true playback order and in arrival order. Packet deadlines
// are per-packet generation time + τ (server and client share a clock in
// this testbed; see DESIGN.md). Packets that never arrived count as late.
// Only a packet's first arrival counts in either order: a resend neither
// plays nor takes a playout slot. An arrival numbered Expected or above is
// not one of the stream's packets and counts for nothing, so both fractions
// stay within [0, 1].
func (t *Trace) LateFraction(tau float64) (playback, arrivalOrder float64) {
	if t.Expected == 0 {
		return 0, 0
	}
	inStream := func(a Arrival) bool { return int64(a.Pkt) < t.Expected }
	tauN := int64(tau * 1e9)
	var t0 int64 = 1<<63 - 1
	for _, a := range t.Arrivals {
		if a.Gen < t0 && inStream(a) {
			t0 = a.Gen
		}
	}
	var latePB, lateAO int64
	var seen PacketSet
	period := 1e9 / t.Mu
	for _, a := range t.Arrivals {
		if !inStream(a) || !seen.Add(a.Pkt) {
			continue
		}
		if a.At > a.Gen+tauN {
			latePB++
		}
		// The j-th distinct arrival plays in the j-th slot after t0 + τ.
		j := seen.Len() - 1
		if a.At > t0+tauN+int64(float64(j)*period) {
			lateAO++
		}
	}
	missing := t.Expected - int64(seen.Len())
	return float64(latePB+missing) / float64(t.Expected), float64(lateAO+missing) / float64(t.Expected)
}

// PathCounts returns per-path arrival counts.
func (t *Trace) PathCounts(numPaths int) []int64 {
	out := make([]int64, numPaths)
	for _, a := range t.Arrivals {
		if a.Path >= 0 && int(a.Path) < numPaths {
			out[a.Path]++
		}
	}
	return out
}

// ReorderCount counts arrivals whose packet number is below an earlier one.
func (t *Trace) ReorderCount() int64 {
	var n int64
	max := int64(-1)
	for _, a := range t.Arrivals {
		if int64(a.Pkt) < max {
			n++
		} else {
			max = int64(a.Pkt)
		}
	}
	return n
}
