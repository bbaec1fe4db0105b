// Package core is the real implementation of DMP-streaming over TCP
// connections — the paper's Section 3 scheme, as deployed in its Internet
// experiments (Section 6).
//
// A Server generates CBR video packets into a shared server queue. One
// sender goroutine per path pops packets from the head of the queue and
// writes them to that path's connection with a blocking Write. The pop is
// serialized by the queue lock (the paper's "access to the server queue");
// a sender blocked inside Write holds no lock, so other paths keep fetching.
// Kernel (or relay) send-buffer backpressure therefore allocates packets to
// paths in proportion to their instantaneous achievable throughput — no
// probing, exactly as the paper argues.
//
// The Client reads frames from all paths concurrently, reassembles by packet
// number and records a timestamped arrival trace, from which the fraction of
// late packets is computed for any startup delay in both playback order and
// arrival order (the paper's two accounting modes).
package core

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dmpstream/internal/lockrank"
)

// Config describes the video source.
type Config struct {
	Mu          float64 // generation/playback rate, packets per second
	PayloadSize int     // payload bytes per packet (default 1000)
	Count       int64   // packets to generate; 0 = run until Stop
	// Fill, if set, fills each packet's payload (e.g. with encoded media).
	// It must be a pure function of the packet number — the same bytes on
	// every call for one packet — and safe to call concurrently: a sender
	// renders the payload at every write of a packet, resends included, and
	// a hub renders a packet again when a catch-up or a resend needs one its
	// ring no longer keeps.
	Fill func(pkt uint32, buf []byte)
	// WriteStallTimeout bounds each per-path Write: a path whose connection
	// stalls longer fails with a timeout error instead of blocking
	// Session.Wait forever. 0 (the default) keeps blocking writes.
	WriteStallTimeout time.Duration
	// StallRetries is how many consecutive stalled writes a path may absorb
	// before it is declared dead. While retrying, the path is in the
	// PathStalled state; a write completing moves it back to PathActive.
	// 0 (the default) declares the path dead on the first stall, matching
	// the pre-state-machine behavior.
	StallRetries int
	// ResendWindow, when positive, keeps the last ResendWindow packets each
	// path wrote; when a path dies, that window is returned to the server
	// queue so a surviving path retransmits it. This closes the in-flight
	// loss hole a dead TCP connection leaves (bytes acknowledged to the
	// sender's kernel but never delivered). Packets the client had in fact
	// already received arrive twice and are deduplicated by the Receiver.
	// 0 (the default) requeues only the single packet in the sender's hand.
	ResendWindow int
}

func (c Config) withDefaults() Config {
	if c.PayloadSize == 0 {
		c.PayloadSize = 1000
	}
	return c
}

func (c Config) validate() error {
	// The stream header carries µ in micro-packets/s and the generators
	// sleep time.Second/µ per packet, so a rate below 1e-6 goes on the
	// wire as 0 and one above 1e9 paces nothing (NaN fails both).
	if !(c.Mu*1e6 >= 1) || !(float64(time.Second)/c.Mu >= 1) {
		return fmt.Errorf("core: rate %v packets/s: want finite, within [1e-6, 1e9]", c.Mu)
	}
	if c.PayloadSize < 0 || c.PayloadSize > 1<<20 {
		return fmt.Errorf("core: payload size %d out of range", c.PayloadSize)
	}
	if c.Count < 0 {
		return fmt.Errorf("core: count %d < 0", c.Count)
	}
	if c.WriteStallTimeout < 0 {
		return fmt.Errorf("core: write stall timeout %v < 0", c.WriteStallTimeout)
	}
	if c.StallRetries < 0 {
		return fmt.Errorf("core: stall retries %d < 0", c.StallRetries)
	}
	if c.ResendWindow < 0 || c.ResendWindow > 1<<16 {
		return fmt.Errorf("core: resend window %d out of range", c.ResendWindow)
	}
	return nil
}

// Normalized applies defaults and validates, for embedders of Config (such
// as internal/hub) that build their own sender machinery.
func (c Config) Normalized() (Config, error) {
	c = c.withDefaults()
	if err := c.validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Server streams a live CBR source over multiple paths.
type Server struct {
	cfg Config

	mu      lockrank.Mutex
	cond    *sync.Cond
	queue   []queued // guarded by mu
	qhead   int      // guarded by mu
	stopped bool     // guarded by mu
	genDone bool     // guarded by mu

	generated int64   // guarded by mu
	pathSent  []int64 // guarded by mu
}

type queued struct {
	pkt uint32
	gen int64 // UnixNano generation timestamp
}

// NewServer validates the configuration and builds a server.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg}
	s.mu.Init(lockrank.Server)
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Stop ends generation; senders drain the queue and emit end markers.
func (s *Server) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Generated returns the number of packets generated so far.
func (s *Server) Generated() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generated
}

// PathCounts returns how many packets each path carried (valid after Serve).
func (s *Server) PathCounts() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int64, len(s.pathSent))
	copy(out, s.pathSent)
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
//	Active ⇄ Stalled → Dead
//	   └──────┴─────────┴──→ Removed
//
// A path is Active while writes complete, Stalled while a write-stall
// timeout is being retried (Config.StallRetries), Dead once its sender hit a
// terminal error (its unsent window went back to the server queue), and
// Removed after RemovePath retired it administratively.
type PathState int32

const (
	// PathActive: the sender is fetching and writing normally.
	PathActive PathState = iota
	// PathStalled: the last write timed out; the sender is retrying.
	PathStalled
	// PathDead: the sender exited on an error; in-flight packets were
	// returned to the server queue for the surviving paths.
	PathDead
	// PathRemoved: RemovePath drained and retired the path.
	PathRemoved
)

func (s PathState) String() string {
	switch s {
	case PathActive:
		return "active"
	case PathStalled:
		return "stalled"
	case PathDead:
		return "dead"
	case PathRemoved:
		return "removed"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Session is a running stream whose path membership can change while it is
// live: paths can be added mid-stream (e.g. a second interface coming up)
// and a failing path's sender stops fetching — after handing its unsent
// window back to the server queue — leaving the remaining paths to carry
// the stream. Every path moves through the PathState machine; query it with
// PathStates.
type Session struct {
	srv *Server

	mu     lockrank.Mutex
	wg     sync.WaitGroup
	errs   []error         // guarded by mu
	stops  []chan struct{} // guarded by mu
	waited bool            // guarded by mu
	states []PathState     // guarded by mu
}

// Start begins packet generation in the background and returns a Session to
// attach paths to. The caller must eventually call Wait.
func (s *Server) Start() *Session {
	sess := &Session{srv: s}
	sess.mu.Init(lockrank.Session)
	sess.wg.Add(1) // generation
	go func() {
		defer sess.wg.Done()
		s.generate()
	}()
	return sess
}

// AddPath attaches a connection as a new path and starts its sender. It
// returns the path index. AddPath must not be called after Wait has
// returned.
func (sess *Session) AddPath(conn net.Conn) int {
	sess.mu.Lock()
	if sess.waited {
		sess.mu.Unlock()
		panic("core: AddPath after Wait returned")
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	sess.srv.mu.Lock()
	k := len(sess.srv.pathSent)
	sess.srv.pathSent = append(sess.srv.pathSent, 0)
	sess.srv.mu.Unlock()
	sess.errs = append(sess.errs, nil)
	sess.states = append(sess.states, PathActive)
	stop := make(chan struct{})
	sess.stops = append(sess.stops, stop)
	sess.wg.Add(1)
	sess.mu.Unlock()

	go func() {
		defer sess.wg.Done()
		err := sess.sendLoop(k, conn, stop)
		if err != nil {
			sess.mu.Lock()
			sess.errs[k] = err
			sess.mu.Unlock()
		}
	}()
	return k
}

// setState moves path k through the health state machine. Dead and Removed
// are terminal except that a dead path may still be Removed; stale
// transitions out of a terminal state are ignored so a racing sender cannot
// resurrect a removed path.
func (sess *Session) setState(k int, st PathState) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	cur := sess.states[k]
	if cur == PathRemoved || (cur == PathDead && st != PathRemoved) {
		return
	}
	sess.states[k] = st
}

// PathStates snapshots every path's health state, indexed by the path index
// AddPath returned.
func (sess *Session) PathStates() []PathState {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	out := make([]PathState, len(sess.states))
	copy(out, sess.states)
	return out
}

// PathState returns path k's health state (PathRemoved for unknown k, the
// same answer as for a long-retired path).
func (sess *Session) PathState(k int) PathState {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if k < 0 || k >= len(sess.states) {
		return PathRemoved
	}
	return sess.states[k]
}

// RemovePath gracefully drains path k: its sender finishes the packet in
// hand, emits an end marker, and stops fetching; remaining paths absorb the
// load. The connection itself is left open for the caller to close. Removing
// an unknown or already-removed path is a no-op.
func (sess *Session) RemovePath(k int) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if k < 0 || k >= len(sess.stops) || sess.states[k] == PathRemoved {
		return
	}
	sess.states[k] = PathRemoved
	close(sess.stops[k])
	// Wake a sender that is blocked waiting for queue content.
	sess.srv.mu.Lock()
	sess.srv.cond.Broadcast()
	sess.srv.mu.Unlock()
}

// Wait blocks until generation has finished and every path has drained or
// failed. It returns the number of packets generated and the joined errors
// of any failed paths.
func (sess *Session) Wait() (int64, error) {
	sess.wg.Wait()
	sess.mu.Lock()
	sess.waited = true
	err := errors.Join(sess.errs...)
	sess.mu.Unlock()
	return sess.srv.Generated(), err
}

// generate produces packets on the CBR schedule until Count or Stop.
func (s *Server) generate() {
	period := time.Duration(float64(time.Second) / s.cfg.Mu)
	base := time.Now()
	for n := int64(0); ; n++ {
		if s.cfg.Count > 0 && n >= s.cfg.Count {
			break
		}
		// Drift-free schedule: packet n is due at base + n/µ.
		due := base.Add(time.Duration(n) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			break
		}
		s.queue = append(s.queue, queued{pkt: uint32(n), gen: time.Now().UnixNano()}) // amortized: popLocked compacts and reuses the backing array
		s.generated++
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	s.mu.Lock()
	s.genDone = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// pop fetches the head-of-queue packet, blocking while the queue is empty
// and generation continues. ok=false means the stream is over or the path
// was removed.
func (s *Server) pop(k int, stop <-chan struct{}) (queued, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		// Inline non-blocking stop check: a closure here would be a heap
		// allocation on every pop, i.e. one per frame per path.
		select {
		case <-stop:
			return queued{}, false
		default:
		}
		if s.qhead < len(s.queue) {
			return s.popLocked(k), true
		}
		if s.genDone || s.stopped {
			return queued{}, false // queue empty and no more production
		}
		s.cond.Wait()
	}
}

// popLocked pulls the head-of-queue packet and charges it to path k. The
// caller holds s.mu and has checked the queue is non-empty.
func (s *Server) popLocked(k int) queued {
	q := s.queue[s.qhead]
	s.qhead++
	if s.qhead == len(s.queue) {
		s.queue = s.queue[:0]
		s.qhead = 0
	} else if s.qhead > 32 && s.qhead*2 > len(s.queue) {
		// Compact once the consumed prefix dominates the slice, so a
		// persistent path deficit on a long live stream does not
		// retain every packet ever sent.
		n := copy(s.queue, s.queue[s.qhead:])
		s.queue = s.queue[:n]
		s.qhead = 0
	}
	s.pathSent[k]++
	return q
}

// popBatch fetches up to len(out) packets: a blocking pop for the head,
// then one more lock hold draining whatever the generator has already
// queued. A sender that fell behind (its connection briefly stalled, or
// a dead sibling's window was requeued) catches up with one syscall per
// batch instead of one per packet, while a sender keeping pace with the
// CBR schedule degenerates to batches of one — backpressure allocation
// across paths is untouched because packets are still claimed under the
// same queue lock, just amortized.
func (s *Server) popBatch(k int, stop <-chan struct{}, out []queued) (int, bool) {
	q, ok := s.pop(k, stop)
	if !ok {
		return 0, false
	}
	out[0] = q
	n := 1
	s.mu.Lock()
	for n < len(out) && s.qhead < len(s.queue) {
		out[n] = s.popLocked(k)
		n++
	}
	s.mu.Unlock()
	return n, true
}

// sendBatch bounds how many queued packets one sender claims and renders
// into its contiguous write buffer per fetch. A sender at pace sees
// batches of one; a sender catching up after a stall or a sibling's
// requeued window coalesces up to this many frames into a single Write.
const sendBatch = 32

// sendLoop is one path's sender: header, frames fetched from the shared
// queue, end marker. Batches claimed by popBatch are rendered into one
// contiguous buffer and written with a single Write call. On a terminal
// write error it hands the frames that never fully hit the wire — plus
// the last Config.ResendWindow packets it wrote, which may be stranded
// in dead kernel/relay buffers — back to the server queue, marks the
// path dead, and exits; the surviving paths absorb the returned packets.
func (sess *Session) sendLoop(k int, conn net.Conn, stop <-chan struct{}) error {
	s := sess.srv
	if err := s.writeHeader(k, conn); err != nil {
		sess.fail(k, nil, nil)
		return fmt.Errorf("core: path %d header: %w", k, err)
	}
	p := sess.newPathSender(k, conn)
	for {
		n, ok := s.popBatch(k, stop, p.batch)
		if !ok {
			break
		}
		if err := p.send(n); err != nil {
			return err
		}
	}
	// End marker: genNanos carries the generated count.
	end := p.buf[:p.frameSize]
	PutFrameHeader(end, EndMarker, s.Generated())
	if _, err := sess.writeFrame(k, conn, end); err != nil {
		sess.fail(k, nil, unroll(p.ring, p.next))
		return fmt.Errorf("core: path %d end marker: %w", k, err)
	}
	return nil
}

// pathSender is what one path's sender keeps between claims: the claim
// buffer, the render buffer and the resend ring.
type pathSender struct {
	sess      *Session
	k         int
	conn      net.Conn
	frameSize int
	batch     []queued // the claim buffer, sendBatch long
	// buf is the render buffer. It starts at one frame, a batch at pace,
	// and doubles when a catch-up batch needs more, up to sendBatch frames.
	// Once a whole run of sendBatch writes has used at most half of it, it
	// goes back to one frame.
	buf  []byte
	run  int // writes since buf last changed size or was checked
	peak int // the most frames one of those writes carried
	// ring holds the last cfg.ResendWindow packets written, oldest first
	// once unrolled; next is the slot the next write lands in.
	ring []queued
	next int
}

func (sess *Session) newPathSender(k int, conn net.Conn) pathSender {
	cfg := sess.srv.cfg
	frameSize := frameHdr + cfg.PayloadSize
	return pathSender{
		sess:      sess,
		k:         k,
		conn:      conn,
		frameSize: frameSize,
		batch:     make([]queued, sendBatch),
		buf:       make([]byte, frameSize),
		ring:      make([]queued, 0, cfg.ResendWindow),
	}
}

// send renders the first n claimed packets into the render buffer and
// writes them with one Write. On a terminal write error it marks the path
// dead, hands back what may not have reached the peer, and returns the
// error.
func (p *pathSender) send(n int) error {
	cfg := p.sess.srv.cfg
	size := p.frameSize
	grow := n*size > len(p.buf)
	if grow {
		frames := len(p.buf) / size
		for frames < n {
			frames *= 2
		}
		p.buf = make([]byte, min(frames, sendBatch)*size)
	}
	for i, q := range p.batch[:n] {
		f := p.buf[i*size : (i+1)*size]
		PutFrameHeader(f, q.pkt, q.gen)
		if cfg.Fill != nil {
			cfg.Fill(q.pkt, f[frameHdr:])
		}
	}
	wrote, err := p.sess.writeFrame(p.k, p.conn, p.buf[:n*size])
	if err != nil {
		// Frames fully on the wire count as written (they join the resend
		// ring like any other transmission, possibly stranded in dead
		// buffers); the partially-written frame and everything after it
		// never reached the peer and is requeued with its sent-count
		// rolled back.
		done := wrote / size
		p.remember(p.batch[:done])
		p.sess.fail(p.k, p.batch[done:n], unroll(p.ring, p.next))
		return fmt.Errorf("core: path %d write: %w", p.k, err)
	}
	p.remember(p.batch[:n])
	if grow { // the run starts after the write that sized the buffer
		p.run, p.peak = 0, 0
		return nil
	}
	p.peak = max(p.peak, n)
	if p.run++; p.run == sendBatch {
		if 2*p.peak*size <= len(p.buf) {
			p.buf = make([]byte, size)
		}
		p.run, p.peak = 0, 0
	}
	return nil
}

// remember adds written packets to the resend ring, overwriting the oldest
// once it holds cfg.ResendWindow.
func (p *pathSender) remember(written []queued) {
	w := p.sess.srv.cfg.ResendWindow
	if w == 0 {
		return
	}
	for _, q := range written {
		if len(p.ring) < w {
			p.ring = append(p.ring, q) // within the capacity newPathSender gave it
		} else {
			p.ring[p.next%w] = q
		}
		p.next++
	}
}

// unroll returns the ring's contents oldest-first. next is the total number
// of packets ever written through the ring.
func unroll(ring []queued, next int) []queued {
	if len(ring) == 0 || next <= len(ring) {
		return ring
	}
	start := next % len(ring)
	out := make([]queued, 0, len(ring))
	out = append(out, ring[start:]...)
	return append(out, ring[:start]...)
}

// fail marks path k dead and returns its undelivered window to the queue:
// the recently-written ring (possibly stranded in dead buffers) followed by
// the unsent tail of the failing batch (claimed but never fully written).
func (sess *Session) fail(k int, unsent []queued, ring []queued) {
	sess.setState(k, PathDead)
	sess.srv.requeue(k, unsent, ring)
}

// writeFrame writes one or more contiguous frames, arming the optional
// stall deadline before every attempt, and returns how many bytes hit the
// wire (meaningful on error: the caller divides by the frame size to tell
// delivered frames from ones to requeue). A timed-out write moves the path
// to PathStalled and is retried — resuming at the partial-write offset so
// framing survives — up to Config.StallRetries consecutive stalls; a write
// completing returns the path to PathActive. frame is only lent to
// conn.Write (re-sliced across stall retries); writeFrame must never
// retain or rewrite it.
func (sess *Session) writeFrame(k int, conn net.Conn, frame []byte) (int, error) {
	s := sess.srv
	stalls, off := 0, 0
	for {
		if s.cfg.WriteStallTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteStallTimeout))
		}
		n, err := conn.Write(frame[off:])
		off += n
		if err != nil {
			// Stall classification lives in this terminating block, off the
			// steady state: errors.As boxes its target into an interface, a
			// cost only error frames should ever pay.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && stalls < s.cfg.StallRetries {
				stalls++
				sess.setState(k, PathStalled)
				continue
			}
			return off, err
		}
		if off < len(frame) {
			continue
		}
		if stalls > 0 {
			sess.setState(k, PathActive)
		}
		return off, nil
	}
}

// requeue returns a dead path's undelivered packets to the head of the
// server queue, oldest first, so surviving senders retransmit them ahead of
// fresh content. Unsent packets were counted sent at claim time but never
// hit the wire, so their counts are rolled back; ring packets were genuinely
// transmitted once already and keep their count.
func (s *Server) requeue(k int, unsent []queued, ring []queued) {
	n := len(ring) + len(unsent)
	if n == 0 {
		return
	}
	pkts := make([]queued, 0, n)
	pkts = append(pkts, ring...)
	pkts = append(pkts, unsent...)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pathSent[k] -= int64(len(unsent))
	if s.qhead >= len(pkts) {
		s.qhead -= len(pkts)
		copy(s.queue[s.qhead:], pkts)
	} else {
		s.queue = append(pkts, s.queue[s.qhead:]...)
		s.qhead = 0
	}
	s.cond.Broadcast()
}

func (s *Server) writeHeader(k int, conn net.Conn) error {
	s.mu.Lock()
	numPaths := len(s.pathSent)
	s.mu.Unlock()
	return WriteStreamHeader(conn, k, numPaths, s.cfg.PayloadSize, s.cfg.Mu)
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
