package core

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dmpstream/internal/lockrank"
	"dmpstream/internal/wire"
)

// DefaultEndGrace bounds how long the remaining paths may keep delivering
// after the first end marker arrives. A path that has gone silent (a
// blackholed link never surfaces a read error) would otherwise block
// reassembly forever even though the surviving paths finished the stream.
const DefaultEndGrace = 10 * time.Second

// PathReader is the client end of a multipath session: every path
// connection of one stream is read here into one consumer, the paper's
// single reassembly point. It is the locked shell of endRule, which holds
// what the paths share, and owns the set of connections being read and
// the end-grace deadlines the rule arms on them; it hands each frame to the
// consumer once, outside its own lock. It keeps nothing per packet:
// deduplication, reassembly and playout are the consumer's (Receiver,
// Play, an edge relay's forwarder).
type PathReader struct {
	grace    time.Duration
	onHeader func(mu float64, payload int) error
	onFrame  func(path int, pkt uint32, gen int64, payload []byte)

	mu     lockrank.Mutex
	rule   endRule               // guarded by mu
	active map[net.Conn]struct{} // guarded by mu; conns currently in Run
	done   chan struct{}         // closed on the first end marker
}

// endRule is the client's end-of-stream rule over the paths of one stream,
// a pure step (no lock, conn or clock). A path's header answers consume
// (nil) or refuse, and its end marker finish; a read error, EOF or the end
// grace expiring refuses the path and changes nothing here. Frames never
// reach the rule: the frame loop takes no lock.
type endRule struct {
	mu       float64 // the rate every path must announce; 0 until the first header
	payload  int     // the payload size every path must announce
	expected int64   // the stream's count, the max over -1 and the end markers
	ended    bool    // an end marker came; its count may be any int64 the wire carries
}

// header agrees a path's header with the first one, which sets what every
// sibling must announce.
func (e *endRule) header(path int, mu float64, payload int) error {
	switch {
	case e.mu == 0:
		e.mu, e.payload = mu, payload
	case e.mu != mu:
		return fmt.Errorf("core: path %d announces µ=%v, another path %v", path, mu, e.mu)
	case e.payload != payload:
		return fmt.Errorf("core: path %d announces %d-byte payloads, another path %d", path, payload, e.payload)
	}
	return nil
}

// end records an end marker announcing count; the stream's count is the
// max over every path's (a live hub subscription's paths drain at slightly
// different times). On the first, arm the end grace on every other path in
// flight.
func (e *endRule) end(count int64) (arm bool) {
	arm = !e.ended
	e.ended = true
	e.expected = max(e.expected, count)
	return arm
}

// NewPathReader builds a reader that hands every frame to onFrame. grace is
// the post-end-marker deadline (0 selects DefaultEndGrace, negative disables
// it). onHeader, when set, runs on every path once its header agrees with
// the first, before the path's first frame; its error ends that path.
// onFrame's payload is a borrowed view of the path's read buffer, valid only
// for the call; calls for different paths run concurrently.
func NewPathReader(grace time.Duration, onHeader func(mu float64, payload int) error,
	onFrame func(path int, pkt uint32, gen int64, payload []byte)) *PathReader {
	if grace == 0 {
		grace = DefaultEndGrace
	}
	pr := &PathReader{
		grace:    grace,
		onHeader: onHeader,
		onFrame:  onFrame,
		rule:     endRule{expected: -1},
		active:   make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
	pr.mu.Init(lockrank.PathReader)
	return pr
}

// Run consumes one path connection until its end marker (nil) or a terminal
// error. It may be called concurrently for different paths and again for the
// same path index after a redial; the caller owns (and closes) conn.
func (pr *PathReader) Run(path int, conn net.Conn) error {
	pr.mu.Lock()
	pr.active[conn] = struct{}{}
	if pr.rule.ended && pr.grace > 0 { // the stream ended: the end grace at once
		conn.SetReadDeadline(time.Now().Add(pr.grace))
	}
	pr.mu.Unlock()
	defer func() {
		pr.mu.Lock()
		delete(pr.active, conn)
		pr.mu.Unlock()
	}()

	mu, payload, err := wire.ReadStreamHeader(conn)
	if err != nil {
		return fmt.Errorf("core: path %d: %w", path, err)
	}
	pr.mu.Lock()
	err = pr.rule.header(path, mu, payload)
	pr.mu.Unlock()
	if err != nil {
		return err
	}
	if pr.onHeader != nil {
		if err := pr.onHeader(mu, payload); err != nil {
			return err
		}
	}
	frame := make([]byte, wire.FrameHeaderSize+payload)
	for {
		// Client-side read loop: bounded by the server's end marker plus the
		// EndGrace deadline armed once any path ends, and by the owner
		// closing conn.
		if _, err := io.ReadFull(conn, frame); err != nil {
			return fmt.Errorf("core: path %d read: %w", path, err)
		}
		pkt, v, _ := wire.ParseFrameHeader(frame) // frame is never shorter than a header
		if pkt == wire.EndMarker {
			pr.finish(v, conn)
			return nil
		}
		pr.onFrame(path, pkt, v, frame[wire.FrameHeaderSize:])
	}
}

// RunAll runs conns[k] as path k, each on its own goroutine, and returns
// every path's error once all have returned.
func (pr *PathReader) RunAll(conns []net.Conn) []error {
	return forEach(len(conns), func(k int) error { return pr.Run(k, conns[k]) })
}

// forEach runs f(k) for every k < n, each on its own goroutine, and returns
// every call's error once all have returned.
func forEach(n int, f func(k int) error) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = f(k)
		}()
	}
	wg.Wait()
	return errs
}

// finish runs the rule on a path's end marker and, on the first, closes
// Done and arms the grace deadline on every other path in flight.
func (pr *PathReader) finish(expected int64, self net.Conn) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if !pr.rule.end(expected) {
		return
	}
	close(pr.done)
	if pr.grace > 0 {
		dl := time.Now().Add(pr.grace)
		for c := range pr.active {
			if c != self {
				c.SetReadDeadline(dl)
			}
		}
	}
}

// Done is closed once any path has delivered its end marker — the signal
// that the stream is over and redialing is pointless.
func (pr *PathReader) Done() <-chan struct{} { return pr.done }

// Header returns the rate and payload size the paths agreed on; µ is 0
// until the first header.
func (pr *PathReader) Header() (mu float64, payload int) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.rule.mu, pr.rule.payload
}

// Expected returns the stream's packet count, the max over the end markers
// seen so far, or -1 before the first.
func (pr *PathReader) Expected() int64 {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.rule.expected
}

// Conns snapshots the connections currently being read — the set an owner
// closes to unwind its readers promptly.
func (pr *PathReader) Conns() []net.Conn {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	out := make([]net.Conn, 0, len(pr.active))
	for c := range pr.active {
		out = append(out, c)
	}
	return out
}
