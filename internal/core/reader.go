package core

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dmpstream/internal/lockrank"
)

// DefaultEndGrace bounds how long the remaining paths may keep delivering
// after the first end marker arrives. A path that has gone silent (a
// blackholed link never surfaces a read error) would otherwise block
// reassembly forever even though the surviving paths finished the stream.
const DefaultEndGrace = 10 * time.Second

// PathReader is the client end of a multipath session: every path
// connection of one stream is read here into one consumer, the paper's
// single reassembly point. It owns what the paths share — the stream header
// they must agree on, the expected count (the max over every end marker),
// the end-grace deadline the first end marker arms on silent siblings, and
// the set of connections being read — and hands each frame to the consumer
// once, outside its own lock. It keeps nothing per packet: deduplication,
// reassembly and playout are the consumer's (Receiver, Play, an edge
// relay's forwarder).
type PathReader struct {
	grace    time.Duration
	onHeader func(mu float64, payload int) error
	onFrame  func(path int, pkt uint32, gen int64, payload []byte)

	mu       lockrank.Mutex
	active   map[net.Conn]struct{} // guarded by mu; conns currently in Run
	muRate   float64               // guarded by mu; 0 until the first header
	payload  int                   // guarded by mu
	expected int64                 // guarded by mu; -1 until an end marker
	endSeen  bool                  // guarded by mu
	done     chan struct{}         // closed on the first end marker
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
		active:   make(map[net.Conn]struct{}),
		expected: -1,
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
	if pr.endSeen && pr.grace > 0 {
		conn.SetReadDeadline(time.Now().Add(pr.grace))
	}
	pr.mu.Unlock()
	defer func() {
		pr.mu.Lock()
		delete(pr.active, conn)
		pr.mu.Unlock()
	}()

	mu, payload, err := ReadStreamHeader(conn)
	if err != nil {
		return fmt.Errorf("core: path %d: %w", path, err)
	}
	if err := pr.agree(path, mu, payload); err != nil {
		return err
	}
	if pr.onHeader != nil {
		if err := pr.onHeader(mu, payload); err != nil {
			return err
		}
	}
	frame := make([]byte, frameHdr+payload)
	for {
		// Client-side read loop: bounded by the server's end marker plus the
		// EndGrace deadline armed once any path ends, and by the owner
		// closing conn.
		if _, err := io.ReadFull(conn, frame); err != nil {
			return fmt.Errorf("core: path %d read: %w", path, err)
		}
		pkt, v, _ := ParseFrameHeader(frame) // frame is never shorter than a header
		if pkt == EndMarker {
			pr.finish(v, conn)
			return nil
		}
		pr.onFrame(path, pkt, v, frame[frameHdr:])
	}
}

// RunAll runs conns[k] as path k, each on its own goroutine, and returns
// every path's error once all have returned.
func (pr *PathReader) RunAll(conns []net.Conn) []error {
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for k, conn := range conns {
		wg.Add(1)
		go func(k int, conn net.Conn) {
			defer wg.Done()
			errs[k] = pr.Run(k, conn)
		}(k, conn)
	}
	wg.Wait()
	return errs
}

// agree checks a path's header against the first one, which sets what every
// sibling must announce.
func (pr *PathReader) agree(path int, mu float64, payload int) error {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	switch {
	case pr.muRate == 0:
		pr.muRate, pr.payload = mu, payload
	case pr.muRate != mu:
		return fmt.Errorf("core: path %d announces µ=%v, another path %v", path, mu, pr.muRate)
	case pr.payload != payload:
		return fmt.Errorf("core: path %d announces %d-byte payloads, another path %d", path, payload, pr.payload)
	}
	return nil
}

// finish records an end marker: the expected count is the max announced by
// any path (paths of a live hub subscription drain at slightly different
// times), and on the first marker every other in-flight path gets the grace
// deadline so a silent one cannot block reassembly forever.
func (pr *PathReader) finish(expected int64, self net.Conn) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.expected = max(pr.expected, expected)
	if pr.endSeen {
		return
	}
	pr.endSeen = true
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
	return pr.muRate, pr.payload
}

// Expected returns the stream's packet count, the max over the end markers
// seen so far, or -1 before the first.
func (pr *PathReader) Expected() int64 {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.expected
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
