package core

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"
)

// DefaultEndGrace bounds how long the remaining paths may keep delivering
// after the first end marker arrives. A path that has gone silent (a
// blackholed link never surfaces a read error) would otherwise block
// reassembly forever even though the surviving paths finished the stream.
const DefaultEndGrace = 10 * time.Second

// arrivalBlockLen is how many arrivals one block of the receiver's log holds.
// The log grows a block at a time, so recording a packet never copies the
// record so far under the lock every path's reader shares, and the slack is
// at most one block (12 KB) rather than up to the whole log again.
const arrivalBlockLen = 512

type arrivalBlock [arrivalBlockLen]Arrival

// ReceiverOptions tunes a Receiver.
type ReceiverOptions struct {
	// EndGrace is the post-end-marker deadline armed on every path that has
	// not finished yet: a path still silent that long after the stream ended
	// fails with a timeout instead of hanging reassembly. 0 selects
	// DefaultEndGrace; negative disables the guard (a silent path then
	// blocks until its connection dies, the pre-resilience behavior).
	EndGrace time.Duration
	// OnPacket, when set, is called once per distinct packet as it first
	// arrives (duplicates never reach it), under the receiver's lock — the
	// callback must be quick and must not call back into the Receiver.
	// The payload slice is a borrowed view of the read buffer, valid only
	// for the duration of the call; copy it out to keep it.
	OnPacket func(pkt uint32, genNanos int64, payload []byte)
}

// Receiver reassembles a multipath stream with dynamic path membership:
// unlike Receive's fixed connection set, paths can be (re)attached while the
// stream runs — Run a connection per path, and redial-and-Run again when one
// dies. Packets are deduplicated across attachments, so a server resending a
// dead path's window does not double-deliver.
type Receiver struct {
	grace    time.Duration
	onPacket func(pkt uint32, genNanos int64, payload []byte)

	mu       sync.Mutex
	log      []*arrivalBlock       // guarded by mu; every block but the last is full
	n        int                   // guarded by mu; arrivals in log
	seen     PacketSet             // guarded by mu
	dups     int64                 // guarded by mu
	muRate   float64               // guarded by mu
	payload  int                   // guarded by mu
	expected int64                 // guarded by mu; -1 until an end marker
	endSeen  bool                  // guarded by mu
	active   map[net.Conn]struct{} // guarded by mu; conns currently in Run
	done     chan struct{}         // closed when the first end marker arrives
}

// NewReceiver builds an empty Receiver; attach paths with Run.
func NewReceiver(opts ReceiverOptions) *Receiver {
	grace := opts.EndGrace
	if grace == 0 {
		grace = DefaultEndGrace
	}
	return &Receiver{
		grace:    grace,
		onPacket: opts.OnPacket,
		active:   make(map[net.Conn]struct{}),
		expected: -1,
		done:     make(chan struct{}),
	}
}

// Run consumes one path connection until its end marker (nil) or a terminal
// error. It may be called concurrently for different paths and again for the
// same path index after a redial; the caller owns (and closes) conn.
func (r *Receiver) Run(path int, conn net.Conn) error {
	r.mu.Lock()
	r.active[conn] = struct{}{}
	if r.endSeen && r.grace > 0 {
		conn.SetReadDeadline(time.Now().Add(r.grace))
	}
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.active, conn)
		r.mu.Unlock()
	}()

	mu, payload, err := readHeader(conn)
	if err != nil {
		return fmt.Errorf("core: path %d: %w", path, err)
	}
	r.mu.Lock()
	var mismatch error
	switch {
	case r.muRate == 0: // first header: it sets what the siblings must match
		r.muRate, r.payload = mu, payload
	case r.muRate != mu:
		mismatch = fmt.Errorf("core: path %d announces µ=%v, another path %v", path, mu, r.muRate)
	case r.payload != payload:
		mismatch = fmt.Errorf("core: path %d announces %d-byte payloads, another path %d", path, payload, r.payload)
	}
	r.mu.Unlock()
	if mismatch != nil {
		return mismatch
	}

	frame := make([]byte, frameHdr+payload)
	for {
		// nolint:netdeadline client-side read loop: bounded by the server's
		// end marker plus the EndGrace deadline armed once any path ends.
		if _, err := io.ReadFull(conn, frame); err != nil {
			return fmt.Errorf("core: path %d read: %w", path, err)
		}
		pkt, v, err := ParseFrameHeader(frame)
		if err != nil {
			return fmt.Errorf("core: path %d: %w", path, err)
		}
		if pkt == EndMarker {
			r.finish(v, conn)
			return nil
		}
		r.mu.Lock()
		if !r.seen.Add(pkt) {
			r.dups++
		} else {
			r.recordLocked(Arrival{Pkt: pkt, Path: int32(path), Gen: v, At: time.Now().UnixNano()})
			if r.onPacket != nil {
				r.onPacket(pkt, v, frame[frameHdr:])
			}
		}
		r.mu.Unlock()
	}
}

// recordLocked appends one arrival to the log. Caller holds r.mu.
func (r *Receiver) recordLocked(a Arrival) {
	i := r.n % arrivalBlockLen
	if i == 0 {
		r.log = append(r.log, new(arrivalBlock))
	}
	r.log[len(r.log)-1][i] = a
	r.n++
}

// finish records an end marker: the expected count is the max announced by
// any path (paths of a live hub subscription drain at slightly different
// times), and on the first marker every other in-flight path gets the grace
// deadline so a silent one cannot block reassembly forever.
func (r *Receiver) finish(expected int64, self net.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if expected > r.expected {
		r.expected = expected
	}
	if r.endSeen {
		return
	}
	r.endSeen = true
	close(r.done)
	if r.grace > 0 {
		dl := time.Now().Add(r.grace)
		for c := range r.active {
			if c != self {
				c.SetReadDeadline(dl)
			}
		}
	}
}

// Done is closed once any path has delivered its end marker — the signal
// that the stream is over and redialing is pointless.
func (r *Receiver) Done() <-chan struct{} { return r.done }

// Trace snapshots the merged arrival record, ordered by arrival time.
// Arrivals are stamped under r.mu, so the log is already in that order
// unless the wall clock stepped back; only then is it sorted, stably, so
// arrivals with equal stamps keep the order they were recorded in.
func (r *Receiver) Trace() *Trace {
	r.mu.Lock()
	tr := &Trace{
		Mu:          r.muRate,
		PayloadSize: r.payload,
		Arrivals:    make([]Arrival, 0, r.n),
		Duplicates:  r.dups,
	}
	for _, b := range r.log {
		tr.Arrivals = append(tr.Arrivals, b[:min(arrivalBlockLen, r.n-len(tr.Arrivals))]...)
	}
	if r.expected > 0 {
		tr.Expected = r.expected
	}
	r.mu.Unlock()
	byArrival := func(a, b Arrival) int { return cmp.Compare(a.At, b.At) }
	if !slices.IsSortedFunc(tr.Arrivals, byArrival) {
		slices.SortStableFunc(tr.Arrivals, byArrival)
	}
	return tr
}

// Receive reads a whole session from the given path connections and returns
// the merged arrival trace. It blocks until every path delivers its end
// marker or fails — where "fails" includes staying silent for EndGrace
// after another path finished the stream; a partial trace plus the first
// error is returned on failure.
func Receive(conns []net.Conn) (*Trace, error) {
	return ReceiveOpts(conns, ReceiverOptions{})
}

// ReceiveOpts is Receive with explicit ReceiverOptions.
func ReceiveOpts(conns []net.Conn, opts ReceiverOptions) (*Trace, error) {
	if len(conns) == 0 {
		return nil, errors.New("core: no paths")
	}
	r := NewReceiver(opts)
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for k, conn := range conns {
		wg.Add(1)
		go func(k int, conn net.Conn) {
			defer wg.Done()
			errs[k] = r.Run(k, conn)
		}(k, conn)
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	return r.Trace(), firstErr
}
