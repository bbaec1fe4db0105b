// Package sink is the benchmark's subscriber: a net.Conn that consumes a
// DMP path stream inside the sender's own Write call. It parses each frame
// header, checks sequence continuity and the payload pattern, and records
// the frame's generation-to-arrival delay on the spot, so a thousand
// subscribers cost no reader goroutines, no pipes and no copies — the load
// generator stays a small, fixed share of what the run measures.
package sink

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"time"

	"dmpstream/benchmark/stat"
	"dmpstream/benchmark/trace"
	"dmpstream/internal/core"
)

// streamHeaderSize is the v1 stream header (or join reject) every path
// starts with; core keeps the constant private but ReadStreamHeader
// consumes exactly this many bytes.
const streamHeaderSize = 20

// Fill renders packet pkt's payload: its absolute number in the first four
// bytes, then a pattern keyed by that number. A subscriber sees rebased
// numbers in the frame header, so the payload carrying the absolute one
// lets a sink check both the bytes and that the rebase offset never moves.
// It is the Stream.Fill of every benchmark source.
func Fill(pkt uint32, buf []byte) {
	if len(buf) < 4 {
		return
	}
	binary.BigEndian.PutUint32(buf, pkt)
	for i := 4; i < len(buf); i++ {
		buf[i] = pattern(pkt, i)
	}
}

func pattern(pkt uint32, i int) byte { return byte(pkt) ^ byte(pkt>>8) ^ byte(i*31) }

// CheckPayload reports whether buf is what Fill renders for the packet
// number it carries, and returns that number.
func CheckPayload(buf []byte) (pkt uint32, ok bool) {
	if len(buf) < 4 {
		return 0, false
	}
	pkt = binary.BigEndian.Uint32(buf)
	for i := 4; i < len(buf); i++ {
		if buf[i] != pattern(pkt, i) {
			return pkt, false
		}
	}
	return pkt, true
}

// Config describes one sink.
type Config struct {
	ID  int32
	Tau time.Duration // a frame older than this on arrival is late
	// Throttle, when set, makes the sink a slow consumer: each write blocks
	// until the bucket has room for its frames.
	Throttle *Throttle
	// Trace, when set, marks In on entry and Out on return of every write
	// that carries a sampled frame (Out left zero marks nothing). Shared
	// marks them as points of the frame itself rather than of this
	// subscriber — the tree's origin-side reference sink.
	Trace   *trace.Recorder
	In, Out trace.Point
	Shared  bool
	// Probe, when set, is fed every frame's absolute number and generation
	// stamp (how late the generator ran).
	Probe *stat.GenProbe
	// OnFirst is called once, when the first frame arrives.
	OnFirst func()
}

// Counters is a sink's cumulative record; Add merges many sinks into one.
type Counters struct {
	Frames int64 // frames accepted
	Gaps   int64 // packet numbers skipped between accepted frames
	Late   int64 // frames older than Tau on arrival
	Writes int64 // Write + WriteBuffers calls that carried frames
	Delay  stat.Hist
}

// Final is what a sink knows once its stream is over.
type Final struct {
	Counters
	Ended      bool  // the end marker arrived
	Generated  int64 // the end marker's count: packets generated since this sink joined
	TailGap    int64 // packets between the last frame and the end marker's count
	Rejected   core.RejectCode
	BadStream  int64 // unparsable stream header, or a frame number going backwards
	BadPayload int64 // sampled payloads that did not match Fill
	BadRebase  int64 // frames whose absolute-minus-rebased offset moved
}

// Sink is one in-process subscriber. It implements net.Conn and the hub's
// BuffersWriter, so a vectored batch arrives in one call.
type Sink struct {
	cfg Config

	mu     sync.Mutex
	closed bool
	sc     Scanner
	f      Final
	next   uint32
	delta  uint32 // absolute − rebased packet number
	seen   bool
	now    int64 // arrival stamp of the write being consumed
	hit    int64 // sampled frame carried by the write being consumed, or 0
}

// New returns a sink ready to be handed to AttachJoined or Route.
func New(cfg Config) *Sink { return &Sink{cfg: cfg} }

// ID returns the sink's id.
func (s *Sink) ID() int32 { return s.cfg.ID }

var errClosed = errors.New("sink: closed")

// Write consumes contiguous stream bytes.
func (s *Sink) Write(b []byte) (int, error) {
	if err := s.consume(net.Buffers{b}, len(b)); err != nil {
		return 0, err
	}
	return len(b), nil
}

// WriteBuffers consumes one vectored write.
func (s *Sink) WriteBuffers(bufs net.Buffers) (int64, error) {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	if err := s.consume(bufs, n); err != nil {
		return 0, err
	}
	return int64(n), nil
}

func (s *Sink) consume(bufs net.Buffers, size int) error {
	entry := time.Now()
	arrival := entry
	if t := s.cfg.Throttle; t != nil {
		// A slow consumer's buffer is full: the write blocks until it has
		// room, and the frames arrive when it is accepted.
		if fs := s.frameSize(); fs > 0 {
			if d := t.Delay(entry, size/fs); d > 0 {
				time.Sleep(d)
				arrival = time.Now()
			}
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errClosed
	}
	s.now, s.hit = arrival.UnixNano(), 0
	before := s.f.Frames
	for _, b := range bufs {
		s.sc.Feed(b, s)
	}
	if s.f.Frames > before {
		s.f.Writes++
	}
	hit := s.hit
	s.mu.Unlock()
	if hit != 0 {
		who := s.cfg.ID
		if s.cfg.Shared {
			who = trace.Shared
		}
		s.cfg.Trace.Mark(hit, s.cfg.In, entry.UnixNano(), who)
		if s.cfg.Out != trace.Gen {
			s.cfg.Trace.Mark(hit, s.cfg.Out, time.Now().UnixNano(), who)
		}
	}
	return nil
}

// frameSize returns the stream's frame size, 0 before the stream header.
func (s *Sink) frameSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.sc.started {
		return 0
	}
	return core.FrameHeaderSize + s.sc.payload
}

// Frame is the scanner's callback for one complete frame. Caller holds mu.
func (s *Sink) Frame(pkt uint32, stamp int64, payload []byte) {
	if pkt == core.EndMarker {
		s.f.Ended = true
		s.f.Generated = stamp
		if tail := stamp - int64(s.next); tail > 0 {
			s.f.TailGap = tail
		}
		return
	}
	switch {
	case pkt > s.next:
		s.f.Gaps += int64(pkt - s.next)
	case pkt < s.next:
		s.f.BadStream++
	}
	s.next = pkt + 1
	s.f.Frames++
	if s.f.Frames == 1 && s.cfg.OnFirst != nil {
		s.cfg.OnFirst()
	}
	delay := s.now - stamp
	s.f.Delay.Record(delay)
	if delay > int64(s.cfg.Tau) {
		s.f.Late++
	}
	sampled := s.cfg.Trace.Sampled(stamp)
	if sampled && s.hit == 0 {
		s.hit = stamp
	}
	if len(payload) < 4 {
		return
	}
	abs := binary.BigEndian.Uint32(payload)
	if !s.seen {
		s.seen, s.delta = true, abs-pkt
	} else if abs-pkt != s.delta {
		s.f.BadRebase++
	}
	// The payload pattern is verified on one frame in 64 (and on every
	// traced frame): enough to catch a torn or recycled buffer within a
	// second at any rate the benchmark runs, at 4 bytes/frame of cost.
	if sampled || abs&63 == 0 {
		if _, ok := CheckPayload(payload); !ok {
			s.f.BadPayload++
		}
	}
	if s.cfg.Probe != nil {
		s.cfg.Probe.Observe(int64(abs), stamp)
	}
}

// Reject is the scanner's callback for a stream that opened with a join
// reject or an unparsable header. Caller holds mu.
func (s *Sink) Reject(code core.RejectCode) {
	if code == 0 {
		s.f.BadStream++
		return
	}
	s.f.Rejected = code
}

// AddTo merges the sink's cumulative counters into c.
func (s *Sink) AddTo(c *Counters) {
	s.mu.Lock()
	c.Frames += s.f.Frames
	c.Gaps += s.f.Gaps
	c.Late += s.f.Late
	c.Writes += s.f.Writes
	c.Delay.Add(&s.f.Delay)
	s.mu.Unlock()
}

// Frames returns the frames accepted so far.
func (s *Sink) Frames() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Frames
}

// Final returns the sink's end state.
func (s *Sink) Final() Final {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f
}

// Release lifts the throttle, so a slow sink drains its backlog at full
// speed when the run winds down.
func (s *Sink) Release() {
	if t := s.cfg.Throttle; t != nil {
		t.Release()
	}
}

// Close makes every later write fail, which is how a subscriber leaves.
func (s *Sink) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

// Read reports end of input: the join was parsed before the sink was
// attached, and a subscriber sends nothing after it.
func (s *Sink) Read([]byte) (int, error) { return 0, errClosed }

type addr struct{}

func (addr) Network() string { return "sink" }
func (addr) String() string  { return "sink" }

// LocalAddr returns a placeholder address.
func (s *Sink) LocalAddr() net.Addr { return addr{} }

// RemoteAddr returns a placeholder address.
func (s *Sink) RemoteAddr() net.Addr { return addr{} }

// The deadline setters accept and ignore: a sink never blocks longer than
// its throttle's one-batch delay, so there is nothing for a deadline to cut.

// SetDeadline is a no-op.
func (s *Sink) SetDeadline(time.Time) error { return nil }

// SetReadDeadline is a no-op.
func (s *Sink) SetReadDeadline(time.Time) error { return nil }

// SetWriteDeadline is a no-op.
func (s *Sink) SetWriteDeadline(time.Time) error { return nil }

// FrameHandler receives what a Scanner finds. The payload slice is only
// valid during the call. Reject gets the join-reject code the stream
// opened with, or 0 for a header that does not parse.
type FrameHandler interface {
	Frame(pkt uint32, stamp int64, payload []byte)
	Reject(code core.RejectCode)
}

// Scanner cuts a path's byte stream — stream header, then fixed-size
// frames — into frames, whatever way the writer split it across buffers.
// A header or payload that arrives whole in one buffer is read in place;
// only a split one is copied. The hub's [header][payload] pairs and the
// core sender's contiguous frames both take the in-place path.
type Scanner struct {
	started bool
	dead    bool // rejected or unparsable: swallow the rest
	payload int

	hdr     [streamHeaderSize]byte
	hdrFill int

	inPayload bool
	pkt       uint32
	stamp     int64
	body      []byte // split payloads are gathered here
	bodyFill  int
}

// Feed consumes the next bytes of the stream, calling h for each frame
// they complete.
func (sc *Scanner) Feed(b []byte, h FrameHandler) {
	for len(b) > 0 && !sc.dead {
		switch {
		case !sc.started:
			n := copy(sc.hdr[sc.hdrFill:], b)
			sc.hdrFill += n
			b = b[n:]
			if sc.hdrFill < streamHeaderSize {
				return
			}
			sc.hdrFill = 0
			_, payload, err := core.ReadStreamHeader(bytes.NewReader(sc.hdr[:]))
			if err != nil {
				var rej *core.RejectError
				if errors.As(err, &rej) {
					h.Reject(rej.Code)
				} else {
					h.Reject(0)
				}
				sc.dead = true
				return
			}
			sc.started, sc.payload = true, payload
			sc.body = make([]byte, payload)
		case !sc.inPayload:
			hdr := b
			if sc.hdrFill == 0 && len(b) >= core.FrameHeaderSize {
				b = b[core.FrameHeaderSize:]
			} else {
				n := copy(sc.hdr[sc.hdrFill:core.FrameHeaderSize], b)
				sc.hdrFill += n
				b = b[n:]
				if sc.hdrFill < core.FrameHeaderSize {
					return
				}
				sc.hdrFill = 0
				hdr = sc.hdr[:]
			}
			// ParseFrameHeader only fails on short input, which the length
			// checks above rule out.
			sc.pkt, sc.stamp, _ = core.ParseFrameHeader(hdr)
			sc.inPayload, sc.bodyFill = true, 0
			if sc.payload == 0 {
				sc.inPayload = false
				h.Frame(sc.pkt, sc.stamp, nil)
			}
		case sc.bodyFill == 0 && len(b) >= sc.payload:
			sc.inPayload = false
			h.Frame(sc.pkt, sc.stamp, b[:sc.payload])
			b = b[sc.payload:]
		default:
			n := copy(sc.body[sc.bodyFill:], b)
			sc.bodyFill += n
			b = b[n:]
			if sc.bodyFill == sc.payload {
				sc.inPayload = false
				h.Frame(sc.pkt, sc.stamp, sc.body)
			}
		}
	}
}
