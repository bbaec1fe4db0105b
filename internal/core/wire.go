package core

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Wire format. Every path of a session carries the same byte stream shape:
// a 20-byte stream header (server → client) followed by fixed-size frames.
// A broadcast hub additionally expects a 40-byte join request
// (client → server) *before* the stream header; the stream header and frame
// layout are unchanged, so any v1 receiver works on a hub path once the join
// has been written. A plain single-client Server (Serve/Start) neither reads
// nor expects a join, which keeps the original header backward compatible.
//
// A hub that refuses a join answers with a reject frame instead of the
// stream header: same 20-byte size, "DMPR" magic, a one-byte reason code,
// zero padding. Clients read exactly one header-sized response either way,
// so a rejected joiner gets a clean typed error instead of an EOF mid-read.
//
//	stream header: magic "DMPS" | ver=1 | pathIdx | numPaths | rsvd |
//	               payloadSize u32 | µ·1e6 u64
//	frame:         pktNum u32 | genNanos u64 | payload[payloadSize]
//	join request:  magic "DMPJ" | ver=1 | flags | rsvd[2] | streamID[16] | token[16]
//	join reject:   magic "DMPR" | ver=1 | code | rsvd[14]
//
// The join flags byte occupies the first of v1's three reserved bytes, so
// a v1 reader that ignores it still parses the request (flags were always
// written as zero before they existed). Bit 0 (JoinFlagAbsolute) asks the
// hub for origin-absolute packet numbering instead of the default
// join-point rebase — the relay-tier handshake (see internal/relay).
const (
	headerSize = 20
	frameHdr   = 12 // pktNum uint32 + genNanos int64
	joinSize   = 40

	// FrameHeaderSize is the per-frame overhead preceding the payload.
	FrameHeaderSize = frameHdr
	// MaxStreamID is the longest stream id a join request can carry.
	MaxStreamID = 16
	// EndMarker terminates a path's frame stream; its genNanos field carries
	// the total number of packets generated.
	EndMarker = ^uint32(0)
)

var (
	magic       = [4]byte{'D', 'M', 'P', 'S'}
	joinMagic   = [4]byte{'D', 'M', 'P', 'J'}
	rejectMagic = [4]byte{'D', 'M', 'P', 'R'}
)

// RejectCode is the reason a hub refused a join, carried in the reject frame.
type RejectCode uint8

const (
	// RejectServerFull: the admission limits (subscribers or connections)
	// are exhausted; try again later or elsewhere.
	RejectServerFull RejectCode = 1
	// RejectUnknownStream: the join named a stream this hub does not serve.
	RejectUnknownStream RejectCode = 2
	// RejectStreamEnded: the stream is over (or the hub stopped).
	RejectStreamEnded RejectCode = 3
	// RejectDraining: the hub is shutting down gracefully and admits no new
	// subscriptions (re-attaches of live subscriptions are still admitted).
	RejectDraining RejectCode = 4
	// RejectEvicted: the presented token belongs to an evicted subscriber.
	RejectEvicted RejectCode = 5
	// RejectUpstreamLost: the hub is an edge relay whose upstream feed is
	// gone (orphaned past its grace); there is nothing left to serve here,
	// but the stream itself may still be live at other relays or the origin.
	RejectUpstreamLost RejectCode = 6
)

func (c RejectCode) String() string {
	switch c {
	case RejectServerFull:
		return "server full"
	case RejectUnknownStream:
		return "unknown stream"
	case RejectStreamEnded:
		return "stream ended"
	case RejectDraining:
		return "draining"
	case RejectEvicted:
		return "evicted"
	case RejectUpstreamLost:
		return "upstream lost"
	default:
		return fmt.Sprintf("reject(%d)", uint8(c))
	}
}

// Typed join outcomes a client can test with errors.Is. Every reject frame
// unwraps to ErrRejected plus the code-specific sentinel (when one exists).
var (
	ErrRejected      = errors.New("core: join rejected")
	ErrServerFull    = errors.New("core: server full")
	ErrUnknownStream = errors.New("core: unknown stream")
	ErrStreamOver    = errors.New("core: stream ended")
	ErrDraining      = errors.New("core: server draining")
	ErrEvicted       = errors.New("core: subscriber evicted")
	ErrUpstreamLost  = errors.New("core: upstream lost")
)

// sentinel maps a code to its errors.Is target; nil for unknown codes.
func (c RejectCode) sentinel() error {
	switch c {
	case RejectServerFull:
		return ErrServerFull
	case RejectUnknownStream:
		return ErrUnknownStream
	case RejectStreamEnded:
		return ErrStreamOver
	case RejectDraining:
		return ErrDraining
	case RejectEvicted:
		return ErrEvicted
	case RejectUpstreamLost:
		return ErrUpstreamLost
	default:
		return nil
	}
}

// RejectError is the client-side surface of a reject frame. It unwraps to
// both ErrRejected and the code's sentinel, so errors.Is(err, ErrServerFull)
// and errors.Is(err, ErrRejected) both hold for a full server.
type RejectError struct{ Code RejectCode }

func (e *RejectError) Error() string { return fmt.Sprintf("core: join rejected: %s", e.Code) }

// Unwrap exposes the typed sentinels for errors.Is.
func (e *RejectError) Unwrap() []error {
	if s := e.Code.sentinel(); s != nil {
		return []error{ErrRejected, s}
	}
	return []error{ErrRejected}
}

// WriteReject writes the header-sized reject frame a hub answers a refused
// join with.
func WriteReject(w io.Writer, code RejectCode) error {
	var b [headerSize]byte
	copy(b[0:4], rejectMagic[:])
	b[4] = 1 // version
	b[5] = byte(code)
	_, err := w.Write(b[:])
	return err
}

// WriteStreamHeader writes the v1 per-path stream header.
func WriteStreamHeader(w io.Writer, pathIdx, numPaths, payloadSize int, mu float64) error {
	var h [headerSize]byte
	copy(h[0:4], magic[:])
	h[4] = 1 // version
	h[5] = uint8(pathIdx)
	h[6] = uint8(numPaths)
	binary.BigEndian.PutUint32(h[8:12], uint32(payloadSize))
	binary.BigEndian.PutUint64(h[12:20], uint64(int64(mu*1e6))) // µ in micro-packets/s
	_, err := w.Write(h[:])
	return err
}

// ReadStreamHeader reads one join response: the v1 stream header on
// admission (returning its rate and payload size), or a typed *RejectError
// when the server answered with a reject frame. It lets a client learn a
// join's outcome without committing to consume the stream.
func ReadStreamHeader(r io.Reader) (mu float64, payload int, err error) {
	var h [headerSize]byte
	if _, err = io.ReadFull(r, h[:]); err != nil {
		return 0, 0, fmt.Errorf("core: header read: %w", err)
	}
	if [4]byte(h[0:4]) == rejectMagic {
		if h[4] != 1 {
			return 0, 0, fmt.Errorf("core: unsupported reject version %d", h[4])
		}
		return 0, 0, &RejectError{Code: RejectCode(h[5])}
	}
	if [4]byte(h[0:4]) != magic {
		return 0, 0, fmt.Errorf("core: bad magic %q", h[0:4])
	}
	if h[4] != 1 {
		return 0, 0, fmt.Errorf("core: unsupported version %d", h[4])
	}
	payload = int(binary.BigEndian.Uint32(h[8:12]))
	mu = float64(binary.BigEndian.Uint64(h[12:20])) / 1e6
	if mu <= 0 || payload < 0 || payload > 1<<20 {
		return 0, 0, fmt.Errorf("core: implausible header µ=%v payload=%d", mu, payload)
	}
	return mu, payload, nil
}

// PutFrameHeader encodes a frame's packet number and generation timestamp
// into the first FrameHeaderSize bytes of frame. For an end marker, pass
// EndMarker and the generated-packet count. The header is written in
// place, so the caller must pass a buffer it owns, never a borrowed
// payload view.
func PutFrameHeader(frame []byte, pkt uint32, genNanos int64) {
	_ = frame[frameHdr-1] // bounds check: callers must size frame >= FrameHeaderSize
	binary.BigEndian.PutUint32(frame[0:4], pkt)
	binary.BigEndian.PutUint64(frame[4:12], uint64(genNanos))
}

// ParseFrameHeader decodes the packet number and generation timestamp
// from the first FrameHeaderSize bytes of b. For an end marker the packet
// number is EndMarker and the timestamp field carries the generated
// count. It is the read-side inverse of PutFrameHeader and rejects short
// input instead of panicking, so it is safe on untrusted bytes.
func ParseFrameHeader(b []byte) (pkt uint32, genNanos int64, err error) {
	if len(b) < frameHdr {
		return 0, 0, fmt.Errorf("core: frame header: %d bytes, need %d", len(b), frameHdr)
	}
	pkt = binary.BigEndian.Uint32(b[0:4])
	genNanos = int64(binary.BigEndian.Uint64(b[4:12]))
	return pkt, genNanos, nil
}

// Token identifies one hub subscription; all path connections carrying the
// same token attach to the same subscriber.
type Token [16]byte

// NewToken draws a fresh random subscriber token.
func NewToken() (Token, error) {
	var tok Token
	if _, err := rand.Read(tok[:]); err != nil {
		return Token{}, fmt.Errorf("core: token: %w", err)
	}
	return tok, nil
}

// String renders the token in hex (for logs and stats). It allocates the
// string and nothing else: a stats snapshot renders every subscriber's
// token on every scrape.
func (t Token) String() string {
	var buf [2 * len(t)]byte
	hex.Encode(buf[:], t[:])
	return string(buf[:])
}

// JoinFlagAbsolute asks the hub to skip the per-subscriber packet-number
// rebase: frames carry origin-absolute sequence numbers and the cursor
// starts at the ring tail (everything the hub still retains) instead of
// the live edge. Relays and tree-aware leaves join with it so packet
// identity is stable across tiers, failovers and mid-tier restarts —
// the client-side dedup then collapses replays no matter which hub
// instance served them.
const JoinFlagAbsolute uint8 = 1 << 0

// Join is the hub handshake a client writes on each path connection before
// the server's stream header.
type Join struct {
	StreamID string
	Token    Token
	// Flags modifies the subscription (JoinFlagAbsolute, ...). Unknown bits
	// travel unchanged so the codec round-trips future flags.
	Flags uint8
}

// ValidateStreamID reports whether id can travel in a join request's
// NUL-padded 16-byte field: at most MaxStreamID bytes, no interior NULs
// (they would make Read(Write(id)) != id and can smuggle lookalike ids),
// and non-empty — the empty id is indistinguishable from an all-padding
// field, so it cannot name a stream on the wire.
func ValidateStreamID(id string) error {
	if id == "" {
		return fmt.Errorf("core: empty stream id")
	}
	if len(id) > MaxStreamID {
		return fmt.Errorf("core: stream id %q longer than %d bytes", id, MaxStreamID)
	}
	if strings.ContainsRune(id, 0) {
		return fmt.Errorf("core: stream id contains NUL")
	}
	return nil
}

// WriteJoin writes the join request for one path connection.
func WriteJoin(w io.Writer, j Join) error {
	if len(j.StreamID) > MaxStreamID {
		return fmt.Errorf("core: stream id %q longer than %d bytes", j.StreamID, MaxStreamID)
	}
	if strings.ContainsRune(j.StreamID, 0) {
		return fmt.Errorf("core: stream id contains NUL")
	}
	var b [joinSize]byte
	copy(b[0:4], joinMagic[:])
	b[4] = 1 // version
	b[5] = j.Flags
	copy(b[8:8+MaxStreamID], j.StreamID)
	copy(b[24:40], j.Token[:])
	_, err := w.Write(b[:])
	return err
}

// ReadJoin reads and validates a join request.
func ReadJoin(r io.Reader) (Join, error) {
	var b [joinSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return Join{}, fmt.Errorf("core: join read: %w", err)
	}
	if [4]byte(b[0:4]) != joinMagic {
		return Join{}, fmt.Errorf("core: bad join magic %q", b[0:4])
	}
	if b[4] != 1 {
		return Join{}, fmt.Errorf("core: unsupported join version %d", b[4])
	}
	j := Join{StreamID: strings.TrimRight(string(b[8:8+MaxStreamID]), "\x00"), Flags: b[5]}
	if strings.ContainsRune(j.StreamID, 0) {
		// The id field is NUL-padded on the right; interior NULs would
		// make Read(Write(j)) != j and can smuggle lookalike ids.
		return Join{}, fmt.Errorf("core: join stream id contains NUL")
	}
	copy(j.Token[:], b[24:40])
	return j, nil
}
