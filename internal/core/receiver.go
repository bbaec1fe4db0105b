package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"slices"
	"time"

	"dmpstream/internal/lockrank"
)

// logChunkSize is the capacity of one chunk of the receiver's arrival log.
// The log grows a chunk at a time, so recording a packet never copies the
// record so far under the lock every path's reader shares, and the slack is
// at most one chunk rather than up to the whole log again.
const logChunkSize = 4096

// maxRecordLen is the longest one arrival's record can be: the head (a
// 32-bit zigzag packet delta and the 2-bit path code) and a 32-bit zigzag
// path delta at most 5 varint bytes each, the generation and delay residuals
// at most 10 each. It is a constant, whatever the peer sends.
const maxRecordLen = 2*binary.MaxVarintLen32 + 2*binary.MaxVarintLen64

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
	*PathReader // Run, Done: the paths read into frame
	onPacket    func(pkt uint32, genNanos int64, payload []byte)

	mu   lockrank.Mutex
	log  [][]byte    // guarded by mu; chunks of logChunkSize capacity holding whole records
	enc  recordCoder // guarded by mu; what the next record is coded against
	n    int         // guarded by mu; arrivals in log
	seen PacketSet   // guarded by mu
	dups int64       // guarded by mu
}

// NewReceiver builds an empty Receiver; attach paths with Run.
func NewReceiver(opts ReceiverOptions) *Receiver {
	r := &Receiver{onPacket: opts.OnPacket}
	r.mu.Init(lockrank.Receiver)
	r.PathReader = NewPathReader(opts.EndGrace, nil, r.frame)
	return r
}

// frame records one packet from path unless another path delivered it
// first.
func (r *Receiver) frame(path int, pkt uint32, gen int64, payload []byte) {
	r.mu.Lock()
	if !r.seen.Add(pkt) {
		r.dups++
	} else {
		if r.n == 0 {
			mu, _ := r.Header()
			r.enc.period = genPeriod(mu)
		}
		r.recordLocked(Arrival{Pkt: pkt, Path: int32(path), Gen: gen, At: time.Now().UnixNano()})
		if r.onPacket != nil {
			r.onPacket(pkt, gen, payload)
		}
	}
	r.mu.Unlock()
}

// recordLocked appends one arrival to the log, coded against r.enc; a record
// that does not fit in the last chunk starts a new one, so no record
// straddles two. Caller holds r.mu.
func (r *Receiver) recordLocked(a Arrival) {
	var buf [maxRecordLen]byte
	rec := r.enc.appendRecord(buf[:0], a)
	if len(r.log) == 0 || logChunkSize-len(r.log[len(r.log)-1]) < len(rec) {
		r.log = append(r.log, make([]byte, 0, logChunkSize))
	}
	chunk := &r.log[len(r.log)-1]
	*chunk = append(*chunk, rec...)
	r.n++
}

// decodeLocked appends the log's arrivals to dst in recorded order. Caller
// holds r.mu.
func (r *Receiver) decodeLocked(dst []Arrival) []Arrival {
	dec := recordCoder{period: r.enc.period}
	for _, chunk := range r.log {
		for off := 0; off < len(chunk); {
			a, n := dec.readRecord(chunk[off:])
			dst = append(dst, a)
			off += n
		}
	}
	return dst
}

// genPeriod is the generation period, in nanoseconds, of a stream whose
// header announces mu packets a second: round(1e9/µ), 0 before a header.
func genPeriod(mu float64) int64 {
	if mu <= 0 {
		return 0
	}
	return int64(math.Round(1e9 / mu))
}

// Path codes, the low two bits of a record's head.
const (
	pathSame   = 0 // the path of the previous record
	pathBefore = 1 // the last path recorded other than that one
	pathDelta  = 2 // a zigzag delta against the previous record's path follows
)

// pathSlots is how many paths the coder keeps per-path state for. A path
// shares slot uint32(path)%pathSlots with every path congruent to it, which
// costs bytes when two of them interleave, never exactness.
const pathSlots = 8

// pathSlot is what the last arrival coded on a path leaves for the next.
type pathSlot struct {
	pkt   uint32
	delay int64 // At − Gen
}

// recordCoder is the state an arrival's record is coded against. The
// encoder and the decoder start from the same state — the zero value with
// the same period — and advance it the same way a record at a time, so
// every value round-trips, a backward clock step included.
//
// A record is the varints
//
//	zigzag(pkt − slot.pkt)<<2 | path code
//	zigzag(path − last.Path)                   only for pathDelta
//	zigzag(Gen − (last.Gen + Δpkt·period))     Δpkt = pkt − last.Pkt
//	zigzag((At − Gen) − slot.delay)
//
// where last is the previous record and slot the path's. Every difference
// wraps (int32 for the packet number and path, int64 for the stamps and the
// predictor's product).
type recordCoder struct {
	period int64 // generation period in ns; 0 codes Gen as a plain delta
	last   Arrival
	other  int32 // the last path recorded other than last.Path
	slots  [pathSlots]pathSlot
}

// genGuess is where the generation stamp of pkt falls if the stream kept
// its period since the previous record.
func (c *recordCoder) genGuess(pkt uint32) int64 {
	return c.last.Gen + int64(int32(pkt-c.last.Pkt))*c.period
}

// advance makes a, just coded into slot s, the arrival the next record is
// coded against.
func (c *recordCoder) advance(a Arrival, s *pathSlot) {
	if a.Path != c.last.Path {
		c.other = c.last.Path
	}
	c.last = a
	*s = pathSlot{pkt: a.Pkt, delay: a.At - a.Gen}
}

// appendRecord appends a's record to dst and advances c past it.
func (c *recordCoder) appendRecord(dst []byte, a Arrival) []byte {
	code := uint64(pathDelta)
	switch a.Path {
	case c.last.Path:
		code = pathSame
	case c.other:
		code = pathBefore
	}
	s := &c.slots[uint32(a.Path)%pathSlots]
	dst = binary.AppendUvarint(dst, zigzag(int64(int32(a.Pkt-s.pkt)))<<2|code)
	if code == pathDelta {
		dst = binary.AppendUvarint(dst, zigzag(int64(a.Path-c.last.Path)))
	}
	dst = binary.AppendUvarint(dst, zigzag(a.Gen-c.genGuess(a.Pkt)))
	dst = binary.AppendUvarint(dst, zigzag(a.At-a.Gen-s.delay))
	c.advance(a, s)
	return dst
}

// readRecord decodes the record appendRecord wrote at the head of src,
// advances c past it, and returns the arrival and the record's length.
func (c *recordCoder) readRecord(src []byte) (Arrival, int) {
	head, n := binary.Uvarint(src)
	a := Arrival{Path: c.last.Path}
	switch head & 3 {
	case pathBefore:
		a.Path = c.other
	case pathDelta:
		d, m := binary.Uvarint(src[n:])
		a.Path += int32(unzigzag(d))
		n += m
	}
	s := &c.slots[uint32(a.Path)%pathSlots]
	a.Pkt = s.pkt + uint32(unzigzag(head>>2))
	d, m := binary.Uvarint(src[n:])
	a.Gen = c.genGuess(a.Pkt) + unzigzag(d)
	n += m
	d, m = binary.Uvarint(src[n:])
	a.At = a.Gen + s.delay + unzigzag(d)
	c.advance(a, s)
	return a, n + m
}

// zigzag maps small negative and positive deltas alike to small unsigned
// numbers: 0, -1, 1, -2, ... become 0, 1, 2, 3, ...
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Trace decodes the merged arrival record, ordered by arrival time.
// Arrivals are stamped under r.mu, so the log is already in that order
// unless the wall clock stepped back; only then is it sorted, stably, so
// arrivals with equal stamps keep the order they were recorded in.
func (r *Receiver) Trace() *Trace {
	tr := &Trace{Expected: max(r.Expected(), 0)}
	tr.Mu, tr.PayloadSize = r.Header()
	r.mu.Lock()
	tr.Arrivals = r.decodeLocked(make([]Arrival, 0, r.n))
	tr.Duplicates = r.dups
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
	errs := r.RunAll(conns)
	return r.Trace(), cmp.Or(errs...)
}
