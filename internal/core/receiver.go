package core

import (
	"cmp"
	"encoding/binary"
	"errors"
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
// 32-bit zigzag packet delta and the path-changed bit) and a 32-bit zigzag
// path delta at most 5 varint bytes each, the generation and arrival deltas
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
	log  [][]byte  // guarded by mu; chunks of logChunkSize capacity holding whole records
	last Arrival   // guarded by mu; the last arrival recorded, what the next is coded against
	n    int       // guarded by mu; arrivals in log
	seen PacketSet // guarded by mu
	dups int64     // guarded by mu
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
		r.recordLocked(Arrival{Pkt: pkt, Path: int32(path), Gen: gen, At: time.Now().UnixNano()})
		if r.onPacket != nil {
			r.onPacket(pkt, gen, payload)
		}
	}
	r.mu.Unlock()
}

// recordLocked appends one arrival to the log, coded against the last one; a
// record that does not fit in the last chunk starts a new one, so no record
// straddles two. Caller holds r.mu.
func (r *Receiver) recordLocked(a Arrival) {
	var buf [maxRecordLen]byte
	rec := appendRecord(buf[:0], r.last, a)
	if len(r.log) == 0 || logChunkSize-len(r.log[len(r.log)-1]) < len(rec) {
		r.log = append(r.log, make([]byte, 0, logChunkSize))
	}
	chunk := &r.log[len(r.log)-1]
	*chunk = append(*chunk, rec...)
	r.last = a
	r.n++
}

// appendRecord appends a's record to dst: the varints zigzag(Δpkt)<<1 with
// the low bit set when the path changed, zigzag(Δpath) only then,
// zigzag(ΔGen) and zigzag(ΔAt), every delta against prev. The deltas wrap,
// so any value round-trips through readRecord, a clock stepping back
// included.
func appendRecord(dst []byte, prev, a Arrival) []byte {
	head := zigzag(int64(int32(a.Pkt-prev.Pkt))) << 1
	if a.Path != prev.Path {
		head |= 1
	}
	dst = binary.AppendUvarint(dst, head)
	if a.Path != prev.Path {
		dst = binary.AppendUvarint(dst, zigzag(int64(a.Path-prev.Path)))
	}
	dst = binary.AppendUvarint(dst, zigzag(a.Gen-prev.Gen))
	return binary.AppendUvarint(dst, zigzag(a.At-prev.At))
}

// readRecord decodes the record appendRecord wrote at the head of src
// against prev, and returns the arrival and the record's length.
func readRecord(src []byte, prev Arrival) (Arrival, int) {
	a := prev
	head, n := binary.Uvarint(src)
	a.Pkt += uint32(unzigzag(head >> 1))
	if head&1 != 0 {
		d, m := binary.Uvarint(src[n:])
		a.Path += int32(unzigzag(d))
		n += m
	}
	d, m := binary.Uvarint(src[n:])
	a.Gen += unzigzag(d)
	n += m
	d, m = binary.Uvarint(src[n:])
	a.At += unzigzag(d)
	return a, n + m
}

// decodeLocked appends the log's arrivals to dst in recorded order. Caller
// holds r.mu.
func (r *Receiver) decodeLocked(dst []Arrival) []Arrival {
	var a Arrival
	for _, chunk := range r.log {
		for off := 0; off < len(chunk); {
			var n int
			a, n = readRecord(chunk[off:], a)
			dst = append(dst, a)
			off += n
		}
	}
	return dst
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
	var firstErr error
	for _, err := range r.RunAll(conns) {
		if err != nil {
			firstErr = err
			break
		}
	}
	return r.Trace(), firstErr
}
