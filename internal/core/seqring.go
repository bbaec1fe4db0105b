package core

import "math/bits"

// ringFreeMax caps a SeqRing's free list: a hub path writes up to 32 frames
// at once, so that many buffers wait for the next burst at pace.
const ringFreeMax = 32

// MaxSeqSpan bounds a SeqRing's span, and so its slots (40 B each): 2^20
// sequences is about an hour of a 300 pkt/s stream.
const MaxSeqSpan = 1 << 20

// SeqRing parks payloads by sequence number until taken: the reorder buffer
// of Play and of an edge relay's forwarder. It is sized once for a span:
// seq lives in slot seq mod a power of two ≥ span, so sequences that differ
// by less than the span never share a slot, and the owner keeps what it
// parks within that span. Each payload is copied into a buffer from a
// capped free list that Recycle refills, so an owner that recycles
// allocates nothing per packet once warm. Not safe for concurrent use.
type SeqRing struct {
	slots []ringSlot // len is a power of two
	held  int
	free  [][]byte
}

type ringSlot struct {
	tag  int64 // 1 + the sequence parked here; 0 when empty
	gen  int64
	data []byte
}

// NewSeqRing returns an empty ring for sequences that differ by less than
// span, 1 ≤ span ≤ MaxSeqSpan.
func NewSeqRing(span int) *SeqRing {
	if span < 1 || span > MaxSeqSpan {
		panic("core: SeqRing span out of range")
	}
	return &SeqRing{slots: make([]ringSlot, 1<<bits.Len(uint(span-1)))}
}

func (r *SeqRing) slot(seq int64) *ringSlot { return &r.slots[seq&int64(len(r.slots)-1)] }

// Len returns how many sequences are parked.
func (r *SeqRing) Len() int { return r.held }

// Holds reports whether seq is parked.
func (r *SeqRing) Holds(seq int64) bool { return r.slot(seq).tag == seq+1 }

// Put parks a copy of payload, stamped gen, under seq ≥ 0 unless seq's slot
// is taken: by seq itself (a resend: the first copy stands), or by a
// sequence a span or more away. It reports whether it parked.
func (r *SeqRing) Put(seq, gen int64, payload []byte) bool {
	s := r.slot(seq)
	if s.tag != 0 {
		return false
	}
	var data []byte
	if n := len(r.free); n > 0 {
		data, r.free = r.free[n-1], r.free[:n-1]
	}
	if cap(data) < len(payload) { // nothing to reuse, or a larger payload
		data = make([]byte, len(payload))
	}
	data = append(data[:0], payload...)
	*s = ringSlot{tag: seq + 1, gen: gen, data: data}
	r.held++
	return true
}

// Take removes what is parked under seq; the buffer is the caller's until Recycle.
func (r *SeqRing) Take(seq int64) (gen int64, data []byte, ok bool) {
	if !r.Holds(seq) {
		return 0, nil, false
	}
	s := *r.slot(seq)
	*r.slot(seq) = ringSlot{}
	r.held--
	return s.gen, s.data, true
}

// Recycle hands a taken buffer back for a later Put.
func (r *SeqRing) Recycle(data []byte) {
	if len(r.free) < ringFreeMax {
		r.free = append(r.free, data)
	}
}
