package core

// PacketSet is a set of packet numbers: the receiver's duplicate filter and
// the distinct-packet count behind every Trace analysis. It is a bitmap cut
// into 64-packet words keyed by pkt>>6, so a stream numbered densely costs
// a few bits a packet, while no allocation is ever sized by a number read
// off the wire: a peer that strides its packet numbers to land one per word
// gets one small map entry per packet, a dozen bytes more than the
// map[uint32]bool entry it would otherwise get. The zero value is an empty
// set; not safe for concurrent use.
type PacketSet struct {
	words map[uint32]uint64
	n     int
}

// Add inserts pkt and reports whether it was absent.
func (s *PacketSet) Add(pkt uint32) bool {
	key, bit := pkt>>6, uint64(1)<<(pkt&63)
	w := s.words[key]
	if w&bit != 0 {
		return false
	}
	if s.words == nil {
		s.words = make(map[uint32]uint64)
	}
	s.words[key] = w | bit
	s.n++
	return true
}

// Has reports whether pkt is in the set.
func (s *PacketSet) Has(pkt uint32) bool {
	return s.words[pkt>>6]&(uint64(1)<<(pkt&63)) != 0
}

// Len returns the number of distinct packets added.
func (s *PacketSet) Len() int { return s.n }
