package core

// PacketSet is a set of packet numbers: the receiver's duplicate filter and
// the distinct-packet count behind every Trace analysis. It is a bitmap cut
// into 64-packet words keyed by pkt>>6, so a stream numbered densely costs
// a few bits a packet, while no allocation is ever sized by a number read
// off the wire: a peer that strides its packet numbers to land one per word
// gets one small map entry per packet, a dozen bytes more than the
// map[uint32]bool entry it would otherwise get. The words of the set's
// contiguous prefix — every packet from 0 up — are dropped as they fill and
// stand behind a floor, so a stream that arrives whole holds only its
// reorder window. The zero value is an empty set; not safe for concurrent
// use.
type PacketSet struct {
	words map[uint32]uint64
	floor uint32 // every word below this one is full and not in words
	n     int
}

// Add inserts pkt and reports whether it was absent.
func (s *PacketSet) Add(pkt uint32) bool {
	key, bit := pkt>>6, uint64(1)<<(pkt&63)
	if key < s.floor {
		return false
	}
	w := s.words[key]
	if w&bit != 0 {
		return false
	}
	s.n++
	if w |= bit; w != ^uint64(0) || key != s.floor {
		if s.words == nil {
			s.words = make(map[uint32]uint64)
		}
		s.words[key] = w
		return true
	}
	// The word at the floor is full: raise the floor past it and past every
	// full word that was waiting on it.
	delete(s.words, key)
	for s.floor++; s.words[s.floor] == ^uint64(0); s.floor++ {
		delete(s.words, s.floor)
	}
	return true
}

// Has reports whether pkt is in the set.
func (s *PacketSet) Has(pkt uint32) bool {
	return pkt>>6 < s.floor || s.words[pkt>>6]&(uint64(1)<<(pkt&63)) != 0
}

// Len returns the number of distinct packets added.
func (s *PacketSet) Len() int { return s.n }
