package fixture

type slotx struct {
	payload []byte // bufown owned — slot buffer, reused every lap
}

type ringx struct {
	slots []slotx
}

// render copies the slot payload out. It is in scope via the hotpath
// closure, not a bufown param annotation, and reading the owned field
// from outside slotx's methods yields a borrow.
//
// hotpath — fixture frame render loop.
func (r *ringx) render(i int, frame []byte) {
	s := &r.slots[i]
	copy(frame, s.payload) // copying OUT of the borrow is the sanctioned move
	s.payload[0] = 1       // want "writes into borrowed slice"
	leakSlot(s.payload)    // want "not marked borrowed"
}

func leakSlot(b []byte) { _ = b }

// reset is a slotx method: the owner manages its own buffer freely.
func (s *slotx) reset(n int) {
	s.payload = make([]byte, n)
	s.payload[0] = 0
}
