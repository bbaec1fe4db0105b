// The hotpath closure fixture mirrors the repo's real chain shape:
// a generator root reaching ring advance and shard wakeup through
// method calls, a sender root reaching pop and encode, a recursive
// pair, and a nolint-cut setup edge.
package fixture

type ring struct{ head int64 }

type shard struct{ r *ring }

type hub struct{ sh *shard }

// generate produces one frame.
// hotpath — runs once per generated frame.
func (h *hub) generate() {
	h.sh.r.advance()
	h.sh.wakeup()
}

func (r *ring) advance() { r.head++ }

func (s *shard) wakeup() { s.r.frame() }

// frame is a root that the generator chain also reaches.
// hotpath
func (r *ring) frame() {}

// sendLoop drains one subscriber.
// hotpath
func (h *hub) sendLoop() {
	h.setup() // nolint:hotpath once per path, before the frame loop
	for {
		h.pop()
	}
}

func (h *hub) pop() { encode() }

func encode() {}

func (h *hub) setup() {}

// recurA and recurB form a call cycle.
// hotpath
func recurA() { recurB() }

func recurB() { recurA() }

func notHot() {}
