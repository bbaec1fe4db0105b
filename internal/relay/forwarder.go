package relay

import (
	"math"
	"net"
	"slices"
	"time"

	"dmpstream/internal/core"
	"dmpstream/internal/lockrank"
)

// syncDepth parked packets commit though an upstream path is still silent:
// the fallback for a path that never connects (a dead candidate).
const syncDepth = 8

// forwarder is the relay's upstream sink and the reorder rule's locked
// shell: core.Client's redial engine hands it every (re)attached upstream
// path, its core.PathReader reads them (header agreement, end markers, end
// grace), and it publishes what the rule releases via Hub.PublishAt.
type forwarder struct {
	*core.PathReader // Conns, Expected and the path reading under the core.Sink half (Run, Done)
	r                *Relay

	mu        lockrank.Mutex
	order     reorder // guarded by mu
	forwarded int64   // guarded by mu; packets accepted by PublishAt
	refused   int64   // guarded by mu; publishes the hub refused (stopped/draining)
}

// newForwarder builds r's upstream sink; grace is the end-grace deadline
// the first upstream end marker arms on silent sibling paths.
func newForwarder(r *Relay, grace time.Duration) *forwarder {
	f := &forwarder{r: r, order: newReorder(r.cfg.Paths, r.cfg.ReorderWindow)}
	f.mu.Init(lockrank.Forwarder)
	f.PathReader = core.NewPathReader(grace, r.onHeader, f.ingest)
	return f
}

// Run reads one upstream path connection for the redial engine. A path
// that returns nil delivered the stream's end marker: upstream consumption
// is over, and Done says so to every sibling.
func (f *forwarder) Run(path int, conn net.Conn) error {
	err := f.PathReader.Run(path, conn)
	if err == nil {
		f.r.stop()
	}
	return err
}

// Done is the redial engine's stop signal: closed once upstream
// consumption is over — an end marker arrived, or the relay detached
// (Close, Drain, the orphan verdict) — so a path waiting out its redial
// backoff retires at once instead of holding Close and Drain for the rest
// of it. Whether the stream itself ended is PathReader.Done.
func (f *forwarder) Done() <-chan struct{} { return f.r.stopCh }

// ingest hands one upstream packet to the reorder rule and publishes what
// it releases. Holding the lock across the publish makes "strictly
// ascending, exactly once" true under concurrent paths, and pins the relay
// tier's lock-order edge forwarder.mu ≺ hub.Hub.govMu (lockrank.Forwarder ≺
// lockrank.Governor). payload is copied into the reorder ring or lent to
// PublishAt (which copies before returning), never retained.
func (f *forwarder) ingest(path int, pkt uint32, gen int64, payload []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.publishLocked(f.order.step(path, int64(pkt), gen, payload))
}

// flush publishes whatever is parked, gaps and all, once the upstream is
// over for good (end marker, orphaned, cancelled) and nothing can fill them.
func (f *forwarder) flush() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.publishLocked(f.order.flush())
}

// publishLocked hands released packets to the local hub ring in order and
// their parked buffers back to the reorder ring. Caller holds f.mu.
func (f *forwarder) publishLocked(rel []release) {
	h := f.r.local.Load()
	for _, p := range rel {
		if h != nil && h.PublishAt(p.seq, p.gen, p.payload) {
			f.forwarded++
			if f.forwarded == 1 {
				f.r.markReady()
			}
		} else {
			f.refused++
		}
		if p.parked {
			f.order.ring.Recycle(p.payload)
		}
	}
}

// reorder is the forwarder's sync, reorder, late-drop and gap-skip rule: a
// pure step over a core.SeqRing (no lock, no hub) from one arrival to the
// packets it makes due downstream, strictly ascending, each at most once.
//
// Until the first commit every packet parks; the rule commits to the
// smallest once each path has delivered one. That is exact: a hub writes
// each path in ascending order and serves a subscription oldest first, so
// a subscription's smallest sequence is the first packet of one of its
// paths. syncDepth parked packets commit regardless (a dead path), and a
// parked spread wider than the window commits at once to its smallest.
//
// Then a packet below next or already parked is a late drop, next goes out
// with the parked run it completes, and a later one parks. The span rule
// bounds the ring: a gap is abandoned once a packet arrives more than
// window sequences past it (downstream sees a head jump, as on a
// DropOldest skip), so whatever is parked lies within window of next.
type reorder struct {
	ring      *core.SeqRing // sized for window + 1: the spread parked before the commit
	window    int64         // ReorderWindow
	next      int64         // next sequence due downstream; -1 until the commit
	lo, hi    int64         // smallest parked before the commit; largest parked
	heard     []bool        // per upstream path: delivered a packet before the commit
	out       []release     // what the last step released, reused
	lateDrops int64         // duplicates and too-late arrivals discarded
	reordered int64         // packets that parked after the commit
	gapSkips  int64         // sequences abandoned
}

// release is one packet due downstream: a parked one, recycled once
// published, or the arrival itself.
type release struct {
	seq, gen int64
	payload  []byte
	parked   bool
}

func newReorder(paths, window int) reorder {
	return reorder{ring: core.NewSeqRing(window + 1), window: int64(window), next: -1, lo: math.MaxInt64, hi: -1, heard: make([]bool, paths)}
}

// step routes one arrival on path. The result is valid until the next step.
func (w *reorder) step(path int, seq, gen int64, payload []byte) []release {
	w.out = w.out[:0]
	if w.next < 0 && !w.ring.Holds(seq) && max(w.hi, seq)-min(w.lo, seq) > w.window {
		w.next = min(w.lo, seq) // the parked spread outgrew the window
	}
	switch {
	case seq < w.next || w.ring.Holds(seq):
		w.lateDrops++
	case seq == w.next:
		w.out = append(w.out, release{seq: seq, gen: gen, payload: payload})
		w.next++
		w.slide(w.hi - w.window) // moves only after a commit below the parked spread
		w.drain()
	case w.next >= 0:
		w.slide(seq - w.window)
		w.ring.Put(seq, gen, payload)
		w.hi = max(w.hi, seq)
		w.reordered++
		w.drain()
	default:
		w.ring.Put(seq, gen, payload)
		w.lo, w.hi = min(w.lo, seq), max(w.hi, seq)
	}
	if w.next < 0 {
		if path < len(w.heard) {
			w.heard[path] = true
		}
		if !slices.Contains(w.heard, false) || w.ring.Len() >= syncDepth {
			w.next = w.lo
			w.drain()
		}
	}
	return w.out
}

// slide moves next up to to: what is parked below to goes out in order,
// and the sequences missing there are abandoned.
func (w *reorder) slide(to int64) {
	n := len(w.out) // whatever is parked lies in [hi − window, hi]
	for s := max(w.next, w.hi-w.window); s < min(to, w.hi+1); s++ {
		w.take(s)
	}
	w.gapSkips += max(to-w.next, 0) - int64(len(w.out)-n)
	w.next = max(w.next, to)
}

// drain releases the parked run starting at next.
func (w *reorder) drain() {
	for w.take(w.next) {
		w.next++
	}
}

// take releases the packet parked under seq, if any.
func (w *reorder) take(seq int64) bool {
	gen, data, ok := w.ring.Take(seq)
	if ok {
		w.out = append(w.out, release{seq: seq, gen: gen, payload: data, parked: true})
	}
	return ok
}

// flush releases everything parked, in ascending order, gaps and all.
func (w *reorder) flush() []release {
	w.out = w.out[:0]
	if w.ring.Len() > 0 {
		if w.next < 0 {
			w.next = w.lo
		}
		w.slide(w.hi + 1)
	}
	return w.out
}
