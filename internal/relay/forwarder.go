package relay

import (
	"net"
	"sort"
	"time"

	"dmpstream/internal/core"
	"dmpstream/internal/lockrank"
)

// syncDepth is the fallback commit: with this many packets parked the
// forwarder starts from their minimum even though some upstream path has
// not delivered a packet yet. It only decides when a path never connects
// (a dead candidate); a relay whose paths all speak commits earlier, on
// the rule in ingest.
const syncDepth = 8

// heldFrame is one out-of-order upstream packet parked in the reorder
// buffer until the sequences before it arrive (or are given up on).
type heldFrame struct {
	gen     int64
	payload []byte // private copy taken at ingest
}

// forwarder is the relay's upstream sink: core.Client's redial engine
// hands it every (re)attached upstream path connection, its core.PathReader
// reads them (header agreement, end markers, end-grace deadlines), and it
// republishes the received feed — in strictly ascending absolute sequence
// order, exactly once per sequence — into the local hub ring via
// Hub.PublishAt. Out-of-order arrivals (multipath interleave, failover
// replays overtaking live frames) park in a bounded reorder buffer;
// sequences the upstream replayed twice are dropped here, so the
// downstream tier never sees a duplicate. A gap that stays open past the
// reorder window is abandoned (the head jumps past it downstream), which
// bounds the relay's memory no matter how the upstream misbehaves.
type forwarder struct {
	*core.PathReader // Conns, Expected and the path reading under the core.Sink half (Run, Done)
	r                *Relay

	mu        lockrank.Mutex
	next      int64               // guarded by mu; next sequence to publish; -1 until synced
	heard     []bool              // guarded by mu; per upstream path: delivered a packet before the commit
	unheard   int                 // guarded by mu; count of false entries in heard
	pending   map[int64]heldFrame // guarded by mu; out-of-order arrivals by sequence
	forwarded int64               // guarded by mu; packets accepted by PublishAt
	lateDrops int64               // guarded by mu; duplicates and too-late arrivals discarded
	reordered int64               // guarded by mu; packets that had to park in the buffer
	gapSkips  int64               // guarded by mu; sequences abandoned (window overflow)
	refused   int64               // guarded by mu; publishes the hub refused (stopped/draining)
}

// newForwarder builds r's upstream sink; grace is the end-grace deadline
// the first upstream end marker arms on silent sibling paths.
func newForwarder(r *Relay, grace time.Duration) *forwarder {
	f := &forwarder{
		r:       r,
		next:    -1,
		heard:   make([]bool, r.cfg.Paths),
		unheard: r.cfg.Paths,
		pending: make(map[int64]heldFrame),
	}
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

// ingest routes one upstream packet: publish it if it is the next
// sequence, drop it if it is a duplicate or arrived too late, park it if
// it ran ahead. Holding the forwarder lock across the publish is what
// makes "strictly ascending, exactly once" true under concurrent paths —
// and it pins the relay tier's lock-order edge: forwarder.mu ≺
// hub.Hub.govMu (lockrank.Forwarder ≺ lockrank.Governor).
//
// Until the first commit every packet parks, and the forwarder commits to
// the smallest parked sequence as soon as each of the relay's paths has
// delivered one. That is exact, not a guess at path skew: a hub writes
// each path connection in ascending order and serves a subscription oldest
// first (its resend queue, then its cursor), so the smallest sequence a
// subscription will ever send is the first packet of one of its paths.
// Once every path has spoken, that packet is parked, for each subscription
// the relay holds — one, or two when its paths are dual-homed on two hubs.
// A path that never connects would stall the rule, so syncDepth parked
// packets commit regardless.
//
// payload is either copied into a private heldFrame buffer or lent onward
// to Hub.PublishAt (which copies before returning); never retained past
// the call.
func (f *forwarder) ingest(path int, pkt uint32, gen int64, payload []byte) {
	seq := int64(pkt)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.next < 0 {
		if _, dup := f.pending[seq]; dup {
			f.lateDrops++
		} else {
			f.holdLocked(seq, gen, payload)
		}
		if path < len(f.heard) && !f.heard[path] {
			f.heard[path] = true
			f.unheard--
		}
		if f.unheard == 0 || len(f.pending) >= syncDepth {
			f.syncLocked()
		}
		return
	}
	switch {
	case seq < f.next:
		f.lateDrops++
	case seq == f.next:
		f.publishLocked(seq, gen, payload)
		f.next = seq + 1
		f.drainPendingLocked()
	default:
		if _, dup := f.pending[seq]; dup {
			f.lateDrops++
			return
		}
		f.holdLocked(seq, gen, payload)
		f.reordered++
		if len(f.pending) > f.r.cfg.ReorderWindow {
			// The blocking gap has outstayed the window: abandon it so the
			// buffer stays bounded. Downstream sees a head jump — the same
			// observable as a DropOldest skip.
			f.skipLocked()
		}
	}
}

// holdLocked parks a private copy of one out-of-order payload. Caller
// holds f.mu.
func (f *forwarder) holdLocked(seq, gen int64, payload []byte) {
	buf := make([]byte, len(payload))
	copy(buf, payload)
	f.pending[seq] = heldFrame{gen: gen, payload: buf}
}

// syncLocked commits the starting sequence to the smallest parked one and
// drains the run it begins. Caller holds f.mu.
func (f *forwarder) syncLocked() {
	f.next = f.minPendingLocked()
	f.drainPendingLocked()
}

// minPendingLocked returns the smallest parked sequence; only valid with
// a non-empty buffer. Caller holds f.mu.
func (f *forwarder) minPendingLocked() int64 {
	first := true
	var min int64
	for seq := range f.pending {
		if first || seq < min {
			min = seq
			first = false
		}
	}
	return min
}

// drainPendingLocked publishes the contiguous run of parked packets
// starting at next. Caller holds f.mu.
func (f *forwarder) drainPendingLocked() {
	for {
		hf, ok := f.pending[f.next]
		if !ok {
			return
		}
		delete(f.pending, f.next)
		f.publishLocked(f.next, hf.gen, hf.payload)
		f.next++
	}
}

// skipLocked abandons the gap blocking the reorder buffer: next jumps to
// the smallest parked sequence and the run from there drains. Caller
// holds f.mu.
func (f *forwarder) skipLocked() {
	min := f.minPendingLocked()
	f.gapSkips += min - f.next
	f.next = min
	f.drainPendingLocked()
}

// publishLocked hands one in-order packet to the local hub ring. Caller
// holds f.mu. PublishAt copies payload into a pool buffer before
// returning.
func (f *forwarder) publishLocked(seq, gen int64, payload []byte) {
	if h := f.r.local.Load(); h != nil && h.PublishAt(seq, gen, payload) {
		f.forwarded++
		if f.forwarded == 1 {
			f.r.markReady()
		}
	} else {
		f.refused++
	}
}

// flush publishes whatever the reorder buffer still holds, in ascending
// order, gaps and all. Called once the upstream is finished for good (end
// marker, orphaned, or cancelled) — nothing can fill the gaps anymore, so
// parked packets go out as-is before the hub ends the stream downstream.
func (f *forwarder) flush() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.pending) == 0 {
		return
	}
	seqs := make([]int64, 0, len(f.pending))
	for seq := range f.pending {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	if f.next < 0 {
		f.next = seqs[0]
	}
	for _, seq := range seqs {
		hf := f.pending[seq]
		delete(f.pending, seq)
		if seq < f.next {
			f.lateDrops++
			continue
		}
		f.gapSkips += seq - f.next
		f.publishLocked(seq, hf.gen, hf.payload)
		f.next = seq + 1
	}
}
