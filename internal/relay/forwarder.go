package relay

import (
	"sort"
	"sync"
	"time"

	"dmpstream/internal/core"
)

// syncDepth is how many packets the forwarder holds before committing to
// a starting sequence: the upstream hub spreads consecutive packets
// across the relay's paths, so the first arrival on a fast path may be a
// few sequences ahead of the true resume point on a slower one. Holding a
// short prefix and starting from its minimum keeps those near-boundary
// packets out of the late-drop bin.
const syncDepth = 8

// heldFrame is one out-of-order upstream packet parked in the reorder
// buffer until the sequences before it arrive (or are given up on).
type heldFrame struct {
	gen     int64
	payload []byte // bufown owned — private copy taken at ingest
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
	*core.PathReader // Run, Done, Conns, Expected: the core.Sink half
	r                *Relay

	mu        sync.Mutex
	next      int64               // guarded by mu; next sequence to publish; -1 until synced
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
	f := &forwarder{r: r, next: -1, pending: make(map[int64]heldFrame)}
	f.PathReader = core.NewPathReader(grace, r.onHeader, f.ingest)
	return f
}

// ingest routes one upstream packet: publish it if it is the next
// sequence, drop it if it is a duplicate or arrived too late, park it if
// it ran ahead. Holding the forwarder lock across the publish is what
// makes "strictly ascending, exactly once" true under concurrent paths —
// and it pins the relay tier's lock-order edge: forwarder.mu ≺
// hub.Hub.govMu (see the lockorder fixture).
//
// bufown borrowed payload — either copied into a private heldFrame buffer
// or lent onward to Hub.PublishAt (which copies before returning); never
// retained past the call.
func (f *forwarder) ingest(_ int, pkt uint32, gen int64, payload []byte) {
	seq := int64(pkt)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.next < 0 {
		// Not synced yet: park everything; commit to the smallest held
		// sequence once the prefix is deep enough to cover path skew.
		if _, dup := f.pending[seq]; dup {
			f.lateDrops++
			return
		}
		f.holdLocked(seq, gen, payload)
		if len(f.pending) >= syncDepth {
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
//
// bufown borrowed payload — copied into a fresh heldFrame buffer before
// the call returns.
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
// holds f.mu.
//
// bufown borrowed payload — lent onward to Hub.PublishAt, which copies it
// into a pool buffer before returning.
func (f *forwarder) publishLocked(seq, gen int64, payload []byte) {
	if h := f.r.local.Load(); h != nil && h.PublishAt(seq, gen, payload) {
		f.forwarded++
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
