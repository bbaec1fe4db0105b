package hub

import (
	"sync/atomic"
	"time"

	"dmpstream/internal/lockrank"
)

// slot is one generated packet in the shared ring.
type slot struct {
	// seq is the absolute sequence the slot currently holds, -1 until its
	// first publish. The CBR generator fills every position in order, so
	// seq always matches the requested sequence there; an external source
	// (relay ingest, ring.publishAt) may advance the head past sequences it
	// never received, leaving the skipped positions with a stale seq — the
	// read paths treat a seq mismatch as "not in the ring" and the caller
	// counts a drop, so a gap can never serve another packet's bytes.
	seq int64
	gen int64 // generation timestamp, UnixNano
	// payload is the refcounted shared buffer holding the filled content;
	// nil before the slot's first publish and, on the generator's ring, once
	// the slot is below the low-water mark (publish). The ring holds one
	// reference for as long as the buffer sits in the slot; publish drops
	// it when the head laps or the mark passes the slot, so a zero-copy
	// sender that pinned the buffer keeps valid bytes until its own release.
	// A released slot keeps its seq and gen, and a pin renders its packet
	// again (render). Any reference that leaves the ring's lock scope without
	// a pin is a borrow with frame-scoped lifetime.
	payload *payloadBuf
}

// ring is the shared packet store every shard fans out from: a fixed
// window of the most recent LagWindow packets, written only by the
// generator and read by every subscriber path. The generator publishes
// under the exclusive lock; shard workers pin the shared buffer's refcount
// under the shared lock (ring.pin/pinBatch), so fan-out readers never
// serialize against each other — only against the (brief, µ-paced)
// publish of a new packet. A slot's content is immutable from publish
// until every reference is dropped, and both pin calls revalidate the
// sequence under the lock hold, so a reader can never observe a torn
// overwrite or pin a recycled buffer.
//
// The window is what a subscriber may still ask for, not what the ring
// stores: the generator's ring keeps payloads from the oldest packet a
// subscriber needs (and the newest, where a rebased join starts), and a pin
// below that renders the packet again from Fill; an external source's ring
// (publishAt) keeps them all until the head laps them. A Keep hub's ring
// stores no more slots than that span needs: it starts small, grows with
// the backlog and gives the slots back once the backlog drains (publish),
// so a queue of any depth up to the window loses nothing and costs slots
// only while it holds the packets.
//
// head is mirrored into an atomic so shards compute lag and cursor math
// (sub.cur < head) without touching the ring lock at all; only the pin
// itself takes the read lock.
type ring struct {
	n     int64 // the window in packets; immutable after newRing
	floor int64 // the slots stored to start with; a shrink stops there
	pool  *bufPool
	fill  func(pkt uint32, buf []byte) // the stream's Fill, a pure function of the packet number

	mu lockrank.RWMutex
	// slots holds the newest len(slots) packets, at index seq % len(slots).
	// A ring that keeps the window has all n from the start; one that keeps
	// only what is needed (newRing's slots below n) grows as publish finds
	// the packet it would overwrite still needed, doubling up to n, and
	// halves back towards floor once what is needed fits in a quarter.
	slots []slot // guarded by mu
	head  int64  // guarded by mu; absolute sequence of the next packet to publish
	low   int64  // guarded by mu; the generator's low-water mark: no slot below it holds the ring's reference

	headA atomic.Int64 // mirror of head, published after each write
}

// newRing builds a ring of window n that stores slots packets to start
// with (n to keep the whole window), every slot invalid (seq -1) so a gap
// position can never masquerade as a published packet.
// nolint:lockguard constructor — the ring has not been published to any
// reader yet, so the slot init needs no lock
func newRing(n, slots int, pool *bufPool, fill func(pkt uint32, buf []byte)) *ring {
	r := &ring{n: int64(n), floor: int64(slots), pool: pool, fill: fill, slots: newSlots(slots)}
	r.mu.Init(lockrank.Ring)
	return r
}

// newSlots returns n slots, none valid.
func newSlots(n int) []slot {
	s := make([]slot, n)
	for i := range s {
		s[i].seq = -1 // no slot is valid before its first publish
	}
	return s
}

// size returns the ring's window in packets.
func (r *ring) size() int64 { return r.n }

// tail returns the oldest sequence the ring stores.
func (r *ring) tail() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return max(r.head-int64(len(r.slots)), 0)
}

// resizeLocked stores the newest n packets in n slots, moving each to its
// index in the new ring and dropping the ring's reference on any older one
// a smaller ring lets go. Caller holds mu exclusively.
func (r *ring) resizeLocked(n int64) {
	old, oc := r.slots, int64(len(r.slots))
	r.slots = newSlots(int(n))
	for seq := max(r.head-oc, 0); seq < r.head; seq++ {
		if seq >= r.head-n {
			r.slots[seq%n] = old[seq%oc]
		} else {
			r.pool.unref(old[seq%oc].payload)
		}
	}
}

// headSeq returns the live edge: the absolute sequence of the next
// packet to be published. Lock-free.
func (r *ring) headSeq() int64 { return r.headA.Load() }

// publish renders the next packet from Fill into the ring and advances the
// head, returning the new head sequence. Only the generator calls publish.
// The fresh buffer is acquired from the pool and filled before the lock
// is taken — it is private until the swap below, and only the generator
// advances the head, so no reader can alias it while fill writes. Inside
// the exclusive section the ring drops its reference on every slot below
// low, the caller's low-water mark (the oldest packet a subscriber still
// needs, at most the newest); the lapped occupant's after the swap. A ring
// storing less than its window grows first if the packet it would lap is
// at or above keep (at most low), a packet someone may still ask for: its
// slot keeps the sequence and stamp a render needs. One grown past its
// starting slots halves once the span from keep to the head fits in a
// quarter of them: between the two thresholds it stays put, so a backlog
// hovering at one size does not resize it on every publish.
func (r *ring) publish(low, keep int64) int64 {
	pb := r.pool.get()
	pb.fill(r.fill, uint32(r.headA.Load()))
	gen := time.Now().UnixNano()
	r.mu.Lock()
	c := int64(len(r.slots))
	for seq := max(r.low, r.head-c); seq < low; seq++ {
		s := &r.slots[seq%c]
		r.pool.unref(s.payload)
		s.payload = nil
	}
	r.low = max(r.low, low)
	if lapped := r.head - c; lapped >= 0 && lapped >= keep && c < r.n {
		r.resizeLocked(min(2*c, r.n))
	} else if c > r.floor && r.head-keep <= c/4 {
		r.resizeLocked(max(c/2, r.floor))
	}
	c = int64(len(r.slots))
	s := &r.slots[r.head%c]
	old := s.payload
	s.seq = r.head
	s.gen = gen
	s.payload = pb
	r.head++
	head := r.head
	r.headA.Store(head)
	r.mu.Unlock()
	r.pool.unref(old)
	return head
}

// publishAt places an externally received packet at absolute sequence seq
// and advances the head to seq+1 — the external-source ingest point (an
// edge relay republishing its upstream feed). seq must be at or past the
// current head: the forwarder publishes in ascending order, so anything
// below head is a late duplicate and is refused (ok=false) rather than
// backfilled. Skipped positions between the old head and seq keep their
// stale occupants; the seq-validity check in pin/pinBatch makes
// those gaps read as drops, never as another packet's bytes. payload is
// copied into a pool buffer that is still private, before any reader can
// alias the slot.
func (r *ring) publishAt(seq, gen int64, payload []byte) (head int64, ok bool) {
	pb := r.pool.get()
	pb.fillFrom(payload)
	r.mu.Lock()
	if seq < r.head {
		r.mu.Unlock()
		r.pool.unref(pb)
		return r.headA.Load(), false
	}
	s := &r.slots[seq%int64(len(r.slots))]
	old := s.payload
	s.seq = seq
	s.gen = gen
	s.payload = pb
	r.head = seq + 1
	r.headA.Store(r.head)
	r.mu.Unlock()
	r.pool.unref(old)
	return seq + 1, true
}

// pin acquires a reference on ring packet seq for zero-copy delivery,
// returning the shared buffer and the slot's generation timestamp.
// ok=false means seq was already lapped, or is an external-source gap. The
// refcount is raised under the read lock — publish recycles a slot only
// under the exclusive lock, so a successful pin can never hand out a buffer
// that is back in the pool. A released slot pins as a nil buffer for the
// caller to render. The caller must drop the reference (releaseBatch) once
// its write completes.
func (r *ring) pin(seq int64) (pb *payloadBuf, gen int64, ok bool) {
	r.mu.RLock()
	c := int64(len(r.slots))
	if seq < r.head-c || seq >= r.head || r.slots[seq%c].seq != seq {
		r.mu.RUnlock()
		return nil, 0, false
	}
	s := &r.slots[seq%c]
	if pb = s.payload; pb != nil {
		pb.refs.Add(1)
	}
	gen = s.gen
	r.mu.RUnlock()
	return pb, gen, true
}

// pinBatch pins up to max consecutive packets starting at start into b
// under one read-lock hold, returning how many it pinned and how many
// leading packets were unservable — lapped by the head, or external-source
// gap slots the head advanced past (the caller counts both as drops). The
// batch stops early at an interior gap; the next call's leading-skip pass
// accounts for it. The pinned buffers, sequences and generation stamps
// land in b's preallocated slots starting at b.n; a released slot's entry
// is left nil, as pin leaves it.
func (r *ring) pinBatch(start int64, max int, b *batch) (pinned int, skipped int64) {
	r.mu.RLock()
	c := int64(len(r.slots))
	if tail := r.head - c; start < tail {
		skipped = tail - start
		start = tail
	}
	for start < r.head && r.slots[start%c].seq != start {
		skipped++
		start++
	}
	for pinned < max && start < r.head {
		s := &r.slots[start%c]
		if s.seq != start {
			break // interior gap: stop the batch; the next call skips it
		}
		if pb := s.payload; pb != nil {
			pb.refs.Add(1)
		}
		b.bufs[b.n] = s.payload
		b.gens[b.n] = s.gen
		b.seqs[b.n] = start
		b.n++
		pinned++
		start++
	}
	r.mu.RUnlock()
	return pinned, skipped
}

// render draws each packet b's pins left nil — released below the
// low-water mark — again from Fill, into a fresh pool buffer that the batch
// alone owns (refs 1) and that is never installed in the slot. The buffers
// are taken under one pool lock. Fill is a pure function of the packet
// number, so the bytes are the ones publish wrote. It runs without r.mu:
// user Fill never runs under the ring lock.
func (r *ring) render(b *batch) {
	var drawn uint64 // bit i: entry i is rendered; a batch holds at most writeBatchFrames (32) frames
	for i := 0; i < b.n; i++ {
		if b.bufs[i] == nil {
			drawn |= 1 << i
		}
	}
	if drawn == 0 {
		return
	}
	r.pool.take(b.bufs[:b.n])
	for i := 0; i < b.n; i++ {
		if drawn&(1<<i) != 0 {
			b.bufs[i].fill(r.fill, uint32(b.seqs[i]))
		}
	}
}
