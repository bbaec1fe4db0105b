package hub

import (
	"sync"
	"sync/atomic"
	"time"
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
	// nil only before the slot's first publish. The ring holds one
	// reference for as long as the buffer sits in the slot; publish drops
	// that reference when the head laps, so a zero-copy sender that pinned
	// the buffer keeps valid bytes until its own release. Any reference
	// that leaves the ring's lock scope without a pin is a borrow with
	// frame-scoped lifetime.
	payload *payloadBuf // bufown owned — slot buffer, recycled through the pool when the head laps
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
// head is mirrored into an atomic so shards compute lag and cursor math
// (sub.cur < head) without touching the ring lock at all; only the pin
// itself takes the read lock.
type ring struct {
	n    int64 // capacity in packets; immutable after newRing
	pool *bufPool

	mu    sync.RWMutex
	slots []slot // guarded by mu
	head  int64  // guarded by mu; absolute sequence of the next packet to publish

	headA atomic.Int64 // mirror of head, published after each write
}

// newRing builds the ring with every slot invalid (seq -1) so a gap
// position can never masquerade as a published packet.
// nolint:lockguard constructor — the ring has not been published to any
// reader yet, so the slot init needs no lock
func newRing(n int, pool *bufPool) *ring {
	r := &ring{n: int64(n), pool: pool, slots: make([]slot, n)}
	for i := range r.slots {
		r.slots[i].seq = -1 // no slot is valid before its first publish
	}
	return r
}

// size returns the ring capacity in packets.
func (r *ring) size() int64 { return r.n }

// headSeq returns the live edge: the absolute sequence of the next
// packet to be published. Lock-free.
func (r *ring) headSeq() int64 { return r.headA.Load() }

// publish writes the next packet into the ring and advances the head,
// returning the new head sequence. Only the generator calls publish.
// The fresh buffer is acquired from the pool and filled before the lock
// is taken — it is private until the swap below, and only the generator
// advances the head, so the exclusive critical section shrinks to a
// pointer swap. The lapped occupant's ring reference is dropped after
// the swap; if no sender still pins it, it returns to the pool here.
//
// bufown sink — slot ingest: fill writes the payload in place while the
// buffer is still private, before any reader can alias the slot.
func (r *ring) publish(fill func(pkt uint32, buf []byte)) int64 {
	pb := r.pool.get()
	pb.fill(fill, uint32(r.headA.Load()))
	gen := time.Now().UnixNano()
	r.mu.Lock()
	s := &r.slots[r.head%int64(len(r.slots))]
	old := s.payload
	s.seq = r.head
	s.gen = gen
	s.payload = pb
	r.head++
	head := r.head
	r.headA.Store(head)
	r.mu.Unlock()
	if old != nil && old.refs.Add(-1) == 0 {
		r.pool.put(old)
	}
	return head
}

// publishAt places an externally received packet at absolute sequence seq
// and advances the head to seq+1 — the external-source ingest point (an
// edge relay republishing its upstream feed). seq must be at or past the
// current head: the forwarder publishes in ascending order, so anything
// below head is a late duplicate and is refused (ok=false) rather than
// backfilled. Skipped positions between the old head and seq keep their
// stale occupants; the seq-validity check in pin/pinBatch makes
// those gaps read as drops, never as another packet's bytes.
//
// bufown sink — slot ingest: the borrowed payload is copied into a pool
// buffer that is still private, before any reader can alias the slot.
func (r *ring) publishAt(seq, gen int64, payload []byte) (head int64, ok bool) {
	pb := r.pool.get()
	pb.fillFrom(payload)
	r.mu.Lock()
	if seq < r.head {
		r.mu.Unlock()
		if pb.refs.Add(-1) == 0 {
			r.pool.put(pb)
		}
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
	if old != nil && old.refs.Add(-1) == 0 {
		r.pool.put(old)
	}
	return seq + 1, true
}

// pin acquires a reference on ring packet seq for zero-copy delivery,
// returning the shared buffer and the slot's generation timestamp.
// ok=false means seq was already lapped. The refcount is raised under
// the read lock — publish recycles a lapped slot only under the
// exclusive lock, so a successful pin can never hand out a buffer that
// is back in the pool. The caller must drop the reference (releaseBatch)
// once its write completes.
func (r *ring) pin(seq int64) (pb *payloadBuf, gen int64, ok bool) {
	r.mu.RLock()
	if seq < r.head-int64(len(r.slots)) || seq >= r.head {
		r.mu.RUnlock()
		return nil, 0, false
	}
	s := &r.slots[seq%int64(len(r.slots))]
	if s.seq != seq || s.payload == nil {
		// An external-source gap; reads as a drop, like a lapped slot.
		r.mu.RUnlock()
		return nil, 0, false
	}
	pb = s.payload
	pb.refs.Add(1)
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
// land in b's preallocated slots starting at b.n.
func (r *ring) pinBatch(start int64, max int, b *batch) (pinned int, skipped int64) {
	r.mu.RLock()
	if tail := r.head - int64(len(r.slots)); start < tail {
		skipped = tail - start
		start = tail
	}
	for start < r.head {
		s := &r.slots[start%int64(len(r.slots))]
		if s.seq == start && s.payload != nil {
			break
		}
		skipped++
		start++
	}
	for pinned < max && start < r.head {
		s := &r.slots[start%int64(len(r.slots))]
		if s.seq != start || s.payload == nil {
			break // interior gap: stop the batch; the next call skips it
		}
		pb := s.payload
		pb.refs.Add(1)
		b.bufs[b.n] = pb
		b.gens[b.n] = s.gen
		b.seqs[b.n] = start
		b.n++
		pinned++
		start++
	}
	r.mu.RUnlock()
	return pinned, skipped
}
