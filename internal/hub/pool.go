package hub

import (
	"sync/atomic"

	"dmpstream/internal/lockrank"
)

// poisonByte fills every released buffer when the pool's poison-on-put
// debug mode is on; get verifies the fill is intact, so a use-after-put
// write is caught at the buffer's next acquisition instead of corrupting
// a live frame silently.
const poisonByte = 0xDB

// payloadBuf is one shared, refcounted payload buffer. The generator
// acquires it from the pool with refs == 1 (the ring's own reference),
// fills it once, and publishes it into a ring slot; zero-copy senders pin
// it (refs++) under the ring's read lock and release after their vectored
// write completes. Whoever drops the last reference returns the buffer to
// the pool. From publish until refs reaches zero the bytes are immutable,
// and no slice into them may outlive the last reference: a PoisonPool
// hub's PoolCheck counts any that a free batch, a subscriber or a parked
// path still holds (alias.go).
type payloadBuf struct {
	refs   atomic.Int32
	pooled bool // guarded by bufPool.mu; true while on the freelist

	// data is rewritten only between pool put and the next publish, i.e.
	// while exactly one owner holds the buffer. Writes anywhere else are
	// cross-reader corruption, which is why only payloadBuf's own methods
	// touch the bytes.
	data []byte // pooled shared payload, immutable from publish until the refcount reaches zero
}

// fill renders packet pkt's payload in place. Called only by the
// generator, on a buffer it exclusively owns (fresh from the pool, not
// yet published), so no reader can observe a torn write.
func (pb *payloadBuf) fill(fill func(pkt uint32, buf []byte), pkt uint32) {
	if fill != nil {
		fill(pkt, pb.data)
	}
}

// fillFrom copies an externally received payload in place — the
// external-source ingest analogue of fill, called by ring.publishAt on a
// buffer it exclusively owns (fresh from the pool, not yet published).
// It is the one sanctioned ingest copy per republished frame: the
// upstream's bytes become pool-private before any reader can alias the
// slot. src is copied out inside the call, never retained.
func (pb *payloadBuf) fillFrom(src []byte) {
	copy(pb.data, src)
}

// poison overwrites the payload with the poison pattern on release
// (debug mode only).
func (pb *payloadBuf) poison() {
	for i := range pb.data {
		pb.data[i] = poisonByte
	}
}

// poisonIntact reports whether the release-time poison fill survived the
// buffer's stay on the freelist; a false return means someone wrote
// through a stale reference after releasing it.
func (pb *payloadBuf) poisonIntact() bool {
	for _, c := range pb.data {
		if c != poisonByte {
			return false
		}
	}
	return true
}

// bufPool is a mutex-guarded freelist of fixed-size payload buffers.
// A freelist rather than sync.Pool on purpose: sync.Pool drops its
// contents under GC pressure and would re-allocate on the hot path,
// breaking the zero-allocs-per-frame budget; the freelist keeps steady
// state allocation-free with a capacity that stabilizes at the payloads
// the ring keeps plus in-flight pins and renders.
//
// Integrity counters make misuse observable: chaos asserts DoublePuts,
// PoisonTrips and Aliases stay zero across a full churn run.
type bufPool struct {
	size   int
	poison bool

	mu   lockrank.Mutex
	free []*payloadBuf // guarded by mu
	all  []*payloadBuf // guarded by mu; every buffer made, kept in poison mode for the alias scan

	news        int64 // guarded by mu; fresh buffers allocated (pool misses)
	gets        int64 // guarded by mu; acquisitions, freelist hits plus misses
	puts        int64 // guarded by mu; releases accepted onto the freelist
	doublePuts  int64 // guarded by mu; releases of a buffer already pooled
	poisonTrips int64 // guarded by mu; poison fills found overwritten on get
}

func newBufPool(size int, poison bool) *bufPool {
	p := &bufPool{size: size, poison: poison}
	p.mu.Init(lockrank.Pool)
	return p
}

// get acquires a buffer with refs == 1 and exclusive ownership: either a
// recycled freelist entry or a fresh allocation on a miss.
func (p *bufPool) get() *payloadBuf {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.getLocked()
}

// take fills every nil entry of bufs as get would, under one lock hold.
func (p *bufPool) take(bufs []*payloadBuf) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, pb := range bufs {
		if pb == nil {
			bufs[i] = p.getLocked()
		}
	}
}

// getLocked is get's body. Caller holds p.mu.
func (p *bufPool) getLocked() *payloadBuf {
	p.gets++
	var pb *payloadBuf
	if n := len(p.free); n > 0 {
		pb = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		pb.pooled = false
		if p.poison && !pb.poisonIntact() {
			p.poisonTrips++
		}
	} else {
		p.news++
		pb = &payloadBuf{data: make([]byte, p.size)}
		if p.poison {
			p.all = append(p.all, pb)
		}
	}
	pb.refs.Store(1)
	return pb
}

// putAll returns buffers whose refcount reached zero to the freelist,
// under one lock hold, and clears the entries.
func (p *bufPool) putAll(bufs []*payloadBuf) {
	if len(bufs) == 0 {
		return
	}
	p.mu.Lock()
	for i, pb := range bufs {
		p.putLocked(pb)
		bufs[i] = nil
	}
	p.mu.Unlock()
}

// putLocked returns one buffer to the freelist. A buffer already on the
// freelist is counted as a double put and left alone (the freelist must
// never hold the same entry twice). The ring's lapped and released slot
// references and the senders' released pins all end here. Caller holds
// p.mu.
func (p *bufPool) putLocked(pb *payloadBuf) {
	if pb == nil || len(pb.data) != p.size {
		return // foreign or mis-sized buffer: drop it rather than corrupt the freelist
	}
	if pb.pooled {
		p.doublePuts++
		return
	}
	if p.poison {
		pb.poison()
	}
	pb.pooled = true
	p.puts++
	p.free = append(p.free, pb)
}

// unref drops one reference to pb, returning it to the freelist when that
// was the last. A nil pb (an empty ring slot) is a no-op.
func (p *bufPool) unref(pb *payloadBuf) {
	if pb != nil && pb.refs.Add(-1) == 0 {
		p.mu.Lock()
		p.putLocked(pb)
		p.mu.Unlock()
	}
}

// PoolStats is a point-in-time integrity snapshot of the payload pool.
// News − (the buffers currently live in ring slots and pinned batches)
// should equal Free at quiescence; DoublePuts, PoisonTrips or Aliases
// above zero mean the refcount discipline was violated somewhere.
type PoolStats struct {
	News        int64 // fresh buffers allocated (pool misses)
	Gets        int64 // acquisitions (freelist hits + misses)
	Puts        int64 // releases accepted onto the freelist
	Free        int   // buffers currently on the freelist
	DoublePuts  int64 // > 0 ⇒ some buffer was released twice
	PoisonTrips int64 // > 0 ⇒ some pooled buffer was written after release
	Aliases     int64 // > 0 ⇒ a free batch, a subscriber or a parked path holds a slice into a pool buffer (PoisonPool hubs only)
}

func (p *bufPool) stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		News:        p.news,
		Gets:        p.gets,
		Puts:        p.puts,
		Free:        len(p.free),
		DoublePuts:  p.doublePuts,
		PoisonTrips: p.poisonTrips,
	}
}
