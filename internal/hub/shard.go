package hub

import (
	"net"
	"slices"
	"sync"
	"time"

	"dmpstream/internal/core"
)

// subscriber is one multipath subscription: a cursor into the ring plus the
// path connections attached under its token. All mutable fields are guarded
// by the owning shard's mutex; token, first and shard are immutable after
// creation.
type subscriber struct {
	token core.Token
	shard *shard // owning shard, fixed by the token hash
	first int64  // absolute sequence at join; frames are rebased to it

	cur      int64      // guarded by mu (the shard's); absolute next sequence to fetch
	paths    int        // guarded by mu; live path senders
	nextPath int        // guarded by mu; next path index to hand out
	sent     int64      // guarded by mu
	dropped  int64      // guarded by mu
	evicted  bool       // guarded by mu
	conns    []net.Conn // guarded by mu
	window   int        // guarded by mu; effective lag window, shrunk by the governor
	sheds    int64      // guarded by mu; degradation-ladder steps applied

	// Path-death bookkeeping. resend holds absolute sequences a dead path
	// may not have delivered, served (oldest first) before the cursor by any
	// of the subscriber's paths. deaths counts abnormal path deaths;
	// deadPaths counts deaths not yet matched by a re-attach. graceGen
	// versions the pending grace timer so a timer from an earlier death
	// cannot delete a subscriber that re-attached and died again.
	resend    []int64 // guarded by mu; sorted ascending, deduplicated
	deaths    int64   // guarded by mu
	deadPaths int     // guarded by mu
	graceGen  int64   // guarded by mu
}

// shard owns one slice of the subscriber population. Each subscriber is
// pinned to a shard by a hash of its token, so a shard's mutex covers
// exactly its own subscribers' cursors, resend queues and send loops —
// ring advance, lag enforcement and fan-out for one shard never contend
// with another shard's. The generator wakes each shard once per packet;
// everything else on the frame hot path is shard-local plus a shared
// (read) lock on the ring.
type shard struct {
	h *Hub

	mu    sync.Mutex
	cond  *sync.Cond
	subs  map[core.Token]*subscriber // guarded by mu
	wakes int64                      // guarded by mu; generator wake broadcasts (the coalescing tests' counter hook)

	// The shard's stock of idle batch workspaces, leased to path
	// senders for the span of one write (see batch). It grows on a miss,
	// so it reaches the shard's high-water mark of concurrent writes and
	// from then on leasing allocates nothing; freeLow lets wake give the
	// surplus of a passed peak back to the collector.
	free    *batch // guarded by mu; LIFO list through batch.next
	nfree   int    // guarded by mu; length of the free list
	freeLow int    // guarded by mu; smallest nfree since the last trim — batches nothing needed
}

// freeTrimWakes is how many generator wakes pass between trims of a
// shard's batch free list: about a second of a 250 packets/s stream, long
// enough that one interval's low-water mark spans many bursts of
// concurrent writes.
const freeTrimWakes = 256

func newShard(h *Hub) *shard {
	sd := &shard{h: h, subs: make(map[core.Token]*subscriber)}
	sd.cond = sync.NewCond(&sd.mu)
	return sd
}

// wake is the generator's per-tick visit: apply the slow-subscriber
// policy to this shard's laggards at the new live edge and wake its send
// loops. The generator coalesces: however many packets one tick
// published, each shard is visited — and each subscriber woken — at most
// once per tick (wakes counts the broadcasts so tests can pin that).
func (sd *shard) wake(head int64) {
	sd.mu.Lock()
	sd.enforceLagLocked(head)
	sd.wakes++
	if sd.wakes%freeTrimWakes == 0 {
		sd.trimFreeLocked()
	}
	sd.cond.Broadcast()
	sd.mu.Unlock()
}

// leaseLocked takes a batch workspace off the shard's free list,
// allocating one only when every batch the shard has is out on lease.
// Caller holds sd.mu.
func (sd *shard) leaseLocked() *batch {
	b := sd.free
	if b == nil {
		// Miss: more writes in flight than ever before on this shard (or
		// since the last trim). The stock grows by one and keeps it.
		return newBatch(sd.h.batchFrames)
	}
	sd.free, b.next = b.next, nil
	sd.nfree--
	if sd.nfree < sd.freeLow {
		sd.freeLow = sd.nfree
	}
	return b
}

// returnLocked puts a leased batch back on the free list. Caller holds
// sd.mu.
//
// bufown owned b — the lease ends at this call: the batch is the shard's
// again and the next lessee overwrites every slot, so it must come back
// holding no borrow (releaseBatch has dropped its pins and their aliases).
func (sd *shard) returnLocked(b *batch) {
	b.next = sd.free
	sd.free = b
	sd.nfree++
}

// returnBatch hands back the lease of a sender that is leaving without
// another popBatch call — its write failed mid-batch.
//
// bufown owned b — as returnLocked: released first, the shard's after.
func (sd *shard) returnBatch(b *batch) {
	sd.mu.Lock()
	sd.returnLocked(b)
	sd.mu.Unlock()
}

// trimFreeLocked drops half of the batches that sat idle through the whole
// interval since the last trim. A stall that backlogged every path at once
// leaves one batch per path behind; halving returns that to the steady
// stock within a few intervals without dropping a batch the next burst of
// the same size would have to allocate again. Caller holds sd.mu.
func (sd *shard) trimFreeLocked() {
	for drop := sd.freeLow / 2; drop > 0; drop-- {
		sd.free = sd.free.next // unlinked, the batch is the collector's
		sd.nfree--
	}
	sd.freeLow = sd.nfree
}

// enforceLagLocked applies the slow-subscriber policy to every subscriber
// whose cursor has fallen behind its effective window — the configured
// LagWindow, or less once the resource governor has shrunk it. Caller
// holds sd.mu.
func (sd *shard) enforceLagLocked(head int64) {
	ringSize := sd.h.ring.size()
	for _, sub := range sd.subs {
		if sub.evicted {
			continue
		}
		win := int64(sub.window)
		if win > ringSize {
			win = ringSize
		}
		oldest := head - win
		if oldest <= 0 || sub.cur >= oldest {
			continue
		}
		switch sd.h.cfg.Policy {
		case DropOldest:
			skipped := oldest - sub.cur
			sub.dropped += skipped
			sd.h.totalDropped.Add(skipped)
			sub.cur = oldest
		case Evict:
			sd.evictLocked(sub)
		}
	}
}

// heldLocked is the full-frame buffered-byte attribution of one
// subscriber at live edge head: the ring packets it still has to fetch
// (its lag) plus its pending resends, at one frame each. The governor's
// global total charges shared payload bytes once (Hub.accountLocked);
// heldLocked deliberately keeps the per-subscriber view at full frames so
// ranking the worst laggard reflects the payload span only it keeps
// alive. Caller holds sd.mu.
func (sd *shard) heldLocked(sub *subscriber, head int64) int64 {
	frame := int64(core.FrameHeaderSize + sd.h.cfg.Stream.PayloadSize)
	return (head - sub.cur + int64(len(sub.resend))) * frame
}

// shedLocked applies one degradation-ladder step to sub: drop its backlog
// to the current window; if that frees nothing, shrink the window (halving,
// floored at minShedWindow) and drop again; once even the floor holds
// nothing clippable, evict. Caller holds sd.mu.
func (sd *shard) shedLocked(sub *subscriber, head int64) {
	if sub.evicted {
		return
	}
	sub.sheds++
	sd.h.shedCount.Add(1)
	for {
		if sd.clipLocked(sub, int64(sub.window), head) > 0 {
			return
		}
		if sub.window <= minShedWindow {
			break
		}
		if w := sub.window / 2; w < minShedWindow {
			sub.window = minShedWindow
		} else {
			sub.window = w
		}
	}
	sd.evictLocked(sub)
}

// clipLocked advances sub's cursor to at most win packets behind the live
// edge and sheds resend entries older than that, counting everything
// skipped as drops. It returns the number of packets freed. Caller holds
// sd.mu.
func (sd *shard) clipLocked(sub *subscriber, win, head int64) int64 {
	if win > sd.h.ring.size() {
		win = sd.h.ring.size()
	}
	oldest := head - win
	if oldest <= 0 {
		return 0
	}
	var freed int64
	if sub.cur < oldest {
		skipped := oldest - sub.cur
		sub.dropped += skipped
		sd.h.totalDropped.Add(skipped)
		sub.cur = oldest
		freed += skipped
	}
	for len(sub.resend) > 0 && sub.resend[0] < oldest {
		sub.resend = sub.resend[1:]
		sub.dropped++
		sd.h.totalDropped.Add(1)
		freed++
	}
	return freed
}

// evictLocked disconnects sub and marks it evicted; its paths see closed
// connections and a later re-attach of its token is refused with a typed
// reject. Caller holds sd.mu.
func (sd *shard) evictLocked(sub *subscriber) {
	if sub.evicted {
		return
	}
	sub.evicted = true
	sd.h.evictedCount.Add(1)
	for _, c := range sub.conns {
		_ = c.Close()
	}
}

// popBatch returns a leased batch filled with the subscriber's next ready
// frames — resend-queue packets first, so retransmissions jump ahead of
// new content, then up to the batch capacity of consecutive cursor
// packets — pinning each shared ring buffer instead of copying it, and
// blocking while the subscriber is caught up and generation continues.
// One wakeup therefore drains one vectored write's worth of frames. prev
// is the caller's lease from its previous call (nil on the first), already
// released; it goes back on the shard's free list under the same lock
// hold, and a batch is leased again only once there are frames to pin, so
// a sender parked in cond.Wait holds none. nil means the stream is over
// for this subscriber (drained after Stop/Count, evicted, or force-closed)
// and the caller holds no lease. The caller owns the pins in the returned
// batch and must drop them with releaseBatch after its write.
//
// bufown owned prev — the previous lease ends here, as in returnLocked.
func (sd *shard) popBatch(sub *subscriber, prev *batch) *batch {
	h := sd.h
	sd.mu.Lock()
	defer sd.mu.Unlock()
	if prev != nil {
		sd.returnLocked(prev)
	}
	for {
		if sub.evicted || h.closed.Load() {
			return nil
		}
		if len(sub.resend) == 0 && sub.cur >= h.ring.headSeq() {
			if h.stopped.Load() || h.genDone.Load() {
				return nil
			}
			sd.cond.Wait()
			continue
		}
		b := sd.leaseLocked()
		sd.fillLocked(sub, b)
		if b.n > 0 {
			return b
		}
		// Everything ready had already left the ring: the drops are
		// counted, and the next pass finds the subscriber caught up.
		sd.returnLocked(b)
	}
}

// fillLocked pins the subscriber's ready frames into b: the resend queue
// oldest first, then consecutive cursor packets, up to the batch capacity.
// Packets that left the ring are counted as drops. Caller holds sd.mu.
func (sd *shard) fillLocked(sub *subscriber, b *batch) {
	h := sd.h
	b.n = 0
	for len(sub.resend) > 0 && b.n < len(b.bufs) {
		seq := sub.resend[0]
		sub.resend = sub.resend[1:]
		pb, gen, ok := h.ring.pin(seq)
		if !ok {
			// Fell out of the ring while the path was down: the
			// subscriber will see a gap, same as a DropOldest skip.
			sub.dropped++
			h.totalDropped.Add(1)
			continue
		}
		b.bufs[b.n], b.gens[b.n], b.seqs[b.n] = pb, gen, seq
		b.n++
		sub.sent++
		h.totalSent.Add(1)
		h.totalResent.Add(1)
	}
	if sub.cur < h.ring.headSeq() && b.n < len(b.bufs) {
		pinned, skipped := h.ring.pinBatch(sub.cur, len(b.bufs)-b.n, b)
		if skipped > 0 {
			// Lapped between the lag check and the pin — an extreme
			// laggard racing the generator. Same accounting as a skip.
			sub.dropped += skipped
			h.totalDropped.Add(skipped)
		}
		sub.cur += skipped + int64(pinned)
		sub.sent += int64(pinned)
		h.totalSent.Add(int64(pinned))
	}
}

// finishPath retires one path sender. A path that drained normally (or died
// after the stream ended) just goes away, and the subscriber disappears with
// its last path. A path that died abnormally mid-stream instead queues its
// recent writes for retransmission and, if it was the subscriber's last
// path, starts the re-attach grace countdown: the subscription stays in the
// shard so a redialing client's token still resolves, and is reaped only if
// the window expires (or the stream ends) with no path back.
func (sd *shard) finishPath(sub *subscriber, conn net.Conn, recent []int64, err error) {
	_ = conn.Close()
	h := sd.h
	// A resend queue is held memory like any backlog: when this death adds
	// one, the global budget is re-checked before anyone can observe the
	// overshoot. The governor lock is taken before the shard lock (the
	// documented order) and held across the merge so a concurrent Stats
	// cannot sample between the merge and the governor pass.
	govern := len(recent) > 0 && h.cfg.MaxBytes > 0
	if govern {
		h.govMu.Lock()
		defer h.govMu.Unlock()
	}
	sd.mu.Lock()
	sub.paths--
	h.pathConns.Add(-1)
	for i, c := range sub.conns {
		if c == conn {
			// slices.Delete zeroes the vacated tail slot; a plain append
			// would leave the closed conn reachable from the backing
			// array for as long as the subscriber lives.
			sub.conns = slices.Delete(sub.conns, i, i+1)
			break
		}
	}
	abnormal := err != nil && !sub.evicted && !h.closed.Load()
	if abnormal {
		h.pathErrors.Add(1)
	}
	if abnormal && !h.stopped.Load() && !h.genDone.Load() {
		sub.deaths++
		sub.deadPaths++
		if len(recent) > 0 {
			sub.resend = mergeSeqs(sub.resend, recent)
		}
		switch {
		case sub.paths > 0:
			// Surviving paths serve the resends.
		case h.cfg.ReattachGrace > 0:
			sub.graceGen++
			gen := sub.graceGen
			h.wg.Add(1)
			go func() {
				defer h.wg.Done()
				t := time.NewTimer(h.cfg.ReattachGrace)
				select {
				case <-t.C:
				case <-h.stopCh: // stream over: no re-attach can succeed
					t.Stop()
				}
				sd.mu.Lock()
				// A re-attach (paths > 0) or a newer death's timer
				// (graceGen moved on) supersedes this countdown.
				if sub.paths == 0 && sub.graceGen == gen {
					sd.removeLocked(sub)
				}
				sd.mu.Unlock()
			}()
		default:
			sd.removeLocked(sub)
		}
		sd.mu.Unlock()
		if govern {
			h.governLocked(h.ring.headSeq())
		}
		return
	}
	if sub.paths == 0 {
		sd.removeLocked(sub)
	}
	sd.mu.Unlock()
	if govern {
		h.governLocked(h.ring.headSeq())
	}
}

// removeLocked deletes sub from the shard if it is still the one
// registered under its token, releasing its admission slot. Caller holds
// sd.mu.
func (sd *shard) removeLocked(sub *subscriber) {
	if sd.subs[sub.token] == sub {
		delete(sd.subs, sub.token)
		sd.h.subCount.Add(-1)
	}
}
