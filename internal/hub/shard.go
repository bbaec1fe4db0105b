package hub

import (
	"fmt"
	"math"
	"math/bits"
	"net"
	"runtime"
	"slices"
	"time"

	"dmpstream/internal/lockrank"
	"dmpstream/internal/wire"
)

// subscriber is one multipath subscription: a cursor into the ring plus the
// paths attached under its token. All mutable fields are guarded by the
// owning shard's mutex; token, first and shard are immutable after
// creation. The shard keeps running totals over its subscribers' cursors
// and resend queues (see shard), so cur and resend change only through
// advanceLocked and the resend helpers.
type subscriber struct {
	token wire.Token
	shard *shard // owning shard, fixed by the token hash
	first int64  // absolute sequence at join; frames are rebased to it

	cur       int64   // guarded by mu (the shard's); absolute next sequence to fetch
	nextPath  int32   // guarded by mu; next path index to hand out
	deadPaths int32   // guarded by mu; abnormal deaths not yet matched by a re-attach
	sent      int64   // guarded by mu
	dropped   int64   // guarded by mu
	evicted   bool    // guarded by mu
	links     []*path // guarded by mu; attached paths, in attach order
	window    int     // guarded by mu; effective lag window, shrunk by the governor
	sheds     int64   // guarded by mu; degradation-ladder steps applied

	// writer is the path that took the subscriber's most recent frames,
	// marked from its very first batch. It parks behind its siblings — one
	// that attaches later included — so at pace (one frame per tick, the
	// first path reached takes it) the subscriber's paths take turns.
	writer *path // guarded by mu

	// Path-death bookkeeping. resend holds absolute sequences a dead path
	// may not have delivered, served (oldest first) before the cursor by any
	// of the subscriber's paths. deaths counts abnormal path deaths. grace is
	// the last re-attach countdown, versioned by graceGen so that a firing
	// Stop came too late for cannot delete a revived subscriber.
	resend   []int64     // guarded by mu; sorted ascending, deduplicated
	deaths   int64       // guarded by mu
	graceGen int64       // guarded by mu
	grace    *time.Timer // guarded by mu; armed by graceLocked, nil before the first
	orphan   int         // guarded by mu; place in the shard's orphans plus one, 0 while not an orphan
}

// path is one attached path connection: what a worker needs to resume it —
// the subscriber it serves, the connection, its place among the
// subscriber's paths and the sequences it wrote last. It is an entry, not
// a goroutine. At any moment it is on exactly one of its shard's lists:
// parked with nothing to send, woken or ready with something to do, or held
// by the one shard worker that is writing it — which is what keeps a
// path's writes one at a time and in order.
type path struct {
	sub      *subscriber
	conn     net.Conn
	idx      int32 // path index announced in the stream header
	numPaths int32 // the subscriber's path count when this one attached

	next, prev *path // guarded by mu (the shard's); links of the list the path is on
	held       bool  // guarded by mu; on the shard's held list: a worker has it
	removed    bool  // guarded by mu; RemovePath asked it to end: its end marker is next
	// owe is, under Keep, the oldest sequence the path may still hand back
	// for resending — its batch in hand and its resend record — or
	// math.MaxInt64; its holder sets it at every step (stepLocked).
	owe int64 // guarded by mu

	// Owned by whichever worker holds the path; the shard mutex orders one
	// holder's accesses before the next one's.
	started bool // stream header written (or being written)
	// The resend record: the last ResendWindow sequences written, as the
	// 32-bit number that went on the wire, uint32(seq − sub.first). A
	// caught-up path writes consecutive numbers, kept as runs inline; writes
	// that fragment past them (striped paths, served resends, repeated lag
	// skips) spill the record to a ring the path keeps for life.
	runs [2]run      // oldest first; unused runs are empty; ignored once spilled
	ring *resendRing // nil until the record spills
}

// run is the consecutive wire numbers from, from+1, …, from+n−1 (mod 2³²).
type run struct{ from, n uint32 }

// resendRing is a spilled resend record: one slot per wire number.
type resendRing struct {
	slots []uint32
	wrote int // numbers ever recorded; slots[wrote%len] is next to overwrite
}

// remember records a written batch in the resend record, keeping the last win.
func (p *path) remember(seqs []int64, win int) {
	if win == 0 {
		return
	}
	for _, seq := range seqs {
		w := uint32(seq - p.sub.first)
		if p.ring == nil && !p.extendRuns(w, win) {
			p.spill(win)
		}
		if r := p.ring; r != nil {
			r.slots[r.wrote%win] = w
			r.wrote++
		}
	}
}

// extendRuns appends w to the inline runs, dropping the oldest number once
// they hold more than win; false if w starts a run there is no room for.
func (p *path) extendRuns(w uint32, win int) bool {
	k := int(min(p.runs[0].n, 1) + min(p.runs[1].n, 1)) // runs in use
	switch {
	case k > 0 && w == p.runs[k-1].from+p.runs[k-1].n:
		p.runs[k-1].n++
	case k < len(p.runs):
		p.runs[k] = run{from: w, n: 1}
	default:
		return false
	}
	if p.runs[0].n+p.runs[1].n > uint32(win) {
		p.runs[0].from++
		if p.runs[0].n--; p.runs[0].n == 0 {
			p.runs[0], p.runs[1] = p.runs[1], run{}
		}
	}
	return true
}

// spill moves the inline runs, oldest first, into a new win-slot ring.
func (p *path) spill(win int) {
	r := &resendRing{slots: make([]uint32, win)}
	for _, run := range p.runs {
		for i := uint32(0); i < run.n; i++ {
			r.slots[r.wrote] = run.from + i
			r.wrote++
		}
	}
	p.ring = r
}

// lastWritten returns the absolute sequences in the resend record, oldest
// first, with room for a batch to be appended; nil if the path never wrote.
func (p *path) lastWritten() []int64 {
	if p.ring == nil {
		n := p.runs[0].n + p.runs[1].n
		if n == 0 {
			return nil
		}
		out := make([]int64, 0, int(n)+writeBatchFrames)
		for _, r := range p.runs {
			for i := uint32(0); i < r.n; i++ {
				out = append(out, p.sub.first+int64(r.from+i))
			}
		}
		return out
	}
	r := p.ring
	n := min(r.wrote, len(r.slots))
	out := make([]int64, 0, n+writeBatchFrames)
	at := r.wrote % n // the oldest entry once the ring has wrapped, 0 before
	for i := 0; i < n; i++ {
		out = append(out, p.sub.first+int64(r.slots[at]))
		if at++; at == n {
			at = 0
		}
	}
	return out
}

// oldestWritten returns the oldest sequence in the resend record,
// math.MaxInt64 if it is empty. Only the path's holder calls it.
func (p *path) oldestWritten() int64 {
	oldest := int64(math.MaxInt64)
	if r := p.ring; r != nil {
		for _, w := range r.slots[:min(r.wrote, len(r.slots))] {
			oldest = min(oldest, p.sub.first+int64(w))
		}
		return oldest
	}
	for _, r := range p.runs {
		if r.n > 0 {
			oldest = min(oldest, p.sub.first+int64(r.from))
		}
	}
	return oldest
}

// shard owns one slice of the subscriber population. Each subscriber is
// pinned to a shard by a hash of its token, so a shard's mutex covers
// exactly its own subscribers' cursors, resend queues, paths and workers —
// ring advance, lag enforcement and fan-out for one shard never contend
// with another shard's. The generator wakes each shard once per tick;
// everything else on the frame hot path is shard-local plus a shared
// (read) lock on the ring.
//
// Every attached path is on one of four lists. parked: its subscriber had
// nothing to fetch when a worker last looked, and nothing has been
// published to this shard since. woken: the paths the last tick found
// parked, moved over in one splice — their subscribers were caught up to
// wokeAt, so they are at most that tick behind. ready: paths given
// something to do one at a time — a fresh attach (stream header), a
// teardown, a resend queue to serve — and whatever an earlier tick woke
// that the workers have not reached yet. held: a worker has the path, out
// on a write or deciding its next step. The invariant the tick's cost
// rests on: a subscriber that can be behind has no parked path — it is
// reachable from held or ready, or has no path at all and is in orphans —
// so a tick applies the lag policy by walking those three and moves the
// caught-up rest without visiting it.
//
// The same split keeps the byte accounting cheap: nsubs, curSum and
// resendSum are maintained wherever a subscriber registers, moves or
// leaves, which gives the per-subscriber header bytes in O(1), and the
// oldest needed packet and the worst holder can only be found among the
// subscribers the walk reaches (behindLocked).
//
// Sending is done by a small set of worker goroutines per shard, not one
// per path. A worker takes the oldest ready path — woken ones once ready is
// empty — does its blocking write, and keeps it while it has more to send
// or parks it again. The worker stock sizes itself on one invariant: while
// a path is queued, some worker is free, or the shard's writes have been
// coming back within the last stallGrace. Whoever queues a path signals
// the idle worker or, if every worker is out on a write, starts one; a
// worker about to leave on a write with paths still queued signals the
// idle worker too, but with every worker out it only arms the stall timer,
// which starts one if no write has come back by the time it fires; and a
// worker that finds nothing queued while another is already idle exits.
// Healthy sinks therefore share a worker or two, while each sink blocked
// in Write holds exactly one — the write in flight that it is.
type shard struct {
	h *Hub

	mu    lockrank.Mutex
	subs  map[wire.Token]*subscriber // guarded by mu
	wakes int64                      // guarded by mu; generator wakes (the coalescing tests' counter hook)
	// walked counts the subscribers wake's lag walk has visited, once per
	// path that led to one (the tick-cost tests' counter hook).
	walked int64 // guarded by mu

	parked  pathList      // guarded by mu
	woken   pathList      // guarded by mu
	ready   pathList      // guarded by mu
	held    pathList      // guarded by mu
	orphans []*subscriber // guarded by mu; registered, not evicted, no path: inside a re-attach grace
	head    int64         // guarded by mu; live edge at the last wake
	wokeAt  int64         // guarded by mu; live edge the woken paths' subscribers had caught up to

	// Running totals over the shard's registered, not evicted subscribers.
	nsubs     int64 // guarded by mu; how many
	curSum    int64 // guarded by mu; Σ cur
	resendSum int64 // guarded by mu; Σ len(resend)

	live    int  // guarded by mu; attached paths not yet through finishPath — each holds one h.wg count
	workers int  // guarded by mu; worker goroutines alive — each holds one h.wg count
	busy    int  // guarded by mu; workers outside the lock with a path: in a write, or retiring it
	idle    bool // guarded by mu; one worker is waiting on kick for a path to be queued
	// kick wakes the idle worker. One token is enough: at most one worker
	// idles, and a token sent while the idler was already waking only costs
	// the next idler one empty pass over the lists.
	kick   chan struct{}
	starts int64 // guarded by mu; workers ever started (Stats.WorkerStarts)

	// The stall timer, armed by a worker leaving on a write while paths are
	// queued and every worker is out (handOffLocked). It fires stallGrace
	// later into stalled, which adds a worker only if none of the shard's
	// writes has come back meanwhile.
	stall      *time.Timer // guarded by mu; nil until first armed
	stallArmed bool        // guarded by mu; stall is set to fire and nobody has disarmed it
	stallAt    time.Time   // guarded by mu; when the armed firing is due
	returned   bool        // guarded by mu; a write has come back since the timer was armed

	// The shard's stock of idle batch workspaces, leased to workers for
	// the span of one write (see batch). It grows on a miss,
	// so it reaches the shard's high-water mark of concurrent writes and
	// from then on leasing allocates nothing; freeLow lets wake give the
	// surplus of a passed peak back to the collector.
	free    *batch // guarded by mu; LIFO list through batch.next
	nfree   int    // guarded by mu; length of the free list
	freeLow int    // guarded by mu; smallest nfree since the last trim — batches nothing needed
}

// stallGrace is how long queued paths wait for a write out on the shard
// to come back before a worker is added for them. A write into a socket
// with room in its send buffer returns in microseconds, so a write that
// has not returned in a millisecond is blocked on its sink.
const stallGrace = time.Millisecond

// freeTrimWakes is how many generator wakes pass between trims of a
// shard's batch free list: about a second of a 250 packets/s stream, long
// enough that one interval's low-water mark spans many bursts of
// concurrent writes.
const freeTrimWakes = 256

// nolint:lockguard constructor — the shard has not been shared yet
func newShard(h *Hub) *shard {
	sd := &shard{h: h, subs: make(map[wire.Token]*subscriber), kick: make(chan struct{}, 1)}
	sd.mu.Init(lockrank.Shard)
	sd.parked.init()
	sd.woken.init()
	sd.ready.init()
	sd.held.init()
	return sd
}

// wake is the generator's per-tick visit. It applies the slow-subscriber
// policy at the new live edge to the subscribers that can be behind — those
// with a path out on a write, those still queued from an earlier tick, and
// the orphans — and wakes every parked path in one splice: their
// subscribers were caught up, so one tick cannot have put them past a
// window (and if a burst did, the policy is applied again where a worker
// fetches for them, popBatchLocked). The generator coalesces: however many
// packets one tick published, each shard is visited — and each parked path
// woken — at most once per tick (wakes counts the visits so tests can pin
// that).
func (sd *shard) wake(head int64) {
	sd.mu.Lock()
	sd.kickLocked(sd.wakeLocked(head))
	sd.mu.Unlock()
}

// wakeLocked is wake's bookkeeping, everything but putting a worker on the
// woken paths (a test leaves that out to look at a tick nobody has served
// yet). It reports whether paths were queued before this tick added its
// own. Caller holds sd.mu.
func (sd *shard) wakeLocked(head int64) (backlog bool) {
	backlog = sd.queuedLocked()
	sd.wakes++
	if sd.wakes%freeTrimWakes == 0 {
		sd.trimFreeLocked()
	}
	// What the workers left of the last tick's wakeups may be behind now.
	sd.ready.take(&sd.woken)
	for p := sd.held.front(); p != nil; p = sd.held.after(p) {
		sd.walked++
		sd.enforceLagLocked(p.sub, head)
	}
	for p := sd.ready.front(); p != nil; p = sd.ready.after(p) {
		sd.walked++
		sd.enforceLagLocked(p.sub, head)
	}
	// Backwards: an eviction drops the orphan by moving the last one into
	// its place.
	for i := len(sd.orphans) - 1; i >= 0; i-- {
		sd.walked++
		sd.enforceLagLocked(sd.orphans[i], head)
	}
	sd.woken.take(&sd.parked)
	sd.wokeAt, sd.head = sd.head, head
	return backlog
}

// queuedLocked reports whether any path is waiting for a worker. Caller
// holds sd.mu.
func (sd *shard) queuedLocked() bool {
	return !sd.ready.empty() || !sd.woken.empty()
}

// readyLocked queues sub's paths for a worker — its parked ones, because
// there is a resend queue to serve or a teardown to go through — by moving
// every path no worker holds to the back of the ready list (one that was
// queued already only loses its place). The caller follows with one
// kickLocked. Caller holds sd.mu.
func (sd *shard) readyLocked(sub *subscriber) {
	for _, p := range sub.links {
		if !p.held {
			p.unlink()
			sd.ready.push(p)
		}
	}
}

// popLocked takes the next path to serve — the oldest ready one, then the
// oldest woken one — onto the held list; nil when none is queued. Caller
// holds sd.mu.
func (sd *shard) popLocked() *path {
	p := sd.ready.pop()
	if p == nil {
		if p = sd.woken.pop(); p == nil {
			return nil
		}
	}
	p.held = true
	sd.held.push(p)
	return p
}

// parkLocked moves p, which its worker holds and has nothing to send, to
// the parked list. The path that took a multipath subscriber's last frames
// goes behind the sibling parking now, whichever reached the list first —
// if it is still queued it has as little to send as p, and parks here
// instead of through a worker — so the siblings are woken in the order of
// their last frames, oldest first. Caller holds sd.mu.
func (sd *shard) parkLocked(p *path) {
	p.unlink()
	p.held = false
	sd.parked.push(p)
	if w := p.sub.writer; w != nil && w != p && !w.held {
		w.unlink()
		sd.parked.push(w)
	}
}

// readyAllLocked queues every parked path of the shard, whether or not its
// subscriber has frames: the stream is sealed (Stop) and each path has an
// end marker to write or a teardown to go through. Caller holds sd.mu.
func (sd *shard) readyAllLocked() {
	sd.woken.take(&sd.parked)
	sd.kickLocked(false)
}

// kickLocked keeps the worker invariant after a path may have been queued:
// if paths are queued, some worker must be on its way to them. Usually one
// is — running, or idle and signalled here. Only when every worker is out
// with a path does the stock grow by one, at once, as the batch stock does
// on a lease miss; it shrinks again as workers find nothing queued with
// another already idle. backlog says paths were queued before the caller
// added its own — a whole tick went by without the workers reaching them —
// and adds one worker as a hedge, while fewer than GOMAXPROCS are free to
// run. A worker leaving on a write hands off through handOffLocked
// instead, which waits for a stall before it adds one. Caller holds sd.mu.
func (sd *shard) kickLocked(backlog bool) {
	if !sd.queuedLocked() {
		return
	}
	free := sd.workers - sd.busy
	if free == 0 || (backlog && free < runtime.GOMAXPROCS(0)) {
		sd.startWorkerLocked()
		return
	}
	if sd.idle {
		sd.signalLocked()
	}
}

// handOffLocked is kickLocked for a worker about to leave on a write with
// paths still queued: a free worker is left to take them (signalled if it
// idles), and with every worker out the stall timer is armed instead of a
// worker started — the writes out are most likely coming back within
// microseconds, and the first to come back takes the next queued path.
// Caller holds sd.mu.
func (sd *shard) handOffLocked() {
	if !sd.queuedLocked() {
		return
	}
	if sd.workers > sd.busy {
		if sd.idle {
			sd.signalLocked()
		}
		return
	}
	if !sd.stallArmed {
		sd.armStallLocked()
	}
}

// armStallLocked sets the stall timer to fire stallGrace from now. Caller
// holds sd.mu.
func (sd *shard) armStallLocked() {
	sd.stallArmed, sd.returned = true, false
	sd.stallAt = time.Now().Add(stallGrace)
	if sd.stall == nil {
		sd.stall = time.AfterFunc(stallGrace, sd.stalled)
		return
	}
	sd.stall.Reset(stallGrace)
}

// disarmStallLocked stops the stall timer: nothing is queued, or nothing
// is left on the shard that could be. Caller holds sd.mu.
func (sd *shard) disarmStallLocked() {
	if sd.stallArmed {
		sd.stallArmed = false
		sd.stall.Stop()
	}
}

// stalled is the stall timer's callback. It adds exactly one worker if
// paths are still queued, every worker is still out and none of the
// shard's writes has come back since the timer was armed: one of those
// writes is blocked on its sink, and the queue must not wait for it. If a
// write has come back the queue is moving, and the timer is armed again.
// A firing that finds the timer disarmed, or re-armed for later (it was
// stopped too late to keep this call from starting), does nothing.
func (sd *shard) stalled() {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	if !sd.stallArmed || time.Now().Before(sd.stallAt) {
		return
	}
	sd.stallArmed = false
	if !sd.queuedLocked() || sd.workers > sd.busy {
		return
	}
	if sd.returned {
		sd.armStallLocked()
		return
	}
	sd.startWorkerLocked()
}

// signalLocked wakes the idle worker. Caller holds sd.mu and has seen
// sd.idle set.
func (sd *shard) signalLocked() {
	select {
	case sd.kick <- struct{}{}:
	default: // signalled already; the token is still in the channel
	}
}

// startWorkerLocked adds one worker to the shard. It is only reached with
// a path queued — stalled included: that path is unfinished and holds an
// h.wg count, so this Add never starts from zero under a concurrent Wait.
// Caller holds sd.mu.
func (sd *shard) startWorkerLocked() {
	sd.workers++
	sd.starts++
	sd.h.wg.Add(1)
	go sd.work()
}

// pathStep is what stepLocked tells the worker holding a path to do next.
type pathStep int

const (
	stepPark   pathStep = iota // nothing to send: the path is parked again
	stepHeader                 // write the stream header
	stepWrite                  // write the leased batch
	stepEnd                    // stream over and drained, or the path removed: write the end marker, then retire
	stepRetire                 // evicted or force-closed: retire without writing
)

// stepLocked decides what the worker holding p does next, in the order a
// sender always has: teardown first, then the stream header, then frames —
// resends before new content — and the end marker once the stream is over
// and drained, or at once for a removed path. A path with none of these is
// parked: it holds its subscription and its resend record, no workspace
// and no goroutine. The batch is non-nil for stepWrite only; the worker
// owns its pins and drops them with releaseBatch after the write. Caller
// holds sd.mu.
func (sd *shard) stepLocked(p *path) (pathStep, *batch) {
	h := sd.h
	if p.sub.evicted || h.closed.Load() {
		return stepRetire, nil
	}
	if !p.started {
		p.started = true
		return stepHeader, nil
	}
	if p.removed {
		return stepEnd, nil
	}
	// Read before the fetch: a sealed stream's head is final, so a fetch
	// that finds nothing after this read means the path is drained.
	end := h.end.Load()
	sub := p.sub
	keep := h.cfg.Policy == Keep
	if keep {
		p.owe = p.oldestWritten()
	}
	if b := sd.popBatchLocked(sub); b != nil {
		sub.writer = p
		if keep {
			for _, seq := range b.seqs[:b.n] {
				p.owe = min(p.owe, seq)
			}
		}
		return stepWrite, b
	}
	if sub.evicted {
		return stepRetire, nil // the lag policy, applied at this fetch
	}
	if end >= 0 {
		return stepEnd, nil
	}
	sd.parkLocked(p)
	return stepPark, nil
}

// work is one shard worker: take the next queued path, do what
// stepLocked says outside the lock — each step is one blocking write, so a
// throttled or stalled subscriber occupies this worker for as long as its
// write takes, exactly the in-flight write it is — and come back for the
// same path's next step until it parks or retires. Leaving on a write with
// paths still queued, it hands them off (handOffLocked): to a free worker,
// or, with every worker out, to the stall timer, so the pool grows only
// for a write that does not come back. A worker that finds nothing queued
// disarms the timer. The lease of a batch write goes back to the shard
// under the next lock hold, so neither a parked path nor an idle worker
// holds a workspace. On a failed write the path retires with the absolute
// sequences it wrote most recently (oldest first, the in-hand batch last):
// TCP may have buffered but never delivered them, so finishPath queues
// them for the subscriber's other paths.
func (sd *shard) work() {
	h := sd.h
	defer h.wg.Done()
	var (
		p      *path  // the path this worker holds, nil between paths
		b      *batch // the lease of the write just done
		out    bool   // counted in sd.busy
		idling bool   // set sd.idle before the last unlock
	)
	for {
		sd.mu.Lock()
		if b != nil {
			sd.returnLocked(b)
			b = nil
		}
		if out {
			sd.busy--
			out = false
			sd.returned = true
		}
		if idling {
			sd.idle, idling = false, false
		}
		step := stepPark
		for step == stepPark {
			if p == nil {
				if p = sd.popLocked(); p == nil {
					break
				}
			}
			if step, b = sd.stepLocked(p); step == stepPark {
				p = nil
			}
		}
		if p == nil {
			sd.disarmStallLocked()
			if sd.idle || sd.live == 0 {
				// Another worker is already waiting for a path to be queued,
				// or no path is left that could be.
				sd.workers--
				sd.mu.Unlock()
				return
			}
			sd.idle, idling = true, true
			sd.mu.Unlock()
			<-sd.kick
			continue
		}
		sd.busy++
		out = true
		sd.handOffLocked()
		sd.mu.Unlock()

		switch step {
		case stepHeader:
			if err := wire.WriteStreamHeader(p.conn, int(p.idx), int(p.numPaths), h.cfg.Stream.PayloadSize, h.cfg.Stream.Mu); err != nil {
				sd.retire(p, nil, fmt.Errorf("hub: path %d header: %w", p.idx, err))
				p = nil
			}
			continue
		case stepEnd:
			// A marker that fails may leave the last batches in a dead
			// buffer too: the record goes to a sibling still writing.
			var recent []int64
			err := h.writeEndMarker(p)
			if err != nil {
				recent = p.lastWritten()
			}
			sd.retire(p, recent, err)
			p = nil
			continue
		case stepRetire:
			sd.retire(p, nil, nil)
			p = nil
			continue
		default:
			// stepWrite, the steady state, follows; stepPark never leaves
			// the lock with a path in hand.
		}
		werr := h.writeBatch(p.conn, p.sub, b)
		h.releaseBatch(b)
		if werr != nil {
			// The kernel may have taken any prefix of the batch; resend
			// all of it — duplicates are deduplicated client-side. The
			// append copies the sequences out before the batch goes back
			// to the shard, where another path's frames overwrite them.
			recent := append(p.lastWritten(), b.seqs[:b.n]...)
			sd.retire(p, recent, fmt.Errorf("hub: path %d write: %w", p.idx, werr))
			p = nil
			continue
		}
		p.remember(b.seqs[:b.n], h.cfg.ResendWindow)
	}
}

// retire ends p's life on the worker that holds it: finishPath's
// bookkeeping, then the h.wg count the path has held since it attached.
func (sd *shard) retire(p *path, recent []int64, err error) {
	sd.finishPath(p, recent, err)
	sd.h.wg.Done()
}

// leaseLocked takes a batch workspace off the shard's free list,
// allocating a one-frame one only when every batch the shard has is out on
// lease. Caller holds sd.mu.
func (sd *shard) leaseLocked() *batch {
	b := sd.free
	if b == nil {
		// Miss: more writes in flight than ever before on this shard (or
		// since the last trim). The stock grows by one and keeps it.
		return newBatch()
	}
	sd.free, b.next = b.next, nil
	sd.nfree--
	if sd.nfree < sd.freeLow {
		sd.freeLow = sd.nfree
	}
	return b
}

// returnLocked puts a leased batch back on the free list. Caller holds
// sd.mu. The lease ends here: the batch is the shard's again and the next
// lessee overwrites every slot, so it must come back holding no pin and no
// payload slice (releaseBatch has dropped both; the alias scan checks).
func (sd *shard) returnLocked(b *batch) {
	b.next = sd.free
	sd.free = b
	sd.nfree++
}

// trimFreeLocked drops half of the batches that sat idle through the whole
// interval since the last trim. A stall that backlogged every path at once
// leaves one batch per path behind; halving returns that to the steady
// stock within a few intervals without dropping a batch the next burst of
// the same size would have to allocate again. A kept batch that no lease
// since the last trim filled past half goes back to its inline frame:
// under LIFO reuse the workspace a catch-up grew would otherwise serve
// one-frame writes at its grown size for as long as the shard streams.
// Caller holds sd.mu.
func (sd *shard) trimFreeLocked() {
	for drop := sd.freeLow / 2; drop > 0; drop-- {
		sd.free = sd.free.next // unlinked, the batch is the collector's
		sd.nfree--
	}
	sd.freeLow = sd.nfree
	for b := sd.free; b != nil; b = b.next {
		if len(b.bufs) > 1 && 2*b.peak <= len(b.bufs) {
			b.shrink()
		}
		b.peak = 0
	}
}

// registerLocked adds sub to the shard and to its running totals, taking
// its admission slot. Caller holds sd.mu.
func (sd *shard) registerLocked(sub *subscriber) {
	sd.subs[sub.token] = sub
	sd.h.subCount.Add(1)
	sd.nsubs++
	sd.curSum += sub.cur
	sd.resendSum += int64(len(sub.resend))
}

// uncountLocked takes sub out of the running totals (and the orphans): it
// is being evicted or removed and holds nothing from here on. Caller holds
// sd.mu.
func (sd *shard) uncountLocked(sub *subscriber) {
	sd.nsubs--
	sd.curSum -= sub.cur
	sd.resendSum -= int64(len(sub.resend))
	sd.unorphanLocked(sub)
}

// orphanLocked lists sub, whose last path is gone, among the orphans.
// Caller holds sd.mu.
func (sd *shard) orphanLocked(sub *subscriber) {
	sd.orphans = append(sd.orphans, sub)
	sub.orphan = len(sd.orphans)
}

// unorphanLocked drops sub from the orphans, if it is one, by moving the
// last orphan into its place. Caller holds sd.mu.
func (sd *shard) unorphanLocked(sub *subscriber) {
	if sub.orphan == 0 {
		return
	}
	i, last := sub.orphan-1, len(sd.orphans)-1
	sd.orphans[i] = sd.orphans[last]
	sd.orphans[i].orphan = i + 1
	sd.orphans[last] = nil
	sd.orphans = sd.orphans[:last]
	sub.orphan = 0
}

// advanceLocked moves sub's cursor forward to cur. Caller holds sd.mu.
func (sd *shard) advanceLocked(sub *subscriber, cur int64) {
	sd.curSum += cur - sub.cur
	sub.cur = cur
}

// shiftResendLocked drops the oldest entry of sub's resend queue. Caller
// holds sd.mu.
func (sd *shard) shiftResendLocked(sub *subscriber) {
	sub.resend = sub.resend[1:]
	sd.resendSum--
}

// enforceLagLocked applies the slow-subscriber policy to sub if its
// cursor has fallen behind its effective window — the configured
// LagWindow, or less once the resource governor has shrunk it. Under Evict
// the subscriber is condemned: queueing the paths it has parked for their
// teardown is left to the caller, which knows where they are. Caller holds
// sd.mu.
func (sd *shard) enforceLagLocked(sub *subscriber, head int64) {
	win := int64(sub.window)
	if ringSize := sd.h.ring.size(); win > ringSize {
		win = ringSize
	}
	oldest := head - win
	if sub.evicted || oldest <= 0 || sub.cur >= oldest {
		return
	}
	switch sd.h.cfg.Policy {
	case DropOldest, Keep:
		skipped := oldest - sub.cur
		sub.dropped += skipped
		sd.h.totalDropped.Add(skipped)
		sd.advanceLocked(sub, oldest)
	case Evict:
		sd.condemnLocked(sub)
	}
}

// owedLocked reports whether sub is a live subscription with packets still
// to take: ones behind its cursor or in its resend queue. Caller holds
// sd.mu.
func (sd *shard) owedLocked(sub *subscriber) bool {
	return sub != nil && !sub.evicted && (sub.cur < sd.h.ring.headSeq() || len(sub.resend) > 0)
}

// keptLocked is the oldest sequence, at most head, that a subscriber of the
// shard may still take: its cursor, its resend queue, or what one of its
// paths may hand back (path.owe). It visits every path: the Keep policy's
// walk. Caller holds sd.mu.
func (sd *shard) keptLocked(head int64) int64 {
	for _, sub := range sd.subs {
		if sub.evicted {
			continue
		}
		head = min(head, sub.cur)
		if len(sub.resend) > 0 {
			head = min(head, sub.resend[0])
		}
		for _, p := range sub.links {
			head = min(head, p.owe)
		}
	}
	return head
}

// behind is what one walk over a shard's can-be-behind subscribers finds
// for the byte accounting: the oldest sequence any of them still needs and
// the one holding the most.
type behind struct {
	need      int64       // oldest sequence needed, clamped to the ring's tail; head if none is behind
	worst     *subscriber // largest heldLocked holder, nil if nothing is held
	worstHeld int64
}

// seeLocked folds sub, as it stands at live edge head, into the walk's
// findings. Caller holds sd.mu.
func (sd *shard) seeLocked(bh *behind, sub *subscriber, head, tail int64) {
	if sub.evicted {
		return
	}
	need := sub.cur
	if len(sub.resend) > 0 && sub.resend[0] < need {
		need = sub.resend[0]
	}
	bh.need = min(bh.need, max(need, tail))
	if held := sd.heldLocked(sub, head); held > bh.worstHeld {
		bh.worst, bh.worstHeld = sub, held
	}
}

// behindLocked walks the subscribers that can hold anything at live edge
// head — the ones wake walks: a path held by a worker, a path on the ready
// list, or no path at all. A subscriber with a parked path holds nothing:
// it had fetched everything when it parked, and the parked list is emptied
// by every wake. That leaves the woken paths, the tick's caught-up
// population until the workers have been round. Their subscribers had
// fetched everything up to wokeAt, which bounds from below what any of them
// needs without a visit: with exact unset that bound stands in for them —
// need is then at or below the true oldest needed sequence, so an account
// built on it is at or above the true one, and worst names none of them.
// That is enough to find the hub within its budget, the answer on all but
// an overloaded tick; with exact set the woken paths are walked like the
// rest and the findings are those of a scan over every subscriber. tail is
// the oldest sequence the ring retains. Caller holds sd.mu.
func (sd *shard) behindLocked(head, tail int64, exact bool) behind {
	bh := behind{need: head}
	for p := sd.held.front(); p != nil; p = sd.held.after(p) {
		sd.seeLocked(&bh, p.sub, head, tail)
	}
	for p := sd.ready.front(); p != nil; p = sd.ready.after(p) {
		sd.seeLocked(&bh, p.sub, head, tail)
	}
	for _, sub := range sd.orphans {
		sd.seeLocked(&bh, sub, head, tail)
	}
	if exact {
		for p := sd.woken.front(); p != nil; p = sd.woken.after(p) {
			sd.seeLocked(&bh, p.sub, head, tail)
		}
	} else if !sd.woken.empty() {
		bh.need = min(bh.need, max(sd.wokeAt, tail))
	}
	return bh
}

// heldLocked is the full-frame buffered-byte attribution of one
// subscriber at live edge head: the ring packets it still has to fetch
// (its lag) plus its pending resends, at one frame each. The governor's
// global total charges shared payload bytes once (Hub.accountLocked);
// heldLocked deliberately keeps the per-subscriber view at full frames so
// ranking the worst laggard reflects the payload span only it keeps
// alive. Caller holds sd.mu.
func (sd *shard) heldLocked(sub *subscriber, head int64) int64 {
	frame := int64(wire.FrameHeaderSize + sd.h.cfg.Stream.PayloadSize)
	return (head - sub.cur + int64(len(sub.resend))) * frame
}

// shedLocked applies one degradation-ladder step to sub: drop its backlog
// to the current window; if that frees nothing, shrink the window (halving,
// floored at minShedWindow) and drop again; once even the floor holds
// nothing clippable, evict. ranked is the holding (heldLocked) the governor
// chose sub for, read under an earlier hold of sd.mu: a worker may have
// drained the subscriber since, and walking the ladder over a backlog that
// is no longer there finds nothing to clip at any window and ends in
// evicting a caught-up subscriber. So a subscriber that holds less than it
// was ranked on is left alone — no step taken or counted — and the
// governor re-accounts. Caller holds sd.mu.
func (sd *shard) shedLocked(sub *subscriber, head, ranked int64) {
	if sub.evicted || sd.heldLocked(sub, head) < ranked {
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
		sd.advanceLocked(sub, oldest)
		freed += skipped
	}
	for len(sub.resend) > 0 && sub.resend[0] < oldest {
		sd.shiftResendLocked(sub)
		sub.dropped++
		sd.h.totalDropped.Add(1)
		freed++
	}
	return freed
}

// condemnLocked disconnects sub and marks it evicted: its connections
// are closed (a path out on a write sees that), it stops counting towards
// the byte accounting, and a later re-attach of its token is refused with a
// typed reject. It reports whether this call did the evicting. Caller holds
// sd.mu.
func (sd *shard) condemnLocked(sub *subscriber) bool {
	if sub.evicted {
		return false
	}
	sd.uncountLocked(sub)
	sub.evicted = true
	sd.h.evictedCount.Add(1)
	for _, p := range sub.links {
		_ = p.conn.Close()
	}
	return true
}

// evictLocked condemns sub and queues its parked paths for teardown.
// Caller holds sd.mu.
func (sd *shard) evictLocked(sub *subscriber) {
	if sd.condemnLocked(sub) {
		sd.readyLocked(sub)
		sd.kickLocked(false)
	}
}

// popBatchLocked returns a leased batch filled with the subscriber's next
// ready frames, after the lag policy has had its say: resend-queue packets
// first, so retransmissions jump ahead of new content, then up to batchFrames
// consecutive cursor packets — pinning each shared ring buffer instead of
// copying it. One step therefore drains one vectored write's worth of
// frames. The lease is grown first if the subscriber has more ready than it
// holds, to the next power of two up to batchFrames, so a write carries the
// frames it would from a full-size workspace while an at-pace one pins a
// one-frame workspace. A batch is leased only once there are frames to pin; nil
// means the subscriber has none (caught up, evicted by the lag policy, or
// everything ready had already left the ring and is now counted as dropped)
// and the caller holds no lease. The caller owns the pins in the returned
// batch and must drop them with releaseBatch after its write. Caller holds
// sd.mu.
func (sd *shard) popBatchLocked(sub *subscriber) *batch {
	for {
		head := sd.h.ring.headSeq()
		if len(sub.resend) == 0 && sub.cur >= head {
			return nil
		}
		// The lag policy is applied where the cursor moves: whatever put
		// the subscriber behind — a blocked write, a burst, a gap in an
		// external source — what it is sent starts inside its window.
		sd.enforceLagLocked(sub, head)
		if sub.evicted {
			sd.readyLocked(sub)
			sd.kickLocked(false)
			return nil
		}
		b := sd.leaseLocked()
		if ready := len(sub.resend) + int(max(head-sub.cur, 0)); ready > len(b.bufs) && len(b.bufs) < sd.h.batchFrames {
			// Once per size the stock has not held since the last trim; at
			// pace, never.
			b.grow(min(1<<bits.Len(uint(ready-1)), sd.h.batchFrames))
		}
		sd.fillLocked(sub, b)
		b.peak = max(b.peak, b.n)
		if b.n > 0 {
			return b
		}
		sd.returnLocked(b)
	}
}

// fillLocked pins the subscriber's ready frames into b: the resend queue
// oldest first, then consecutive cursor packets, up to b's capacity, and
// has the ones the ring has released rendered. Packets that left the ring
// are counted as drops. Caller holds sd.mu.
func (sd *shard) fillLocked(sub *subscriber, b *batch) {
	h := sd.h
	b.n = 0
	for len(sub.resend) > 0 && b.n < len(b.bufs) {
		seq := sub.resend[0]
		sd.shiftResendLocked(sub)
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
		sd.advanceLocked(sub, sub.cur+skipped+int64(pinned))
		sub.sent += int64(pinned)
		h.totalSent.Add(int64(pinned))
	}
	h.ring.render(b)
}

// finishPath retires one path, called by the worker that holds it with no
// lock held. A path that drained normally (or died after the stream ended)
// just goes away, and the subscriber disappears with its last path. A path
// that died abnormally instead queues its recent writes for retransmission
// — mid-stream, or during a drain while a sibling can still send them —
// and, if it was the subscriber's last path mid-stream, starts the
// re-attach grace countdown: the subscription stays in the shard so a
// redialing client's token still resolves, and is reaped only if the
// window expires (or the stream ends) with no path back. A removed path
// (RemovePath) that was the last mid-stream starts the same countdown,
// with nothing to resend.
func (sd *shard) finishPath(p *path, recent []int64, err error) {
	_ = p.conn.Close()
	h, sub := sd.h, p.sub
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
	h.pathConns.Add(-1)
	p.unlink()
	p.held = false
	if sub.writer == p {
		sub.writer = nil
	}
	if i := slices.Index(sub.links, p); i >= 0 {
		// slices.Delete zeroes the vacated tail slot; a plain append would
		// leave the closed conn reachable from the backing array for as
		// long as the subscriber lives.
		sub.links = slices.Delete(sub.links, i, i+1)
	}
	if sd.live--; sd.live == 0 {
		// Nothing left that could be queued: no stall to wait for, and the
		// idle worker can go.
		sd.disarmStallLocked()
		if sd.idle {
			sd.signalLocked()
		}
	}
	abnormal := err != nil && !sub.evicted && !h.closed.Load()
	if abnormal {
		h.pathErrors.Add(1)
	}
	running := h.end.Load() < 0
	died := abnormal && (len(sub.links) > 0 || running)
	if died {
		sub.deaths++
		sub.deadPaths++
		if len(recent) > 0 {
			sd.resendSum -= int64(len(sub.resend))
			sub.resend = mergeSeqs(sub.resend, recent)
			sd.resendSum += int64(len(sub.resend))
		}
	}
	switch {
	case len(sub.links) > 0:
		if died && len(sub.resend) > 0 {
			// Surviving paths serve the resends, the parked ones from now.
			sd.readyLocked(sub)
			sd.kickLocked(false)
		}
	case h.cfg.ReattachGrace > 0 && (died || p.removed && !sub.evicted && running):
		// A death, or a removal, that leaves the subscription no path
		// mid-stream keeps it for the next one, cursor and all.
		sd.graceLocked(sub)
	default:
		sd.removeLocked(sub)
	}
	sd.mu.Unlock()
	if govern {
		h.governLocked(h.ring.headSeq())
	}
}

// graceLocked lists sub, left with no path mid-stream, among the orphans
// and arms its re-attach countdown: a timer, not a goroutine, which a
// re-attach or the removal of sub stops. An eviction leaves it running:
// the token is refused until the grace ends. Caller holds sd.mu.
func (sd *shard) graceLocked(sub *subscriber) {
	sd.orphanLocked(sub)
	sub.graceGen++
	gen := sub.graceGen
	sub.grace = time.AfterFunc(sd.h.cfg.ReattachGrace, func() { sd.graceExpired(sub, gen) })
}

// graceExpired ends the re-attach grace countdown gen of sub: the
// subscriber is removed unless a re-attach (a path is back) or a newer
// death's countdown (graceGen moved on) has superseded this one — a
// firing its timer's Stop came too late for.
func (sd *shard) graceExpired(sub *subscriber, gen int64) {
	sd.mu.Lock()
	if len(sub.links) == 0 && sub.graceGen == gen {
		sd.removeLocked(sub)
	}
	sd.mu.Unlock()
}

// removeLocked deletes sub from the shard if it is still the one
// registered under its token, releasing its admission slot and stopping
// its grace timer. Caller holds sd.mu.
func (sd *shard) removeLocked(sub *subscriber) {
	if sd.subs[sub.token] == sub {
		delete(sd.subs, sub.token)
		sd.h.subCount.Add(-1)
		if sub.grace != nil {
			sub.grace.Stop()
		}
		if !sub.evicted {
			sd.uncountLocked(sub)
		}
	}
}
