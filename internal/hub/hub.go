// Package hub fans a single live DMP source out to many multipath
// subscribers.
//
// The paper's server (internal/core) serves exactly one client: one CBR
// generator, one queue, one session. A broadcast hub keeps the single
// generator but replaces the queue with a shared ring of the most recent
// LagWindow packets; every subscriber owns a cursor into that ring, so one
// generation goroutine serves all subscribers without per-subscriber copies
// of the queue. Each subscriber is its own DMP multipath session: its path
// connections take packets from the subscriber's cursor one blocking Write
// at a time, so send-buffer backpressure allocates packets across that
// subscriber's paths exactly as in the single-client scheme — and
// independently of every other subscriber.
//
// The subscriber population is sharded: each token hashes to one of
// Config.Shards per-core worker groups, and a shard's mutex covers exactly
// its own subscribers' cursors, resend queues, paths and workers. The
// generator publishes each packet into a shared ring (exclusive lock, one
// writer) and then wakes the shards, which enforce the lag policy for the
// subscribers that can be behind and wake every caught-up path in one
// splice, visiting none of them; a shard worker pins the shared payload
// buffers under a shared read lock and hands [patched per-subscriber
// header, shared payload] pairs to the connection as one vectored write
// per wakeup, so the payload bytes are never copied in user space. Ring advance, lag enforcement and fan-out
// therefore never serialize on a single hub-wide mutex — the only
// cross-shard points are admission (control plane), the byte-budget
// governor, and Stats, none of which sit on the frame hot path. Shards=1
// puts the whole population under one shard lock.
//
// An attached path is an entry, not a goroutine: on its shard's parked
// list while it has nothing to send, woken or ready once it has, or held by
// the one worker that is writing it (see shard). The workers are a small
// self-sizing stock per shard — whoever queues a path signals the idle
// worker or, with every worker out on a write, starts one; a worker that
// finds nothing queued while another is idle exits — so goroutines, like the batch workspaces the workers lease from the shard's
// free list for the span of one write, scale with writes in flight, not
// with attached paths: a path parked on a caught-up subscriber holds its
// subscription, its entry and its resend ring, nothing else, and a
// subscriber blocked in Write holds exactly one worker.
//
// A subscriber that cannot keep up falls behind the ring. The hub then
// applies the configured slow-subscriber policy — each tick to the
// subscribers that can be behind (a write in flight, still queued, or no
// path at all), and to anyone else at the moment a worker fetches for it:
// DropOldest advances the laggard's cursor to the oldest live packet and
// counts the skipped packets as drops (the client sees a sequence gap);
// Evict disconnects the subscriber outright. Either way, one stalled
// subscriber cannot make the generator or its peers late — the per-packet
// cost of a slow client is bounded by the ring, not by the stream.
//
// Joining is a 40-byte wire handshake (core.Join): each path connection
// carries the stream id and a subscriber token, so a client's 2nd..Kth
// connections attach to the same subscription. After the join, each path
// speaks the unchanged v1 stream format, with packet numbers rebased to the
// subscriber's join point so existing receivers (core.Receive, core.Play)
// work verbatim. A hub serves exactly one stream id; internal/registry
// multiplexes many hubs behind one accept loop, routing each join by the
// stream id it carries (AttachJoined is that entry point).
//
// The hub also carries the overload-protection layer: admission control
// (MaxSubscribers/MaxConns answered with typed DMPR reject frames), a
// resource governor that keeps subscriber-attributable buffering under
// MaxBytes by walking a degradation ladder (drop backlog → shrink window →
// evict) against the laggiest subscriber first, a hardened accept loop
// (backoff on temporary errors, handshake concurrency cap, configurable
// JoinTimeout against slowloris joins), and graceful drain (BeginDrain /
// Drain). Overload thus degrades the worst laggard's quality instead of
// collapsing the hub — the paper's backpressure story applied to the
// server's own resources.
package hub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dmpstream/internal/core"
)

// Policy selects what happens to a subscriber whose lag exceeds the window.
type Policy int

const (
	// DropOldest skips the subscriber's cursor ahead to the oldest packet
	// still in the ring, counting the skipped packets as drops.
	DropOldest Policy = iota
	// Evict disconnects the subscriber.
	Evict
)

func (p Policy) String() string {
	switch p {
	case DropOldest:
		return "drop-oldest"
	case Evict:
		return "evict"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// writeBatchFrames caps how many ready frames a worker drains into one
// vectored write per step.
const writeBatchFrames = 32

// maxTickBurst bounds how many overdue packets one generator tick
// publishes before waking the shards: a generator catching up after a
// stall still coalesces wakeups, but never laps more than this many
// packets between two lag-policy passes.
const maxTickBurst = 64

// DefaultJoinTimeout bounds how long an accepted connection may take to
// present its join request before the hub gives up on it (see
// Config.JoinTimeout).
const DefaultJoinTimeout = 10 * time.Second

// DefaultHandshakeLimit caps how many accepted connections may sit in the
// join handshake concurrently (see Config.HandshakeLimit). Beyond it, Serve
// sheds new connections with a server-full reject instead of queuing
// unbounded slowloris candidates.
const DefaultHandshakeLimit = 64

// MaxShards bounds Config.Shards: past a few dozen shards the per-packet
// wake walk costs more than the contention it avoids.
const MaxShards = 64

// minShedWindow is the floor of the degradation ladder: the resource
// governor never shrinks a subscriber's effective lag window below this
// many packets — past that rung, the only relief left is eviction.
const minShedWindow = 16

// rejectWriteTimeout bounds the courtesy reject-frame write so a refused
// client that never reads cannot pin a handshake goroutine.
const rejectWriteTimeout = 2 * time.Second

// DefaultReattachGrace is how long a subscriber outlives its last path by
// default, waiting for the client to redial with the same token.
const DefaultReattachGrace = 5 * time.Second

// DefaultResendWindow is the default per-path retransmission window: the
// last packets a dead path wrote that are replayed to the subscriber's
// surviving (or re-attached) paths.
const DefaultResendWindow = 64

// Config describes a broadcast hub.
type Config struct {
	// Stream is the live source (rate, payload, count, fill, stall timeout).
	Stream core.Config
	// ExternalSource disables the internal CBR generator: frames are
	// injected by the hub's owner through PublishAt at absolute sequences —
	// the edge-relay mode, where the frame source is an upstream
	// subscription instead of a local generator. Stream.Count and
	// Stream.Fill are ignored; the stream ends when the owner calls Stop
	// (or Fail). Stream.Mu and PayloadSize still describe the feed — they
	// are announced in every path's stream header, so set them from the
	// upstream's own header.
	ExternalSource bool
	// StreamID names the stream; joins carrying another id are rejected.
	// Default "live".
	StreamID string
	// LagWindow is the ring size: the number of most recent packets a
	// subscriber may lag behind the generator before Policy applies.
	// Default 1024.
	LagWindow int
	// Policy is the slow-subscriber policy (default DropOldest).
	Policy Policy
	// PoisonPool turns on the payload pool's poison-on-put debug mode:
	// released buffers are filled with a poison byte and verified intact on
	// reuse, so a use-after-release write trips a counter (Stats.Pool)
	// instead of silently corrupting a live frame. Costs one buffer scan
	// per publish and per release — meant for chaos/soak builds.
	PoisonPool bool
	// Shards is how many per-core worker groups the subscriber population
	// is hashed across; each shard's lock covers only its own subscribers'
	// cursors, paths and workers. 0 selects GOMAXPROCS (capped at MaxShards);
	// 1 puts every subscriber under one shard lock.
	Shards int
	// PathWriteBuffer, when positive, caps each path's kernel send buffer
	// (SetWriteBuffer) so backpressure from a slow subscriber reaches the
	// hub within a bounded number of packets. 0 keeps the kernel default.
	PathWriteBuffer int
	// ReattachGrace keeps a subscription alive after its last path dies
	// abnormally mid-stream, so a client that redials within the window and
	// presents the same token resumes with its original rebased numbering
	// (no wire change — the re-attach is an ordinary join). 0 selects
	// DefaultReattachGrace; negative disables the grace (a subscriber dies
	// with its last path, the pre-resilience behavior).
	ReattachGrace time.Duration
	// ResendWindow is how many of a path's most recently written packets are
	// queued for retransmission to the subscriber's other paths when that
	// path dies — TCP acknowledges bytes to the hub's kernel without telling
	// the hub the client saw them, so the tail of a dead path must be resent
	// to conserve the stream. Duplicates are deduplicated client-side;
	// resends whose packet has already fallen out of the ring are counted as
	// drops. 0 selects DefaultResendWindow; negative disables resends.
	ResendWindow int

	// MaxSubscribers caps concurrently attached subscriptions. A join with a
	// fresh token past the cap is answered with a server-full reject frame
	// (additional paths of already-admitted tokens are unaffected).
	// 0 = unlimited.
	MaxSubscribers int
	// MaxConns caps live path connections across all subscribers; joins past
	// the cap get a server-full reject. 0 = unlimited.
	MaxConns int
	// MaxBytes is the global budget for subscriber-attributable buffered
	// bytes. Ring payloads are shared buffers, so their bytes are charged
	// once — the span from the oldest packet any subscriber still needs up
	// to the live edge — while each subscriber is charged the
	// FrameHeaderSize header patch for every frame it has yet to take
	// (lag + pending resends). When the sum exceeds MaxBytes the resource
	// governor sheds the laggiest subscriber first, walking the degradation
	// ladder — drop its backlog to its window, shrink the window (halving,
	// floored at minShedWindow), and finally evict. 0 = unlimited.
	MaxBytes int64
	// JoinTimeout bounds how long an accepted connection may take to present
	// its join request; a handshake stalled past it is cut and its slot
	// freed (the slowloris guard). 0 selects DefaultJoinTimeout.
	JoinTimeout time.Duration
	// HandshakeLimit caps connections sitting in the join handshake
	// concurrently; Serve sheds beyond it with a server-full reject.
	// 0 selects DefaultHandshakeLimit.
	HandshakeLimit int
}

func (c Config) withDefaults() (Config, error) {
	var err error
	if c.Stream, err = c.Stream.Normalized(); err != nil {
		return c, err
	}
	if c.StreamID == "" {
		c.StreamID = "live"
	}
	if err := core.ValidateStreamID(c.StreamID); err != nil {
		return c, fmt.Errorf("hub: %w", err)
	}
	if c.LagWindow == 0 {
		c.LagWindow = 1024
	}
	if c.LagWindow < 0 {
		return c, fmt.Errorf("hub: lag window %d < 0", c.LagWindow)
	}
	if c.Policy != DropOldest && c.Policy != Evict {
		return c, fmt.Errorf("hub: unknown policy %d", int(c.Policy))
	}
	if c.Shards < 0 {
		return c, fmt.Errorf("hub: shards %d < 0", c.Shards)
	}
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Shards > MaxShards {
		c.Shards = MaxShards
	}
	if c.PathWriteBuffer < 0 {
		return c, fmt.Errorf("hub: path write buffer %d < 0", c.PathWriteBuffer)
	}
	switch {
	case c.ReattachGrace == 0:
		c.ReattachGrace = DefaultReattachGrace
	case c.ReattachGrace < 0:
		c.ReattachGrace = 0 // disabled
	}
	switch {
	case c.ResendWindow == 0:
		c.ResendWindow = DefaultResendWindow
	case c.ResendWindow < 0:
		c.ResendWindow = 0 // disabled
	}
	if c.ResendWindow > c.LagWindow {
		// Resends beyond the ring could never be served anyway.
		c.ResendWindow = c.LagWindow
	}
	if c.MaxSubscribers < 0 {
		return c, fmt.Errorf("hub: max subscribers %d < 0", c.MaxSubscribers)
	}
	if c.MaxConns < 0 {
		return c, fmt.Errorf("hub: max conns %d < 0", c.MaxConns)
	}
	if c.MaxBytes < 0 {
		return c, fmt.Errorf("hub: max bytes %d < 0", c.MaxBytes)
	}
	if c.JoinTimeout < 0 {
		return c, fmt.Errorf("hub: join timeout %v < 0", c.JoinTimeout)
	}
	if c.JoinTimeout == 0 {
		c.JoinTimeout = DefaultJoinTimeout
	}
	if c.HandshakeLimit < 0 {
		return c, fmt.Errorf("hub: handshake limit %d < 0", c.HandshakeLimit)
	}
	if c.HandshakeLimit == 0 {
		c.HandshakeLimit = DefaultHandshakeLimit
	}
	return c, nil
}

// ErrStreamEnded is returned by Attach once the stream is over or the hub
// has been closed.
var ErrStreamEnded = errors.New("hub: stream ended")

// Hub is a running broadcast: one generator, a shared ring, N subscribers
// spread over per-core shards.
//
// Lock hierarchy (see DESIGN.md): registry.Registry.mu ≺ Hub.mu ≺
// Hub.govMu ≺ shard.mu ≺ ring.mu. The frame hot path (shard.work →
// stepLocked → ring.pinBatch) takes only the last two, and ring.mu only
// shared; a worker holds no lock across a write, and retires a path
// (finishPath, which may take govMu) only after releasing shard.mu.
type Hub struct {
	cfg Config

	// batchFrames is the capacity of a leased batch workspace:
	// writeBatchFrames, except in tests, which shrink it after New to force
	// multi-write drains.
	batchFrames int

	pool   *bufPool
	ring   *ring
	shards []*shard
	wg     sync.WaitGroup
	start  time.Time

	// Lifecycle flags. Read lock-free on the hot path; stores happen under
	// mu so admission's check-then-register stays ordered against
	// Close/Stop's wg.Wait.
	stopped atomic.Bool // generation ordered to end
	genDone atomic.Bool // generator exited
	closed  atomic.Bool // force-closed

	// mu is the control plane: listeners, handshakes, drain state and
	// admission. It is never taken on the frame hot path.
	mu       sync.Mutex
	lns      []net.Listener        // guarded by mu
	pending  map[net.Conn]struct{} // guarded by mu; accepted conns mid-handshake
	draining bool                  // guarded by mu; admission closed, live subscriptions finishing
	stopSig  bool                  // guarded by mu; stopCh already closed
	stopCh   chan struct{}         // closed once the stream is over (Stop/Close/Count)

	// govMu serializes the byte-budget governor with Stats' BytesHeld
	// aggregation and with the generator's publish cycle, so no reader can
	// observe held bytes between a publish (or resend merge) and the
	// governor pass that settles them back under budget.
	govMu sync.Mutex

	// Admission accounting: incremented only under mu (so the caps are
	// strict), decremented atomically wherever a subscriber or path retires.
	subCount  atomic.Int64 // subscribers registered across all shards
	pathConns atomic.Int64 // attached path connections (MaxConns accounting)

	// failCode, when non-zero, is the reject verdict a stopped hub answers
	// joins with instead of the default stream-ended code (see Fail).
	failCode atomic.Uint32

	generated     atomic.Int64
	sourceGaps    atomic.Int64 // external-source sequences skipped past (never published)
	totalSent     atomic.Int64
	totalDropped  atomic.Int64
	evictedCount  atomic.Int64
	pathErrors    atomic.Int64
	totalResent   atomic.Int64 // packets replayed from resend queues
	reattached    atomic.Int64 // joins that revived a dead path's slot
	rejected      atomic.Int64 // joins refused with a reject frame
	shedCount     atomic.Int64 // degradation-ladder steps across all subscribers
	acceptRetries atomic.Int64 // temporary Accept errors retried with backoff

	// Delivery-path instrumentation: how many user-space bytes were
	// memcpy'd to deliver frames (header patches only), and how many
	// vectored writes carried how many frames (batch-size telemetry).
	bytesCopied   atomic.Int64
	writevs       atomic.Int64
	framesBatched atomic.Int64
}

// New validates cfg, starts the live generator and returns the hub.
// Subscribers attach via Serve or Attach; shut down with Stop+Wait
// (graceful: every path drains and receives an end marker) or Close.
func New(cfg Config) (*Hub, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	pool := newBufPool(cfg.Stream.PayloadSize, cfg.PoisonPool)
	h := &Hub{
		cfg:         cfg,
		batchFrames: writeBatchFrames,
		pool:        pool,
		ring:        newRing(cfg.LagWindow, pool),
		pending:     make(map[net.Conn]struct{}),
		start:       time.Now(),
		stopCh:      make(chan struct{}),
	}
	h.shards = make([]*shard, cfg.Shards)
	for i := range h.shards {
		h.shards[i] = newShard(h)
	}
	if !cfg.ExternalSource {
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.generate()
		}()
	}
	return h, nil
}

// shardFor pins a token to its shard. Tokens are random, so the first
// eight bytes hash the population evenly.
func (h *Hub) shardFor(tok core.Token) *shard {
	return h.shards[binary.BigEndian.Uint64(tok[:8])%uint64(len(h.shards))]
}

// StreamID returns the stream id this hub serves.
func (h *Hub) StreamID() string { return h.cfg.StreamID }

// SubscriberCount returns the number of currently registered
// subscriptions (including those inside a re-attach grace). Lock-free;
// registries layer their global admission caps over it.
func (h *Hub) SubscriberCount() int { return int(h.subCount.Load()) }

// ConnCount returns the number of attached path connections. Lock-free.
func (h *Hub) ConnCount() int { return int(h.pathConns.Load()) }

// HasSubscriber reports whether tok is currently registered (attached or
// inside a re-attach grace). Registries use it to exempt re-attaches of
// live tokens from their global subscriber caps, mirroring the hub's own
// fresh-token-only admission rule.
func (h *Hub) HasSubscriber(tok core.Token) bool {
	sd := h.shardFor(tok)
	sd.mu.Lock()
	_, ok := sd.subs[tok]
	sd.mu.Unlock()
	return ok
}

// generate produces packets on the CBR schedule into the ring, waking the
// shards (which apply the slow-subscriber policy to their own laggards)
// and re-running the byte-budget governor once per tick.
//
// hotpath — the ring-advance root; everything below the publishTick call
// runs once per generated packet.
func (h *Hub) generate() {
	period := time.Duration(float64(time.Second) / h.cfg.Stream.Mu)
	base := time.Now()
	for n := int64(0); ; {
		if h.cfg.Stream.Count > 0 && n >= h.cfg.Stream.Count {
			break
		}
		// Drift-free schedule: packet n is due at base + n/µ.
		due := base.Add(time.Duration(n) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if h.stopped.Load() {
			break
		}
		n += h.publishTick(n, base, period)
	}
	h.mu.Lock()
	h.genDone.Store(true)
	h.signalStopLocked()
	h.mu.Unlock()
	h.readyAll()
}

// publishTick publishes every packet due by now — at least one, at most
// maxTickBurst (and never more than the ring holds) — then visits each
// shard exactly once and runs one governor pass. Coalescing the wakeups
// this way means a tick that catches up k overdue packets still wakes
// each subscriber at most once per shard, instead of k times; on
// schedule, k is 1 and the cadence is identical to the historical
// per-packet wake. It returns how many packets it published.
func (h *Hub) publishTick(n int64, base time.Time, period time.Duration) int64 {
	k := int64(1)
	if period > 0 {
		// Packet i is due at base + i/µ: everything with index < elapsed/µ+1
		// is due now, and n of those are already out.
		if due := int64(time.Since(base)/period) + 1 - n; due > k {
			k = due
		}
	}
	if c := h.cfg.Stream.Count; c > 0 && k > c-n {
		k = c - n
	}
	if k > maxTickBurst {
		k = maxTickBurst
	}
	if s := h.ring.size(); k > s {
		k = s
	}
	h.govMu.Lock()
	var head int64
	for i := int64(0); i < k; i++ {
		head = h.ring.publish(h.cfg.Stream.Fill)
	}
	h.generated.Add(k)
	for _, sd := range h.shards {
		sd.wake(head)
	}
	h.governLocked(head)
	h.govMu.Unlock()
	return k
}

// PublishAt injects one externally received packet at absolute sequence
// seq — the ingest point of an ExternalSource hub (an edge relay
// republishing its upstream feed). The caller must publish in ascending
// sequence order; a seq below the current head is a late duplicate and is
// refused. Sequences may skip ahead (the upstream lost packets for good,
// or the relay restarted mid-stream): the head jumps and the skipped
// positions read as drops downstream. payload must be exactly PayloadSize
// bytes. It returns whether the packet was accepted.
//
// The call mirrors publishTick's cycle — publish, wake the shards (lag
// policy + ready list), one governor pass — so every downstream
// guarantee (lag window, byte budget, degradation ladder) holds at every
// tier of a relay tree.
//
// hotpath — the relay-ingest ring-advance root; runs once per upstream
// frame.
//
// bufown borrowed payload — copied into a private pool buffer inside
// ring.publishAt before any reader can alias the slot; never retained.
func (h *Hub) PublishAt(seq, gen int64, payload []byte) bool {
	if !h.cfg.ExternalSource || len(payload) != h.cfg.Stream.PayloadSize || seq < 0 {
		return false
	}
	if h.stopped.Load() || h.closed.Load() {
		return false
	}
	h.govMu.Lock()
	prev := h.ring.headSeq()
	head, ok := h.ring.publishAt(seq, gen, payload)
	if !ok {
		h.govMu.Unlock()
		return false
	}
	h.generated.Add(1)
	if gap := seq - prev; gap > 0 {
		h.sourceGaps.Add(gap)
	}
	for _, sd := range h.shards {
		sd.wake(head)
	}
	h.governLocked(head)
	h.govMu.Unlock()
	return true
}

// readyAll queues every parked path of every shard, so each re-checks the
// lifecycle flags that have just changed.
func (h *Hub) readyAll() {
	for _, sd := range h.shards {
		sd.mu.Lock()
		sd.readyAllLocked()
		sd.mu.Unlock()
	}
}

// signalStopLocked closes stopCh exactly once, waking pending grace timers
// so Wait never blocks on a dead subscriber's countdown. Caller holds h.mu.
func (h *Hub) signalStopLocked() {
	if !h.stopSig {
		h.stopSig = true
		close(h.stopCh)
	}
}

// accountLocked computes the subscriber-attributable buffered bytes at
// live edge head under the shared-buffer ownership model, plus the
// laggiest subscriber for the governor to shed. Ring payload bytes are
// held once no matter how many subscribers still need them — the span
// from the oldest packet any live subscriber still needs (cursor or
// pending resend, clamped to what the ring actually retains) up to the
// head — while the per-subscriber cost is the FrameHeaderSize header
// patch for every frame it has yet to take. The worst laggard is still
// ranked by heldLocked's full-frame attribution: for choosing whom to
// shed, a laggard pinning the whole ring span is exactly as expensive as
// the payload bytes it alone keeps alive.
//
// Nothing here visits a parked subscriber. The header frames are
// Σ (head − cur + len(resend)) = nsubs·head − curSum + resendSum from each
// shard's running totals, and the oldest needed packet and the worst
// holder come from the shard's walk over the subscribers that can be
// behind (behindLocked), so the cost is O(shards + subscribers behind).
// exact says whether that walk includes the paths the last tick woke and no
// worker has reached yet. With it set the result is what a scan over every
// subscriber returns; without it the woken subscribers are accounted by the
// bound they share, total is an upper bound on the exact figure (equal to it
// on a tick that found everybody at pace) and worst is not to be used.
// Caller holds h.govMu; shard locks are taken one at a time underneath it.
func (h *Hub) accountLocked(head int64, exact bool) (total, worstHeld int64, worst *subscriber, worstShard *shard) {
	tail := max(head-h.ring.size(), 0)
	minNeed := head
	var hdrFrames int64
	for _, sd := range h.shards {
		sd.mu.Lock()
		hdrFrames += sd.nsubs*head - sd.curSum + sd.resendSum
		bh := sd.behindLocked(head, tail, exact)
		sd.mu.Unlock()
		minNeed = min(minNeed, bh.need)
		if bh.worstHeld > worstHeld {
			worst, worstHeld, worstShard = bh.worst, bh.worstHeld, sd
		}
	}
	total = (head-minNeed)*int64(h.cfg.Stream.PayloadSize) + hdrFrames*core.FrameHeaderSize
	return total, worstHeld, worst, worstShard
}

// governLocked enforces the global MaxBytes budget over subscriber
// holdings at live edge head. While the sum exceeds the budget it sheds
// the laggiest subscriber with one degradation-ladder step at a time, so
// overload degrades the worst laggard's quality instead of the whole
// hub's. The pass every tick makes is the bounded account, which visits
// none of the paths the tick has just woken; only when that cannot show the
// hub within its budget does the governor pay for the exact one — then for
// every step, because whom to shed and when to stop must be what a scan
// over every subscriber would say. Caller holds h.govMu; shard locks are
// taken one at a time underneath it.
func (h *Hub) governLocked(head int64) {
	if h.cfg.MaxBytes <= 0 {
		return
	}
	if total, _, _, _ := h.accountLocked(head, false); total <= h.cfg.MaxBytes {
		return
	}
	for {
		total, worstHeld, worst, worstShard := h.accountLocked(head, true)
		if total <= h.cfg.MaxBytes || worst == nil || worstHeld == 0 {
			return
		}
		worstShard.mu.Lock()
		worstShard.shedLocked(worst, head, worstHeld)
		worstShard.mu.Unlock()
	}
}

// batch is the workspace of one vectored write in flight: up to
// batchFrames pinned shared payload buffers plus the per-subscriber patched
// headers and the vectored write assembled over them. Batches belong to
// the shard, not to a path: a worker leases one (popBatchLocked) once the
// path it holds has frames to pin, keeps it across writeBatch and
// releaseBatch, and hands it back under its next hold of the shard lock,
// whatever became of the write. A parked path therefore holds none, and a
// shard's stock follows its writes in flight rather than its attached
// paths. All storage is allocated once per batch; the hot loop
// only writes indexed slots, never appends.
type batch struct {
	n    int           // filled entries
	bufs []*payloadBuf // pinned shared payloads; len is the batch capacity
	seqs []int64       // absolute sequences (resend bookkeeping on a write error)
	gens []int64       // generation timestamps for the header patch
	hdrs []byte        // capacity × FrameHeaderSize patched header bytes
	wb   [][]byte      // 2 × capacity vectored-write slots: header, payload, ...
	vec  net.Buffers   // reusable view of wb[:2n] — a field so WriteTo's pointer receiver never forces a per-call heap escape
	next *batch        // guarded by mu (the shard's); free-list link, nil while leased
}

func newBatch(size int) *batch {
	return &batch{
		bufs: make([]*payloadBuf, size),
		seqs: make([]int64, size),
		gens: make([]int64, size),
		hdrs: make([]byte, size*core.FrameHeaderSize),
		wb:   make([][]byte, 2*size),
	}
}

// BuffersWriter is implemented by connections that consume a vectored
// write natively in one call. The worker prefers it over
// net.Buffers' fallback so wrappers (a registry's counted conns, the
// benchmark's in-process pipes) keep the single-call batch handoff that a
// raw *net.TCPConn gets from writev.
type BuffersWriter interface {
	WriteBuffers(bufs net.Buffers) (int64, error)
}

// writeBatch patches one FrameHeaderSize header per pinned frame —
// renumbered relative to the subscriber's join point — and hands the
// [header, shared payload] pairs to the connection as one vectored
// write. The payload bytes are shared ring buffers the batch holds pins
// on; they are lent to the kernel for the duration of the call and never
// copied in user space.
//
// bufown sink — writev handoff: the pinned slot borrows leave the
// process here, alive under the batch's refcounts until releaseBatch.
func (h *Hub) writeBatch(conn net.Conn, sub *subscriber, b *batch) error {
	for i := 0; i < b.n; i++ {
		hdr := b.hdrs[i*core.FrameHeaderSize : (i+1)*core.FrameHeaderSize]
		core.PutFrameHeader(hdr, uint32(b.seqs[i]-sub.first), b.gens[i])
		b.wb[2*i] = hdr
		b.wb[2*i+1] = b.bufs[i].data
	}
	if d := h.cfg.Stream.WriteStallTimeout; d > 0 {
		conn.SetWriteDeadline(time.Now().Add(d))
	}
	b.vec = b.wb[:2*b.n]
	var err error
	if bw, ok := conn.(BuffersWriter); ok {
		_, err = bw.WriteBuffers(b.vec)
	} else {
		_, err = b.vec.WriteTo(conn)
	}
	h.bytesCopied.Add(int64(b.n) * core.FrameHeaderSize)
	h.writevs.Add(1)
	h.framesBatched.Add(int64(b.n))
	return err
}

// releaseBatch drops the batch's pins, returning buffers whose refcount
// reached zero to the pool, and clears the vectored-write slots that
// aliased them — a released batch holds no borrow, which is what lets the
// worker hand it back to the shard for another subscriber's frames.
// Entries are nil'd as they release, so a second call over the same batch
// is a no-op.
func (h *Hub) releaseBatch(b *batch) {
	for i := 0; i < b.n; i++ {
		pb := b.bufs[i]
		if pb == nil {
			continue
		}
		b.bufs[i] = nil
		b.wb[2*i+1] = nil
		if pb.refs.Add(-1) == 0 {
			h.pool.put(pb)
		}
	}
}

// writeEndMarker ends p's stream: the marker carries the number of
// packets generated since the subscriber joined, matching its rebased
// numbering.
func (h *Hub) writeEndMarker(p *path) error {
	frame := make([]byte, core.FrameHeaderSize+h.cfg.Stream.PayloadSize)
	core.PutFrameHeader(frame, core.EndMarker, h.ring.headSeq()-p.sub.first)
	if err := h.writeFrame(p.conn, frame); err != nil {
		return fmt.Errorf("hub: path %d end marker: %w", p.idx, err)
	}
	return nil
}

// writeFrame writes one rendered frame, arming the optional stall
// deadline first.
//
// bufown borrowed frame — writeFrame only lends the buffer to the
// conn.Write sink; it must never retain or rewrite it.
func (h *Hub) writeFrame(conn net.Conn, frame []byte) error {
	if d := h.cfg.Stream.WriteStallTimeout; d > 0 {
		conn.SetWriteDeadline(time.Now().Add(d))
	}
	_, err := conn.Write(frame)
	return err
}

// rejectConn answers a refused join with the typed reject frame and closes
// the connection. The courtesy write gets a short deadline so a refused
// client that never reads cannot pin a handshake goroutine. Every written
// reject is counted exactly once in Stats.Rejected.
func (h *Hub) rejectConn(conn net.Conn, code core.RejectCode) {
	h.rejected.Add(1)
	conn.SetWriteDeadline(time.Now().Add(rejectWriteTimeout))
	_ = core.WriteReject(conn, code)
	_ = conn.Close()
}

// Attach performs the server side of the join handshake on conn and queues
// a path for the joined subscription. It closes conn on any error;
// admission refusals additionally answer with the typed reject frame, and
// the returned error unwraps to the matching core sentinel
// (core.ErrServerFull, core.ErrDraining, ...).
func (h *Hub) Attach(conn net.Conn) error {
	conn.SetReadDeadline(time.Now().Add(h.cfg.JoinTimeout))
	j, err := core.ReadJoin(conn)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		// Not (or not yet) speaking our protocol: no reject frame owed.
		_ = conn.Close()
		return fmt.Errorf("hub: join: %w", err)
	}
	return h.AttachJoined(conn, j)
}

// AttachJoined admits a connection whose join request has already been
// read — the entry point a stream registry routes to after demultiplexing
// the stream id. It behaves exactly like Attach past the handshake read:
// conn is closed on any error, refusals answer with the typed reject
// frame, and on success the path is on its shard's ready list, stream
// header first, and is served until the stream ends.
func (h *Hub) AttachJoined(conn net.Conn, j core.Join) error {
	if j.StreamID != h.cfg.StreamID {
		h.rejectConn(conn, core.RejectUnknownStream)
		return fmt.Errorf("hub: join for stream %q (serving %q): %w",
			j.StreamID, h.cfg.StreamID, &core.RejectError{Code: core.RejectUnknownStream})
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
		if h.cfg.PathWriteBuffer > 0 {
			tc.SetWriteBuffer(h.cfg.PathWriteBuffer)
		}
	}

	sd := h.shardFor(j.Token)
	h.mu.Lock()
	if h.closed.Load() || h.stopped.Load() || h.genDone.Load() {
		h.mu.Unlock()
		code := h.endCode()
		h.rejectConn(conn, code)
		if code != core.RejectStreamEnded {
			return fmt.Errorf("hub: stream over: %w", &core.RejectError{Code: code})
		}
		return ErrStreamEnded
	}
	sd.mu.Lock()
	sub := sd.subs[j.Token]
	if sub == nil {
		// A fresh token asks for admission; re-attaches of live tokens are
		// exempt so a drain or a full house never strands a subscription
		// that is only trying to heal a flapped path.
		var code core.RejectCode
		switch {
		case h.draining:
			code = core.RejectDraining
		case h.cfg.MaxSubscribers > 0 && int(h.subCount.Load()) >= h.cfg.MaxSubscribers:
			code = core.RejectServerFull
		}
		if code != 0 {
			sd.mu.Unlock()
			h.mu.Unlock()
			h.rejectConn(conn, code)
			return fmt.Errorf("hub: join refused: %w", &core.RejectError{Code: code})
		}
	}
	if h.cfg.MaxConns > 0 && int(h.pathConns.Load()) >= h.cfg.MaxConns {
		sd.mu.Unlock()
		h.mu.Unlock()
		h.rejectConn(conn, core.RejectServerFull)
		return fmt.Errorf("hub: %d connections attached: %w",
			h.cfg.MaxConns, &core.RejectError{Code: core.RejectServerFull})
	}
	if sub == nil {
		head := h.ring.headSeq()
		first, cur := head, head
		if j.Flags&core.JoinFlagAbsolute != 0 {
			// Absolute subscription: no rebase (frames carry origin
			// numbering — first stays 0) and the cursor starts at the ring
			// tail, so the joiner catches up on everything the hub still
			// retains. Relays and tree leaves join this way: stable packet
			// identity across tiers is what lets the client-side dedup
			// collapse failover replays and restart re-joins.
			first = 0
			if cur = head - h.ring.size(); cur < 0 {
				cur = 0
			}
		}
		sub = &subscriber{token: j.Token, shard: sd, first: first, cur: cur, window: h.cfg.LagWindow}
		sd.registerLocked(sub)
	}
	if sub.evicted {
		sd.mu.Unlock()
		h.mu.Unlock()
		h.rejectConn(conn, core.RejectEvicted)
		return fmt.Errorf("hub: subscriber %s: %w",
			j.Token, &core.RejectError{Code: core.RejectEvicted})
	}
	h.pathConns.Add(1)
	p := &path{sub: sub, conn: conn, idx: int(sub.nextPath), numPaths: len(sub.links) + 1}
	sub.nextPath++
	if len(sub.links) == 0 {
		// No orphan any more, if it was one: a path is back within the grace.
		sd.unorphanLocked(sub)
	}
	sub.links = append(sub.links, p)
	if sub.deadPaths > 0 {
		// This join revives a slot an abnormal death left open: the token
		// survived the flap and the subscription resumes where it was.
		sub.deadPaths--
		h.reattached.Add(1)
	}
	// The path holds one wg count from here until a worker has taken it
	// through finishPath; it starts on the ready list, with its stream
	// header to write.
	h.wg.Add(1)
	sd.live++
	sd.ready.push(p)
	sd.kickLocked(false)
	sd.mu.Unlock()
	h.mu.Unlock()
	return nil
}

// mergeSeqs folds newly dead sequences into a sorted, deduplicated resend
// queue so retransmits go out oldest first and at most once.
func mergeSeqs(have, add []int64) []int64 {
	out := make([]int64, 0, len(have)+len(add))
	out = append(out, have...)
	out = append(out, add...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	n := 0
	for i, s := range out {
		if i == 0 || s != out[n-1] {
			out[n] = s
			n++
		}
	}
	return out[:n]
}

// Serve accepts connections on ln and attaches each as a subscriber path.
// It returns when ln is closed; per-connection join failures are counted in
// Stats, not returned. Temporary accept errors (EMFILE storms, transient
// kernel refusals) are retried with capped exponential backoff instead of
// tearing the accept loop down, and connections beyond the handshake
// concurrency cap are shed with a server-full reject.
func (h *Hub) Serve(ln net.Listener) error {
	h.mu.Lock()
	h.lns = append(h.lns, ln)
	closed := h.closed.Load()
	h.mu.Unlock()
	if closed {
		_ = ln.Close()
		return ErrStreamEnded
	}
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if h.closed.Load() || h.stopped.Load() {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				// An accept storm that exhausts descriptors surfaces here as
				// a temporary error: hold the loop together and retry once
				// some in-flight connection retires a descriptor.
				h.acceptRetries.Add(1)
				switch {
				case backoff <= 0:
					backoff = 5 * time.Millisecond
				case backoff < time.Second:
					backoff *= 2
					if backoff > time.Second {
						backoff = time.Second
					}
				}
				t := time.NewTimer(backoff)
				select {
				case <-t.C:
				case <-h.stopCh:
					t.Stop()
				}
				continue
			}
			return err
		}
		backoff = 0
		// The handshake goroutine is wg-tracked and its conn is registered
		// so Close can cut a client that stalls mid-handshake instead of
		// leaking the goroutine for up to JoinTimeout. Adding to wg under
		// mu with closed checked first keeps Add ordered before Close's
		// Wait.
		h.mu.Lock()
		if h.closed.Load() {
			h.mu.Unlock()
			_ = conn.Close()
			continue
		}
		if h.stopped.Load() || h.genDone.Load() {
			// The stream is over, so Attach would refuse anyway — answer
			// inline rather than spawn a tracked goroutine, because a
			// Drain/Close may already be in wg.Wait and an Add now would
			// race it. The reject write is deadline-bounded.
			h.mu.Unlock()
			h.rejectConn(conn, h.endCode())
			continue
		}
		if len(h.pending) >= h.cfg.HandshakeLimit {
			// Too many handshakes in flight — likely a slowloris herd. Shed
			// the newcomer; rejectConn writes under a deadline, so drop mu
			// first.
			h.mu.Unlock()
			h.rejectConn(conn, core.RejectServerFull)
			continue
		}
		h.pending[conn] = struct{}{}
		h.wg.Add(1)
		h.mu.Unlock()
		go func() {
			defer h.wg.Done()
			err := h.Attach(conn)
			h.mu.Lock()
			delete(h.pending, conn)
			h.mu.Unlock()
			if err != nil && !errors.Is(err, ErrStreamEnded) && !errors.Is(err, core.ErrRejected) {
				// Admission refusals are counted in Rejected by rejectConn;
				// only protocol-level failures are path errors.
				h.pathErrors.Add(1)
			}
		}()
	}
}

// BeginDrain closes admission: joins presenting fresh tokens are refused
// with a draining reject, while live subscriptions (including re-attaches
// of their tokens) continue unaffected. Generation is not touched — pair
// with Stop, or use Drain for the full graceful-shutdown sequence.
func (h *Hub) BeginDrain() {
	h.mu.Lock()
	h.draining = true
	h.mu.Unlock()
}

// Draining reports whether admission has been closed by BeginDrain/Drain.
func (h *Hub) Draining() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.draining
}

// Drain is the graceful-shutdown ladder: stop admitting, stop generating,
// and give live paths until timeout to drain their end markers; whatever is
// still attached then is force-closed. It returns true when every path
// drained within the deadline.
func (h *Hub) Drain(timeout time.Duration) bool {
	h.BeginDrain()
	h.Stop()
	done := make(chan struct{})
	go func() {
		h.wg.Wait()
		close(done)
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		h.Close()
		return false
	}
}

// Fail ends the stream abnormally: generation stops and live paths drain
// the ring and emit end markers exactly like Stop, but every subsequent
// join is answered with the given reject code instead of the default
// stream-ended verdict. An edge relay orphaned from its upstream uses it
// to propagate RejectUpstreamLost downstream — live subscribers get
// everything the hub ever held plus a clean end marker, while new joiners
// learn the stream is gone for a reason. The first failure code sticks.
func (h *Hub) Fail(code core.RejectCode) {
	if code != 0 {
		h.failCode.CompareAndSwap(0, uint32(code))
	}
	h.Stop()
}

// endCode is the verdict a stopped hub rejects joins with: the Fail code
// when one was recorded, RejectStreamEnded otherwise.
func (h *Hub) endCode() core.RejectCode {
	if c := h.failCode.Load(); c != 0 {
		return core.RejectCode(c)
	}
	return core.RejectStreamEnded
}

// Stop ends generation. Every path drains the remaining ring contents and
// is sent its end marker; follow with Wait for a graceful shutdown.
func (h *Hub) Stop() {
	h.mu.Lock()
	h.stopped.Store(true)
	h.signalStopLocked()
	h.mu.Unlock()
	h.readyAll()
}

// Wait blocks until generation has ended (Stop or Count), every path has
// drained or failed and the shard workers have exited. A subscriber that
// has stopped reading can hold Wait up indefinitely unless
// Config.Stream.WriteStallTimeout is set or Close is used.
func (h *Hub) Wait() {
	h.wg.Wait()
}

// Close force-stops the hub: generation ends, all listeners and subscriber
// connections are closed, and new attaches are refused. It waits for every
// path to retire and the shard workers to exit. Unlike Stop+Wait, paths are
// NOT drained.
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed.Store(true)
	h.stopped.Store(true)
	h.signalStopLocked()
	for _, ln := range h.lns {
		_ = ln.Close()
	}
	for c := range h.pending {
		_ = c.Close()
	}
	h.mu.Unlock()
	for _, sd := range h.shards {
		sd.mu.Lock()
		for _, sub := range sd.subs {
			for _, p := range sub.links {
				_ = p.conn.Close()
			}
		}
		sd.readyAllLocked()
		sd.mu.Unlock()
	}
	h.wg.Wait()
}

// Generated returns the number of packets generated so far.
func (h *Hub) Generated() int64 {
	return h.generated.Load()
}

// TotalDropped returns the packets skipped across all subscribers so far.
// Lock-free.
func (h *Hub) TotalDropped() int64 {
	return h.totalDropped.Load()
}

// BytesHeld returns the buffered bytes currently attributed to subscribers
// without building the full Stats snapshot — the cheap sampling hook for
// dashboards and the benchmark: it visits the shards and the subscribers
// that can be behind — paths a tick woke and no worker has reached yet
// among them — not the parked population. It reads under the governor lock,
// so it never observes the budget mid-settlement.
func (h *Hub) BytesHeld() int64 {
	h.govMu.Lock()
	defer h.govMu.Unlock()
	total, _, _, _ := h.accountLocked(h.ring.headSeq(), true)
	return total
}

// DeliveryCounters returns the delivery-path instrumentation: user-space
// bytes memcpy'd to deliver frames (the FrameHeaderSize header patch per
// frame, nothing else), vectored writes issued, and the frames those
// writes carried. Lock-free; the benchmark samples it around its
// measurement window.
func (h *Hub) DeliveryCounters() (bytesCopied, writevs, framesBatched int64) {
	return h.bytesCopied.Load(), h.writevs.Load(), h.framesBatched.Load()
}

// PoolCheck snapshots the payload pool's integrity counters; chaos runs
// assert DoublePuts and PoisonTrips stay zero.
func (h *Hub) PoolCheck() PoolStats {
	return h.pool.stats()
}

// SubscriberStats is one subscriber's snapshot within Stats.
type SubscriberStats struct {
	Token    string // hex token
	Paths    int    // live path connections
	FirstSeq int64  // absolute sequence at join
	Lag      int64  // packets behind the generator
	Sent     int64  // packets handed to this subscriber's paths
	Dropped  int64  // packets skipped by DropOldest or lost from resend queues
	Deaths   int64  // abnormal path deaths so far
	Pending  int    // resend-queue packets not yet retransmitted
	Window   int    // effective lag window (LagWindow until the governor shrinks it)
	Sheds    int64  // degradation-ladder steps applied to this subscriber
	Held     int64  // buffered bytes attributed to this subscriber
	Evicted  bool
}

// Stats is a point-in-time snapshot of the hub.
type Stats struct {
	StreamID      string
	Shards        int           // per-core worker groups the subscribers hash across
	Generated     int64         // packets generated (external source: packets accepted by PublishAt)
	SourceGaps    int64         // external-source sequences skipped past, never published
	Subscribers   int           // currently attached subscribers
	Conns         int           // attached path connections
	Handshaking   int           // accepted connections still in the join handshake
	Sent          int64         // packets written across all subscribers
	Dropped       int64         // packets skipped by DropOldest, all subscribers
	Evicted       int64         // subscribers evicted so far
	Rejected      int64         // joins refused with a reject frame (full, draining, ...)
	Shed          int64         // degradation-ladder steps taken by the resource governor
	BytesHeld     int64         // buffered bytes held (shared payload span once + per-subscriber headers)
	BytesCopied   int64         // user-space bytes memcpy'd for delivery (header patches only)
	Writevs       int64         // vectored writes issued by the shard workers
	FramesBatched int64         // frames carried by those vectored writes
	Pool          PoolStats     // payload-pool integrity counters
	AcceptRetries int64         // temporary accept errors retried with backoff
	PathErrors    int64         // paths that ended in an error (left, stalled out, bad join)
	Resent        int64         // packets retransmitted from dead paths' windows
	Reattached    int64         // joins that revived a dead path within the grace
	Draining      bool          // admission closed, live subscriptions finishing
	Elapsed       time.Duration // since the hub started
	GoodputPkts   float64       // aggregate delivered packets per second
	Subs          []SubscriberStats
}

// Stats returns a snapshot of the hub and its current subscribers.
// BytesHeld is read under the governor lock, so it is always observed after
// a governor pass — never between a publish and the shed that settles the
// budget. The per-subscriber walk then takes only each shard's lock in
// turn, and the generator keeps ticking through it: each shard's rows are
// exact for the live edge at the moment that shard was read.
func (h *Hub) Stats() Stats {
	st := Stats{
		StreamID:      h.cfg.StreamID,
		Shards:        len(h.shards),
		Generated:     h.generated.Load(),
		SourceGaps:    h.sourceGaps.Load(),
		Sent:          h.totalSent.Load(),
		Dropped:       h.totalDropped.Load(),
		Evicted:       h.evictedCount.Load(),
		Rejected:      h.rejected.Load(),
		Shed:          h.shedCount.Load(),
		AcceptRetries: h.acceptRetries.Load(),
		PathErrors:    h.pathErrors.Load(),
		Resent:        h.totalResent.Load(),
		Reattached:    h.reattached.Load(),
		Conns:         int(h.pathConns.Load()),
		BytesCopied:   h.bytesCopied.Load(),
		Writevs:       h.writevs.Load(),
		FramesBatched: h.framesBatched.Load(),
		Pool:          h.pool.stats(),
		Elapsed:       time.Since(h.start),
	}
	h.mu.Lock()
	st.Handshaking = len(h.pending)
	st.Draining = h.draining
	h.mu.Unlock()
	st.BytesHeld = h.BytesHeld()
	st.Subs = make([]SubscriberStats, 0, h.SubscriberCount())
	for _, sd := range h.shards {
		sd.mu.Lock()
		// Read under the shard lock, the live edge is at or past every
		// cursor of the shard.
		head := h.ring.headSeq()
		for _, sub := range sd.subs {
			held := int64(0)
			if !sub.evicted {
				// Per-subscriber attribution keeps the full-frame account
				// (heldLocked), so Σ Subs[i].Held ≥ BytesHeld: shared
				// payload bytes appear once in the total but in every
				// laggard's own column.
				held = sd.heldLocked(sub, head)
			}
			st.Subs = append(st.Subs, SubscriberStats{
				Token:    sub.token.String(),
				Paths:    len(sub.links),
				FirstSeq: sub.first,
				Lag:      head - sub.cur,
				Sent:     sub.sent,
				Dropped:  sub.dropped,
				Deaths:   sub.deaths,
				Pending:  len(sub.resend),
				Window:   sub.window,
				Sheds:    sub.sheds,
				Held:     held,
				Evicted:  sub.evicted,
			})
		}
		sd.mu.Unlock()
	}
	st.Subscribers = len(st.Subs)
	if s := st.Elapsed.Seconds(); s > 0 {
		st.GoodputPkts = float64(st.Sent) / s
	}
	sort.Slice(st.Subs, func(i, j int) bool {
		if st.Subs[i].FirstSeq != st.Subs[j].FirstSeq {
			return st.Subs[i].FirstSeq < st.Subs[j].FirstSeq
		}
		return st.Subs[i].Token < st.Subs[j].Token
	})
	return st
}
