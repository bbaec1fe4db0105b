// Package hub fans a single live DMP source out to many multipath
// subscribers.
//
// The paper's server serves exactly one client: one CBR generator, one
// queue, one session (internal/core runs it as a hub with one subscriber).
// A broadcast hub keeps the single generator but replaces the queue with a
// shared ring of the most recent LagWindow packets; every subscriber owns a
// cursor into that ring, so one generation goroutine serves all subscribers
// without per-subscriber copies of the queue. Each subscriber is its own DMP multipath session: its path
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
// governor, and Stats, none of which sit on the frame hot path.
//
// An attached path is an entry, not a goroutine: on its shard's parked
// list while it has nothing to send, woken or ready once it has, or held by
// the one worker that is writing it (see shard). The workers are a small
// self-sizing stock per shard — whoever queues a path signals the idle
// worker or, with every worker out on a write, starts one; a worker leaving
// on a write with paths still queued starts one only once the writes out
// have stalled for a millisecond; a worker that finds nothing queued while
// another is idle exits — so goroutines, like the batch workspaces the
// workers lease from the shard's free list for the span of one write,
// scale with writes blocked, not with attached paths: a path parked on a
// caught-up subscriber holds its subscription and its entry, whose record
// of recent writes is a run or two kept inline until the path's writes
// fragment, nothing else, and a subscriber blocked in Write holds exactly
// one worker.
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
// Joining is a 40-byte wire handshake (wire.Join): each path connection
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
	"math"
	"net"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dmpstream/internal/clock"
	"dmpstream/internal/lockrank"
	"dmpstream/internal/wire"
)

// Policy selects what happens to a subscriber whose lag exceeds the window.
type Policy int

const (
	// DropOldest skips the subscriber's cursor ahead to the oldest packet
	// still in the ring, counting the skipped packets as drops.
	DropOldest Policy = iota
	// Evict disconnects the subscriber.
	Evict
	// Keep holds every packet a subscriber may still take, as the paper's
	// server queue does: the ring stores the span from the oldest packet
	// any subscriber, resend queue or path's batch in hand or resend record
	// still needs to the live edge, growing with that backlog up to
	// LagWindow; past it the oldest are dropped as under DropOldest. Below
	// the cursors and resend queues a slot keeps only the sequence and
	// stamp, and a resend renders the payload again from Fill. Before the first subscriber
	// joins the ring holds the stream from its first packet, and an absolute
	// join starts at the oldest packet stored. Each tick walks every path,
	// so Keep suits a hub with few of them: internal/core's one-subscriber
	// server. An ExternalSource hub stores its whole window whatever the
	// policy.
	Keep
)

func (p Policy) String() string {
	switch p {
	case DropOldest:
		return "drop-oldest"
	case Evict:
		return "evict"
	case Keep:
		return "keep"
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

// MaxShards bounds Config.Shards: past a few dozen shards the per-packet
// wake walk costs more than the contention it avoids.
const MaxShards = 64

// MaxLagWindow bounds Config.LagWindow. The ring's slots are allocated up
// front, 24 B each, except under Keep: 1<<24 packets is 400 MB of slots
// before any payload, and 18 hours of a 250 packets/s stream.
const MaxLagWindow = 1 << 24

// minShedWindow is the floor of the degradation ladder: the resource
// governor never shrinks a subscriber's effective lag window below this
// many packets — past that rung, the only relief left is eviction.
const minShedWindow = 16

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
	Stream wire.Config
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
	// subscriber may lag behind the generator before Policy applies (under
	// Keep, the size the ring may grow to). Default 1024, at most
	// MaxLagWindow.
	LagWindow int
	// Policy is the slow-subscriber policy (default DropOldest).
	Policy Policy
	// PoisonPool turns on the payload pool's poison-on-put debug mode:
	// released buffers are filled with a poison byte and verified intact on
	// reuse, so a use-after-release write trips a counter (Stats.Pool)
	// instead of silently corrupting a live frame, and PoolCheck (so
	// Stats.Pool) runs the payload alias scan. Costs one buffer scan per
	// publish and per release — meant for chaos/soak builds and tests.
	PoisonPool bool
	// Shards is how many per-core worker groups the subscriber population
	// is hashed across; each shard's lock covers only its own subscribers'
	// cursors, paths and workers. 0 selects GOMAXPROCS (capped at MaxShards);
	// tests pin other counts.
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
	// ResendWindow is how many of a path's most recently written new
	// packets are queued for retransmission to the subscriber's other paths
	// when that path dies, with the resends it served that fewer new packets
	// have followed — TCP acknowledges bytes to the hub's kernel without
	// telling the hub the client saw them, so the tail of a dead path must be
	// resent to conserve the stream. Duplicates are deduplicated client-side;
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
}

// Validate reports the error New would return for c, without building a
// hub.
func (c Config) Validate() error {
	_, err := c.withDefaults()
	return err
}

func (c Config) withDefaults() (Config, error) {
	var err error
	if c.Stream, err = c.Stream.Normalized(); err != nil {
		return c, err
	}
	if c.StreamID == "" {
		c.StreamID = "live"
	}
	if err := wire.ValidateStreamID(c.StreamID); err != nil {
		return c, fmt.Errorf("hub: %w", err)
	}
	if c.LagWindow == 0 {
		c.LagWindow = 1024
	}
	if c.LagWindow < 0 {
		return c, fmt.Errorf("hub: lag window %d < 0", c.LagWindow)
	}
	if c.LagWindow > MaxLagWindow {
		return c, fmt.Errorf("hub: lag window %d > %d", c.LagWindow, MaxLagWindow)
	}
	if c.Policy != DropOldest && c.Policy != Evict && c.Policy != Keep {
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
	return c, nil
}

// ErrStreamEnded is returned by Attach once the stream is over or the hub
// has been closed.
var ErrStreamEnded = errors.New("hub: stream ended")

// Hub is a running broadcast: one generator, a shared ring, N subscribers
// spread over per-core shards.
//
// Lock hierarchy (the rank table in internal/lockrank, checked under
// -tags lockrank): registry.Registry.mu ≺ Hub.mu ≺ Hub.govMu ≺ shard.mu ≺
// ring.mu ≺ bufPool.mu. The frame hot path (shard.work → stepLocked →
// ring.pinBatch) takes only shard.mu and ring.mu, and ring.mu only
// shared; a worker holds no lock across a write, and retires a path
// (finishPath, which may take govMu) only after releasing shard.mu.
//
// The stream ends once, at the seal (Stop; also Fail, Close and Count),
// which takes Hub.mu, then govMu: it lands between two publishes, and every
// end marker carries the count it seals.
type Hub struct {
	cfg Config

	// batchFrames caps the capacity a leased batch workspace grows to:
	// writeBatchFrames, except in tests, which shrink it after New to force
	// multi-write drains.
	batchFrames int

	pool   *bufPool
	ring   *ring
	shards []*shard
	acc    *Acceptor
	wg     sync.WaitGroup
	start  time.Time

	// Lifecycle. Read lock-free on the hot path; stores happen under mu so
	// admission's check-then-register stays ordered against Close/Stop's
	// wg.Wait, and end's under govMu too (Stop).
	end    atomic.Int64 // −1 while the stream runs; then the head it was sealed at
	closed atomic.Bool  // force-closed
	joined atomic.Bool  // a subscriber has registered (Keep holds the stream for the first)

	// mu is the control plane: drain state and admission. It is never
	// taken on the frame hot path.
	mu       lockrank.Mutex
	draining bool          // guarded by mu; admission closed, live subscriptions finishing
	stopCh   chan struct{} // closed by the seal
	wait     *time.Timer   // the generator's, for the next due time; made at its first wait

	// govMu serializes the byte-budget governor with Stats' BytesHeld
	// aggregation and with the generator's publish cycle, so no reader can
	// observe held bytes between a publish (or resend merge) and the
	// governor pass that settles them back under budget.
	govMu lockrank.Mutex
	// low is the ring's low-water mark from the generator's last tick: the
	// next publish releases the payloads below it. keep is the oldest
	// packet the next publish must not lap: low, or under Keep the oldest a
	// path may still hand back (keptLocked), whose payload is rendered
	// again if it is.
	low  int64 // guarded by govMu
	keep int64 // guarded by govMu

	// Admission accounting: incremented only under mu (so the caps are
	// strict), decremented atomically wherever a subscriber or path retires.
	subCount  atomic.Int64 // subscribers registered across all shards
	pathConns atomic.Int64 // attached path connections (MaxConns accounting)

	// failCode, when non-zero, is the reject verdict a stopped hub answers
	// joins with instead of the default stream-ended code (see Fail).
	failCode atomic.Uint32

	generated    atomic.Int64
	sourceGaps   atomic.Int64 // external-source sequences skipped past (never published)
	totalSent    atomic.Int64
	totalDropped atomic.Int64
	evictedCount atomic.Int64
	pathErrors   atomic.Int64
	totalResent  atomic.Int64 // packets replayed from resend queues
	reattached   atomic.Int64 // joins that revived a dead path's slot
	shedCount    atomic.Int64 // degradation-ladder steps across all subscribers

	// Delivery-path instrumentation: how many user-space bytes were
	// memcpy'd to deliver frames (header patches only), and how many
	// vectored writes carried how many frames (batch-size telemetry).
	bytesCopied   atomic.Int64
	writevs       atomic.Int64
	framesBatched atomic.Int64

	// clock runs the shards' countdowns: clock.Wall unless a test set its
	// own after New. Last, like shard.walk, to keep the cache lines above.
	clock clock.Clock
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
	slots := cfg.LagWindow
	if cfg.Policy == Keep && !cfg.ExternalSource {
		// A tick's burst to start with; publish grows the ring from there.
		slots = min(slots, maxTickBurst)
	}
	h := &Hub{
		cfg:         cfg,
		batchFrames: writeBatchFrames,
		clock:       clock.Wall{},
		pool:        pool,
		ring:        newRing(cfg.LagWindow, slots, pool, cfg.Stream.Fill),
		start:       time.Now(),
		stopCh:      make(chan struct{}),
	}
	h.end.Store(-1)
	h.mu.Init(lockrank.Hub)
	h.govMu.Init(lockrank.Governor)
	h.acc = NewAcceptor(cfg.JoinTimeout, ErrStreamEnded, h.AttachJoined)
	h.shards = make([]*shard, cfg.Shards)
	for i := range h.shards {
		h.shards[i] = newShard(h)
	}
	if !cfg.ExternalSource {
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.generate()
			h.Stop() // at Count; a no-op seal after an earlier one
		}()
	}
	return h, nil
}

// shardFor pins a token to its shard. Tokens are random, so the first
// eight bytes hash the population evenly.
func (h *Hub) shardFor(tok wire.Token) *shard {
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
func (h *Hub) HasSubscriber(tok wire.Token) bool {
	sd := h.shardFor(tok)
	sd.mu.Lock()
	_, ok := sd.subs[tok]
	sd.mu.Unlock()
	return ok
}

// generate produces packets on the CBR schedule into the ring, waking the
// shards (which apply the slow-subscriber policy to their own laggards)
// and re-running the byte-budget governor once per tick, until Count
// packets are out or the stream is sealed. The wait for a due time ends
// early on the seal, so Stop never waits out a tick.
func (h *Hub) generate() {
	period := time.Duration(float64(time.Second) / h.cfg.Stream.Mu)
	base := time.Now()
	for n := int64(0); h.end.Load() < 0; {
		if c := h.cfg.Stream.Count; c > 0 && n >= c {
			return
		}
		// Drift-free schedule: packet n is due at base + n/µ.
		if d := time.Until(base.Add(time.Duration(n) * period)); d > 0 {
			if h.wait == nil {
				h.wait = time.NewTimer(d)
			} else {
				h.wait.Reset(d) // it fired and was drained: the only way here
			}
			select {
			case <-h.wait.C:
			case <-h.stopCh:
				h.wait.Stop()
				return
			}
		}
		n += h.publishTick(n, base, period)
	}
}

// publishTick publishes every packet due by now — at least one, at most
// maxTickBurst (and never more than the ring holds) — then visits each
// shard exactly once and runs one governor pass. Coalescing the wakeups
// this way means a tick that catches up k overdue packets still wakes
// each subscriber at most once per shard, instead of k times; on
// schedule, k is 1 and the cadence is identical to the historical
// per-packet wake. The governor's walk also gives the ring's low-water
// mark, which the next tick's first publish releases to, and the oldest
// packet it must not lap — under Keep lowered, by the walk of every path in
// keptLocked, to what a path may still hand back. It returns how
// many packets it published: none once the stream is sealed.
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
	if h.end.Load() >= 0 {
		h.govMu.Unlock()
		return 0
	}
	var head int64
	for i := int64(0); i < k; i++ {
		head = h.ring.publish(h.low, h.keep)
	}
	h.generated.Add(k)
	for _, sd := range h.shards {
		sd.wake(head)
	}
	h.low = min(h.governLocked(head), head-1)
	h.keep = h.low
	if h.cfg.Policy == Keep {
		h.keep = min(h.low, h.keptLocked(head))
	}
	h.govMu.Unlock()
	return k
}

// keptLocked is the oldest sequence a Keep hub's ring must still store at
// live edge head: the first packet until a subscriber has joined, then the
// oldest any subscriber's cursor or resend queue, or any path's batch in
// hand or resend record, still holds. Caller holds h.govMu; shard locks are
// taken one at a time underneath it.
func (h *Hub) keptLocked(head int64) int64 {
	if !h.joined.Load() {
		return 0
	}
	for _, sd := range h.shards {
		sd.mu.Lock()
		head = min(head, sd.keptLocked(head))
		sd.mu.Unlock()
	}
	return head
}

// PublishAt injects one externally received packet at absolute sequence
// seq — the ingest point of an ExternalSource hub (an edge relay
// republishing its upstream feed). The caller must publish in ascending
// sequence order; a seq below the current head is a late duplicate and is
// refused. Sequences may skip ahead (the upstream lost packets for good,
// or the relay restarted mid-stream): the head jumps and the skipped
// positions read as drops downstream, counted in SourceGaps. The first
// packet may carry any sequence; it is where the stream starts, not a
// gap. payload must be exactly PayloadSize bytes. It returns whether the
// packet was accepted: none is once the stream is sealed.
//
// The call mirrors publishTick's cycle — publish, wake the shards (lag
// policy + ready list), one governor pass — so every downstream
// guarantee (lag window, byte budget, degradation ladder) holds at every
// tier of a relay tree. The governor's walk runs only for a budget: an
// upstream's packet cannot be rendered again, so no low-water mark is set.
//
// payload is copied into a private pool buffer inside ring.publishAt
// before any reader can alias the slot; it is never retained.
func (h *Hub) PublishAt(seq, gen int64, payload []byte) bool {
	if !h.cfg.ExternalSource || len(payload) != h.cfg.Stream.PayloadSize || seq < 0 {
		return false
	}
	h.govMu.Lock()
	if h.end.Load() >= 0 {
		h.govMu.Unlock()
		return false
	}
	prev := h.ring.headSeq()
	head, ok := h.ring.publishAt(seq, gen, payload)
	if !ok {
		h.govMu.Unlock()
		return false
	}
	h.generated.Add(1)
	if gap := seq - prev; gap > 0 && prev > 0 { // prev is 0 only before the first packet
		h.sourceGaps.Add(gap)
	}
	for _, sd := range h.shards {
		sd.wake(head)
	}
	if h.cfg.MaxBytes > 0 {
		h.governLocked(head)
	}
	h.govMu.Unlock()
	return true
}

// accountLocked computes the subscriber-attributable buffered bytes at
// live edge head under the shared-buffer ownership model, with the oldest
// sequence any subscriber still needs and the laggiest subscriber for the
// governor to shed (bh), and the shard that subscriber is on. Ring payload
// bytes are held once no matter how many subscribers still need them — the
// span from the oldest packet any live subscriber still needs (cursor or
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
// bound they share, bh.need is at or below the exact figure, total is an
// upper bound on the exact one (both equal to it on a tick that found
// everybody at pace) and bh.worst is not to be used.
// Caller holds h.govMu; shard locks are taken one at a time underneath it.
func (h *Hub) accountLocked(head int64, exact bool) (total int64, bh behind, worstShard *shard) {
	tail := max(head-h.ring.size(), 0)
	bh.need = head
	var hdrFrames int64
	for _, sd := range h.shards {
		sd.mu.Lock()
		hdrFrames += sd.nsubs*head - sd.curSum + sd.resendSum
		sb := sd.behindLocked(head, tail, exact)
		sd.mu.Unlock()
		bh.need = min(bh.need, sb.need)
		if sb.worstHeld > bh.worstHeld {
			bh.worst, bh.worstHeld, worstShard = sb.worst, sb.worstHeld, sd
		}
	}
	total = (head-bh.need)*int64(h.cfg.Stream.PayloadSize) + hdrFrames*wire.FrameHeaderSize
	return total, bh, worstShard
}

// governLocked enforces the global MaxBytes budget over subscriber
// holdings at live edge head. While the sum exceeds the budget it sheds
// the laggiest subscriber with one degradation-ladder step at a time, so
// overload degrades the worst laggard's quality instead of the whole
// hub's. The pass every tick makes is the bounded account, which visits
// none of the paths the tick has just woken; only when that cannot show the
// hub within its budget does the governor pay for the exact one — then for
// every step, because whom to shed and when to stop must be what a scan
// over every subscriber would say. It returns the bounded account's oldest
// needed sequence (at or below the true one, which sheds only raise), so it
// walks with no budget too. Caller holds h.govMu; shard locks are taken one
// at a time underneath it.
func (h *Hub) governLocked(head int64) (need int64) {
	total, bh, _ := h.accountLocked(head, false)
	if h.cfg.MaxBytes <= 0 || total <= h.cfg.MaxBytes {
		return bh.need
	}
	for {
		total, worst, worstShard := h.accountLocked(head, true)
		if total <= h.cfg.MaxBytes || worst.worst == nil || worst.worstHeld == 0 {
			return bh.need
		}
		worstShard.mu.Lock()
		worstShard.shedLocked(worst.worst, head, worst.worstHeld)
		worstShard.mu.Unlock()
	}
}

// batch is the workspace of one vectored write in flight: pinned shared
// payload buffers plus the per-subscriber patched headers and the vectored
// write assembled over them. Batches belong to the shard, not to a path: a
// worker leases one (popBatchLocked) once the path it holds has frames to
// pin, keeps it across writeBatch and releaseBatch, and hands it back under
// its next hold of the shard lock, whatever became of the write. A parked
// path therefore holds none, and a shard's stock follows its writes in
// flight rather than its attached paths.
//
// A workspace holds as many frames as its writes have needed. It starts at
// one, kept inline in the batch itself — at pace a fan-out write carries
// one frame — and popBatchLocked grows the leased one, to the next power of
// two up to batchFrames, only when its subscriber has more ready than it
// holds. A trim hands a workspace that no write since the last trim filled
// past half back to its inline frame (trimFreeLocked). In between the
// storage is reused: the hot loop only writes indexed slots, never appends.
type batch struct {
	n       int           // filled entries
	bufs    []*payloadBuf // pinned shared payloads; len is the batch capacity
	seqs    []int64       // absolute sequences (resend bookkeeping on a write error)
	gens    []int64       // generation timestamps for the header patch
	hdrs    []byte        // capacity × FrameHeaderSize patched header bytes
	wb      [][]byte      // 2 × capacity vectored-write slots: header, payload, ...
	vec     net.Buffers   // reusable view of wb[:2n] — a field so WriteTo's pointer receiver never forces a per-call heap escape
	next    *batch        // guarded by mu (the shard's); free-list link, nil while leased
	peak    int32         // guarded by mu; most frames one lease carried since the last trim
	resends int32         // how many of the n entries lead as served resends
	one     oneFrame      // the inline one-frame workspace the slices start on
}

// oneFrame is a batch's inline storage for one frame. The alias scan
// reaches it through the batch's slices only.
type oneFrame struct {
	bufs [1]*payloadBuf
	seqs [1]int64
	gens [1]int64
	hdrs [wire.FrameHeaderSize]byte
	wb   [2][]byte
}

// newBatch returns a one-frame workspace: a single allocation.
func newBatch() *batch {
	b := new(batch)
	b.shrink()
	return b
}

// shrink points b's slices back at its inline frame, leaving any grown
// storage to the collector. b must hold no pins.
func (b *batch) shrink() {
	b.bufs, b.seqs, b.gens = b.one.bufs[:], b.one.seqs[:], b.one.gens[:]
	b.hdrs, b.wb, b.vec = b.one.hdrs[:], b.one.wb[:], nil
}

// grow replaces b's storage with room for n frames. b must hold no pins.
func (b *batch) grow(n int) {
	b.bufs = make([]*payloadBuf, n)
	b.seqs = make([]int64, n)
	b.gens = make([]int64, n)
	b.hdrs = make([]byte, n*wire.FrameHeaderSize)
	b.wb = make([][]byte, 2*n)
	b.vec = nil
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
// copied in user space: they stay alive under the batch's refcounts until
// releaseBatch.
func (h *Hub) writeBatch(conn net.Conn, sub *subscriber, b *batch) error {
	for i := 0; i < b.n; i++ {
		hdr := b.hdrs[i*wire.FrameHeaderSize : (i+1)*wire.FrameHeaderSize]
		wire.PutFrameHeader(hdr, uint32(b.seqs[i]-sub.first), b.gens[i])
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
	h.bytesCopied.Add(int64(b.n) * wire.FrameHeaderSize)
	h.writevs.Add(1)
	h.framesBatched.Add(int64(b.n))
	return err
}

// releaseBatch drops the batch's pins, returning buffers whose refcount
// reached zero to the pool under one lock, and clears the vectored-write
// slots that aliased them — a released batch holds no borrow, which is what
// lets the worker hand it back to the shard for another subscriber's
// frames. Entries are nil'd as they release, so a second call over the
// same batch is a no-op.
func (h *Hub) releaseBatch(b *batch) {
	last := 0 // b.bufs[:last] gathers the buffers whose last reference dropped
	for i := 0; i < b.n; i++ {
		pb := b.bufs[i]
		if pb == nil {
			continue
		}
		b.bufs[i] = nil
		b.wb[2*i+1] = nil
		if pb.refs.Add(-1) == 0 {
			b.bufs[last] = pb
			last++
		}
	}
	h.pool.putAll(b.bufs[:last])
}

// writeEndMarker ends p's stream: the marker carries the number of
// packets from the subscriber's first (the newest at its join) to the
// sealed end, matching its rebased numbering — or, for a path removed
// while the stream runs, to the live edge.
func (h *Hub) writeEndMarker(p *path) error {
	end := h.end.Load()
	if end < 0 {
		end = h.ring.headSeq()
	}
	frame := make([]byte, wire.FrameHeaderSize+h.cfg.Stream.PayloadSize)
	wire.PutFrameHeader(frame, wire.EndMarker, end-p.sub.first)
	if err := h.writeFrame(p.conn, frame); err != nil {
		return fmt.Errorf("hub: path %d end marker: %w", p.idx, err)
	}
	return nil
}

// writeFrame writes one rendered frame, arming the optional stall
// deadline first. It only lends frame to conn.Write; it must never retain
// or rewrite it.
func (h *Hub) writeFrame(conn net.Conn, frame []byte) error {
	if d := h.cfg.Stream.WriteStallTimeout; d > 0 {
		conn.SetWriteDeadline(time.Now().Add(d))
	}
	_, err := conn.Write(frame)
	return err
}

// Attach performs the server side of the join handshake on conn and queues
// a path for the joined subscription. It closes conn on any error;
// admission refusals additionally answer with the typed reject frame, and
// the returned error unwraps to the matching wire sentinel
// (wire.ErrServerFull, wire.ErrDraining, ...).
func (h *Hub) Attach(conn net.Conn) error { return h.acc.Attach(conn) }

// AttachJoined admits a connection whose join request has already been
// read — the entry point a stream registry routes to after demultiplexing
// the stream id. It behaves exactly like Attach past the handshake read:
// conn is closed on any error, refusals answer with the typed reject
// frame, and on success the path is on its shard's ready list, stream
// header first, and is served until the stream ends. Who is admitted is
// verdict's rule (join and re-attach). A conn that has a
// StreamEndedRefused method (a registry's) hears of a stream-ended
// refusal before its reject frame is written, so whoever counts it has
// counted it by the time the client can read it.
func (h *Hub) AttachJoined(conn net.Conn, j wire.Join) error {
	if j.StreamID != h.cfg.StreamID {
		return fmt.Errorf("hub: join for stream %q (serving %q): %w",
			j.StreamID, h.cfg.StreamID, h.acc.Reject(conn, wire.RejectUnknownStream))
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
		if h.cfg.PathWriteBuffer > 0 {
			tc.SetWriteBuffer(h.cfg.PathWriteBuffer)
		}
	}

	sd := h.shardFor(j.Token)
	h.mu.Lock()
	sd.mu.Lock()
	code := h.admitLocked(sd, conn, j)
	sd.mu.Unlock()
	h.mu.Unlock()
	switch code {
	case 0:
		return nil
	case wire.RejectStreamEnded:
		if c, ok := conn.(interface{ StreamEndedRefused() }); ok {
			c.StreamEndedRefused()
		}
		_ = h.acc.Reject(conn, code) // the verdict is the same whether or not the frame lands
		return ErrStreamEnded
	}
	return fmt.Errorf("hub: join refused: %w", h.acc.Reject(conn, code))
}

// admitLocked is AttachJoined's shell around verdict for a join to the
// shard sd: the reject code it answers, or 0 once the path is on the
// shard's ready list. Caller holds h.mu and sd.mu.
func (h *Hub) admitLocked(sd *shard, conn net.Conn, j wire.Join) wire.RejectCode {
	sub := sd.subs[j.Token]
	ev := event{kind: evReattach, connsFull: h.cfg.MaxConns > 0 && int(h.pathConns.Load()) >= h.cfg.MaxConns}
	if sub == nil {
		ev.kind, ev.draining = evJoin, h.draining
		ev.subsFull = h.cfg.MaxSubscribers > 0 && int(h.subCount.Load()) >= h.cfg.MaxSubscribers
	}
	if act, code := sd.judgeLocked(sub, ev); act&actAdmit == 0 {
		if code == wire.RejectStreamEnded {
			return h.endCode()
		}
		return code
	}
	if sub == nil {
		// A rebased subscription starts on the newest packet the hub holds,
		// numbered 0, so its stream header is followed at once by a frame
		// rather than by a wait of up to a tick for the next one.
		head := h.ring.headSeq()
		first := max(head-1, 0)
		cur := first
		if j.Flags&wire.JoinFlagAbsolute != 0 {
			// Absolute subscription: no rebase (frames carry origin
			// numbering — first stays 0) and the cursor starts at the ring
			// tail, so the joiner catches up on everything the hub still
			// retains. Relays and tree leaves join this way: stable packet
			// identity across tiers is what lets the client-side dedup
			// collapse failover replays and restart re-joins.
			first = 0
			cur = h.ring.tail()
		}
		sub = &subscriber{token: j.Token, shard: sd, first: first, cur: cur, window: h.cfg.LagWindow}
		sd.registerLocked(sub)
		h.joined.Store(true)
	}
	h.pathConns.Add(1)
	p := &path{sub: sub, conn: conn, idx: sub.nextPath, numPaths: int32(len(sub.links) + 1), owe: math.MaxInt64}
	sub.nextPath++
	sd.unorphanLocked(sub) // its grace, if it was in one, is over
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
	return 0
}

// RemovePath ends path conn of subscriber tok gracefully, as the stream's
// end would: the path finishes the write in hand, writes its end marker and
// retires, and the subscriber's other paths carry the stream on. Nothing it
// wrote is resent — it all went out ahead of the marker. The hub closes conn
// once the marker is out, as for any path it retires. It reports whether
// conn was attached under tok.
func (h *Hub) RemovePath(tok wire.Token, conn net.Conn) bool {
	sd := h.shardFor(tok)
	sd.mu.Lock()
	defer sd.mu.Unlock()
	sub := sd.subs[tok]
	if sub == nil {
		return false
	}
	for _, p := range sub.links {
		if p.conn == conn {
			p.removed = true
			if !p.held {
				p.unlink()
				sd.ready.push(p)
				sd.kickLocked(false)
			}
			return true
		}
	}
	return false
}

// mergeSeqs folds newly dead sequences into a sorted, deduplicated resend
// queue so retransmits go out oldest first and at most once.
func mergeSeqs(have, add []int64) []int64 {
	out := slices.Concat(have, add)
	slices.Sort(out)
	return slices.Compact(out)
}

// Serve accepts connections on ln and attaches each as a subscriber path
// through the hub's Acceptor. It returns when ln is closed; per-connection
// join failures are counted in Stats, not returned.
func (h *Hub) Serve(ln net.Listener) error { return h.acc.Serve(ln) }

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
func (h *Hub) Fail(code wire.RejectCode) {
	if code != 0 {
		h.failCode.CompareAndSwap(0, uint32(code))
	}
	h.Stop()
}

// endCode is the verdict a stopped hub rejects joins with: the Fail code
// when one was recorded, RejectStreamEnded otherwise.
func (h *Hub) endCode() wire.RejectCode {
	if c := h.failCode.Load(); c != 0 {
		return wire.RejectCode(c)
	}
	return wire.RejectStreamEnded
}

// Stop is the seal: it ends the stream at the current head, once. It takes
// Hub.mu, then govMu, which a tick and a PublishAt hold across their whole
// publish, so the head it reads is final and neither publishes again. Every
// path then drains what the ring still holds and is sent its end marker,
// which carries the sealed count; follow with Wait for a graceful shutdown.
// Closing stopCh ends the generator's wait, so Wait never waits out a
// tick. What the seal does to each subscription is verdict's.
func (h *Hub) Stop() {
	h.mu.Lock()
	h.govMu.Lock()
	if h.end.Load() < 0 {
		h.end.Store(h.ring.headSeq())
		close(h.stopCh)
	}
	h.govMu.Unlock()
	h.mu.Unlock()
	for _, sd := range h.shards {
		sd.mu.Lock()
		sd.woken.take(&sd.parked) // each has an end marker to write or a teardown to go through
		sd.kickLocked(false)
		for _, sub := range sd.subs {
			sd.judgeLocked(sub, event{kind: evSeal})
		}
		sd.mu.Unlock()
	}
}

// Wait blocks until the stream is sealed (Stop or Count), every path has
// drained or failed and the shard workers have exited. A subscriber that
// has stopped reading can hold Wait up indefinitely unless
// Config.Stream.WriteStallTimeout is set or Close is used. A subscription
// verdict keeps in its re-attach grace outlives Wait; Close removes it.
func (h *Hub) Wait() {
	h.wg.Wait()
}

// Close force-stops the hub: new attaches are refused, the stream is
// sealed (Stop), and all listeners and subscriber connections are closed.
// It waits for every path to retire and the shard workers to exit, then
// has verdict close every subscription. Unlike Stop+Wait, paths are NOT
// drained: none is sent its end marker.
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed.Store(true)
	h.mu.Unlock()
	h.Stop()
	h.acc.Close()
	for _, sd := range h.shards {
		sd.mu.Lock()
		for _, sub := range sd.subs {
			for _, p := range sub.links {
				_ = p.conn.Close()
			}
		}
		sd.mu.Unlock()
	}
	h.wg.Wait()
	for _, sd := range h.shards {
		sd.mu.Lock()
		for _, sub := range sd.subs {
			sd.judgeLocked(sub, event{kind: evClose})
		}
		sd.mu.Unlock()
	}
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
	total, _, _ := h.accountLocked(h.ring.headSeq(), true)
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
// assert DoublePuts, PoisonTrips and Aliases stay zero. On a PoisonPool
// hub it also runs the payload alias scan, which takes every shard lock
// in turn; on any other hub Aliases is 0 and the call costs one pool lock.
func (h *Hub) PoolCheck() PoolStats {
	ps := h.pool.stats()
	if h.cfg.PoisonPool {
		ps.Aliases = h.payloadAliases()
	}
	return ps
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
	Workers       int           // shard worker goroutines alive
	WorkersBusy   int           // of those, the ones out with a path: in a write or retiring it
	WorkerStarts  int64         // shard workers started since the hub began
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
	retries, rejected, badJoins := h.acc.Counters()
	st := Stats{
		StreamID:      h.cfg.StreamID,
		Shards:        len(h.shards),
		Generated:     h.generated.Load(),
		SourceGaps:    h.sourceGaps.Load(),
		Sent:          h.totalSent.Load(),
		Dropped:       h.totalDropped.Load(),
		Evicted:       h.evictedCount.Load(),
		Rejected:      rejected,
		Shed:          h.shedCount.Load(),
		AcceptRetries: retries,
		PathErrors:    h.pathErrors.Load() + badJoins,
		Resent:        h.totalResent.Load(),
		Reattached:    h.reattached.Load(),
		Conns:         int(h.pathConns.Load()),
		BytesCopied:   h.bytesCopied.Load(),
		Writevs:       h.writevs.Load(),
		FramesBatched: h.framesBatched.Load(),
		Pool:          h.PoolCheck(),
		Elapsed:       time.Since(h.start),
	}
	st.Handshaking = h.acc.Handshaking()
	st.Draining = h.Draining()
	st.BytesHeld = h.BytesHeld()
	st.Subs = make([]SubscriberStats, 0, h.SubscriberCount())
	for _, sd := range h.shards {
		sd.mu.Lock()
		st.Workers += sd.workers
		st.WorkersBusy += sd.busy
		st.WorkerStarts += sd.starts
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
