package hub

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"dmpstream/internal/core"
)

// The oracle property test: a seeded random interleaving of everything
// that moves a subscriber or a path, with the shard's maintained state —
// running totals, lists, the can-be-behind walk — compared after every
// step against full scans over sd.subs (oracle_test.go).

// propConn is a path connection the test can stall and release any number
// of times; blocked says how many writers are waiting on it.
type propConn struct {
	mu      sync.Mutex
	stalled bool
	closed  bool
	release chan struct{} // closed, and replaced, whenever stalled or closed changes
	blocked int           // writers waiting on release; a writer set has let go counts as moving at once
}

func newPropConn() *propConn { return &propConn{release: make(chan struct{})} }

func (c *propConn) set(stalled, closed bool) {
	c.mu.Lock()
	c.stalled, c.closed = stalled, c.closed || closed
	close(c.release)
	c.release, c.blocked = make(chan struct{}), 0
	c.mu.Unlock()
}

// pass blocks while the conn is stalled and reports whether it is open.
func (c *propConn) pass() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.stalled && !c.closed {
		ch := c.release
		c.blocked++
		c.mu.Unlock()
		<-ch
		c.mu.Lock()
	}
	return !c.closed
}

func (c *propConn) waiting() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blocked
}

func (c *propConn) WriteBuffers(bufs net.Buffers) (int64, error) {
	if !c.pass() {
		return 0, net.ErrClosed
	}
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	return n, nil
}

func (c *propConn) Write(p []byte) (int, error) {
	if !c.pass() {
		return 0, net.ErrClosed
	}
	return len(p), nil
}
func (c *propConn) Close() error                     { c.set(false, true); return nil }
func (c *propConn) Read(p []byte) (int, error)       { return 0, net.ErrClosed }
func (c *propConn) LocalAddr() net.Addr              { return nil }
func (c *propConn) RemoteAddr() net.Addr             { return nil }
func (c *propConn) SetDeadline(time.Time) error      { return nil }
func (c *propConn) SetReadDeadline(time.Time) error  { return nil }
func (c *propConn) SetWriteDeadline(time.Time) error { return nil }

// propSub is the test's record of one subscription it created.
type propSub struct {
	tok   core.Token
	conns []*propConn // every conn ever attached under the token, dead ones included
}

type propWorld struct {
	t      *testing.T
	h      *Hub
	rng    *rand.Rand
	subs   []*propSub
	manual *subscriber // hand-built, no path: fetched for by hand ("pop")
	seq    int64
	nsteps int
	steps  map[string]int // how often each kind of step ran
	// How many shard states the checks saw with woken paths no worker had
	// reached, and with a ready-list backlog.
	unserved, backlogged int
}

// settle waits until nothing moves: no path queued, and every path a
// worker holds is one whose write the test has stalled.
func (w *propWorld) settle() {
	w.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		queued, held, waiting := 0, 0, 0
		for _, sd := range w.h.shards {
			pl := placed(w.t, sd)
			queued += pl.queued
			held += pl.held
		}
		for _, s := range w.subs {
			for _, c := range s.conns {
				waiting += c.waiting()
			}
		}
		if queued == 0 && held == waiting {
			return
		}
		if time.Now().After(deadline) {
			w.t.Fatalf("hub did not settle: %d paths queued, %d held, %d writers stalled", queued, held, waiting)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// check compares maintained state with the reference scans. The strict
// part runs with the governor lock and every shard lock held, so nothing —
// a worker, a grace timer — moves underneath it.
func (w *propWorld) check(step string) {
	w.t.Helper()
	h := w.h
	h.govMu.Lock()
	for _, sd := range h.shards {
		sd.mu.Lock()
	}
	head := h.ring.headSeq()
	tail := max(head-h.ring.size(), 0)
	fail := func(format string, args ...any) {
		w.t.Helper()
		w.t.Errorf("after step %d (%s): %s", w.nsteps, step, fmt.Sprintf(format, args...))
	}
	for i, sd := range h.shards {
		// Running totals against a scan of the shard.
		sc := scanShardLocked(sd, head, tail)
		if sc.nsubs != sd.nsubs || sc.curSum != sd.curSum || sc.resendSum != sd.resendSum {
			fail("shard %d totals: %d subscribers, Σcur %d, Σresend %d; a scan finds %d, %d, %d",
				i, sd.nsubs, sd.curSum, sd.resendSum, sc.nsubs, sc.curSum, sc.resendSum)
		}
		for _, sub := range sd.subs {
			if sub.cur > head {
				fail("shard %d: subscriber %s has its cursor at %d, past the live edge %d", i, sub.token, sub.cur, head)
			}
		}
		// The walk over the subscribers behind against the same scan: exact,
		// it finds what the scan finds; bounded, it passes over the woken
		// paths with the one sequence they had all fetched up to.
		bh := sd.behindLocked(head, tail, true)
		if bh.need != sc.need || bh.worstHeld != sc.worstHeld {
			fail("shard %d walk: oldest needed %d, worst holding %d; a scan finds %d, %d", i, bh.need, bh.worstHeld, sc.need, sc.worstHeld)
		}
		if bh.worst != nil && sd.heldLocked(bh.worst, head) != sc.worstHeld {
			fail("shard %d walk: the worst laggard it names holds %d, not %d", i, sd.heldLocked(bh.worst, head), sc.worstHeld)
		}
		bound := sc.need
		if !sd.woken.empty() {
			w.unserved++
			bound = min(bound, max(sd.wokeAt, tail))
		}
		if !sd.ready.empty() {
			w.backlogged++
		}
		if bb := sd.behindLocked(head, tail, false); bb.need > sc.need || bb.need < bound || bb.worstHeld > sc.worstHeld {
			fail("shard %d bounded walk: oldest needed %d, worst holding %d; a scan finds %d, %d and the woken paths were served up to %d",
				i, bb.need, bb.worstHeld, sc.need, sc.worstHeld, sd.wokeAt)
		}
		for p := sd.woken.front(); p != nil; p = sd.woken.after(p) {
			if p.sub.cur < sd.wokeAt || len(p.sub.resend) > 0 {
				fail("shard %d: a woken path's subscriber %s is at %d with %d resends pending, woken at %d",
					i, p.sub.token, p.sub.cur, len(p.sub.resend), sd.wokeAt)
			}
		}
		// Every path on exactly one list; nobody parked with work to do.
		if _, err := placedLocked(sd); err != nil {
			fail("shard %d: %v", i, err)
		}
		for p := sd.parked.front(); p != nil; p = sd.parked.after(p) {
			if p.sub.cur < head || len(p.sub.resend) > 0 {
				fail("shard %d: a path of %s is parked with its subscriber %d behind and %d resends pending",
					i, p.sub.token, head-p.sub.cur, len(p.sub.resend))
			}
		}
		// Orphans are exactly the counted subscribers with no path.
		orphans := 0
		for _, sub := range sd.subs {
			if !sub.evicted && len(sub.links) == 0 {
				orphans++
			}
		}
		if orphans != len(sd.orphans) {
			fail("shard %d: %d orphans listed, %d subscribers without a path", i, len(sd.orphans), orphans)
		}
	}
	for i := len(h.shards) - 1; i >= 0; i-- {
		h.shards[i].mu.Unlock()
	}
	// The hub-wide figures: accountLocked between two scans. A worker or a
	// grace timer may move something in between, and when the scans agree
	// none did.
	refTotal, _, refWorst := scanAccount(h, head)
	got, gotWorst, _, _ := h.accountLocked(head, true)
	upper, _, _, _ := h.accountLocked(head, false)
	again, _, _ := scanAccount(h, head)
	h.govMu.Unlock()
	if refTotal == again && (got != refTotal || gotWorst != refWorst || upper < refTotal) {
		fail("accountLocked: %d bytes held (bounded: %d), worst %d; a scan finds %d, %d", got, upper, gotWorst, refTotal, refWorst)
	}
	if held := h.BytesHeld(); held > h.cfg.MaxBytes {
		fail("%d bytes held, over the %d budget", held, h.cfg.MaxBytes)
	}
}

// tickUnserved is PublishAt's cycle — publish, wake the shards, one
// governor pass — without the kick that puts a worker on the woken paths.
func (w *propWorld) tickUnserved(payload []byte) {
	h := w.h
	h.govMu.Lock()
	defer h.govMu.Unlock()
	head, ok := h.ring.publishAt(w.seq, w.seq, payload)
	if !ok {
		w.t.Fatalf("publishAt(%d) refused", w.seq)
	}
	h.generated.Add(1)
	for _, sd := range h.shards {
		sd.mu.Lock()
		sd.wakeLocked(head)
		sd.mu.Unlock()
	}
	h.governLocked(head)
}

// kick puts a worker on whatever is queued, as wake does.
func (w *propWorld) kick() {
	for _, sd := range w.h.shards {
		sd.mu.Lock()
		sd.kickLocked(false)
		sd.mu.Unlock()
	}
}

// live returns the test's subscriptions the hub still has, pruning the
// rest (evicted and retired, or expired in grace).
func (w *propWorld) live() []*propSub {
	kept := w.subs[:0]
	for _, s := range w.subs {
		if w.h.HasSubscriber(s.tok) {
			kept = append(kept, s)
		}
	}
	w.subs = kept
	return kept
}

// lookup returns the hub's record of s, nil if gone. Caller holds no lock.
func (w *propWorld) lookup(s *propSub) (*shard, *subscriber) {
	sd := w.h.shardFor(s.tok)
	sd.mu.Lock()
	defer sd.mu.Unlock()
	return sd, sd.subs[s.tok]
}

func (w *propWorld) attach(s *propSub) {
	c := newPropConn()
	_, sub := w.lookup(s)
	if refused := sub != nil && sub.evicted; !refused && w.rng.Intn(8) == 0 {
		c.set(true, false) // stalled from the start: even its stream header blocks
	}
	// A refusal (evicted token) is a legitimate outcome, not a failure.
	if err := w.h.AttachJoined(c, core.Join{StreamID: w.h.cfg.StreamID, Token: s.tok}); err == nil {
		s.conns = append(s.conns, c)
	}
}

func (w *propWorld) step() string {
	h, rng := w.h, w.rng
	subs := w.live()
	pick := func() *propSub { return subs[rng.Intn(len(subs))] }
	payload := make([]byte, h.cfg.Stream.PayloadSize)
	switch r := rng.Intn(100); {
	case r < 30 || len(subs) == 0 && r < 60:
		// A burst of ticks, now and then across a gap in the source —
		// sometimes one wider than any window.
		for n := 1 + rng.Intn(6); n > 0; n-- {
			switch rng.Intn(12) {
			case 0:
				w.seq += int64(1 + rng.Intn(4))
			case 1:
				if rng.Intn(4) == 0 {
					w.seq += h.ring.size() + int64(rng.Intn(8))
				}
			}
			// Most ticks are the hub's own; some leave out the kick, so the
			// paths they woke stay queued — and are the next tick's backlog —
			// until something else puts a worker on them.
			if rng.Intn(4) > 0 {
				if !h.PublishAt(w.seq, w.seq, payload) {
					w.t.Fatalf("PublishAt(%d) refused", w.seq)
				}
			} else {
				w.tickUnserved(payload)
			}
			w.seq++
			w.check("tick") // as the tick left things, workers under way or not
			if rng.Intn(3) == 0 {
				w.kick()
				w.settle() // some bursts outrun the workers, some do not
			}
		}
		w.kick()
		return "publish burst"
	case r < 38 || len(subs) == 0:
		if len(subs) >= 12 {
			return "attach (full)"
		}
		s := &propSub{tok: newToken(w.t)}
		w.subs = append(w.subs, s)
		w.attach(s)
		return "attach subscriber"
	case r < 46:
		w.attach(pick()) // a second path, or a re-attach within the grace
		return "attach path"
	case r < 58:
		s := pick()
		s.conns[rng.Intn(len(s.conns))].set(true, false)
		return "stall"
	case r < 72:
		s := pick()
		s.conns[rng.Intn(len(s.conns))].set(false, false)
		return "unstall"
	case r < 80:
		// The peer goes away; the hub finds out at the path's next write.
		s := pick()
		s.conns[rng.Intn(len(s.conns))].Close()
		return "path death"
	case r < 84:
		// Let a re-attach grace run out.
		for _, s := range subs {
			sd := h.shardFor(s.tok)
			sd.mu.Lock()
			sub := sd.subs[s.tok]
			orphan := sub != nil && len(sub.links) == 0 && !sub.evicted
			sd.mu.Unlock()
			if orphan {
				waitFor(w.t, "the orphan's grace to expire", func() bool { return !h.HasSubscriber(s.tok) })
				return "grace expiry"
			}
		}
		return "grace expiry (no orphan)"
	case r < 90:
		// One governor step by hand on whoever holds something.
		s := pick()
		if sd, sub := w.lookup(s); sub != nil {
			h.govMu.Lock()
			sd.mu.Lock()
			if held := sd.heldLocked(sub, h.ring.headSeq()); held > 0 && !sub.evicted {
				sd.shedLocked(sub, h.ring.headSeq(), held)
			}
			sd.mu.Unlock()
			h.govMu.Unlock()
		}
		return "shed"
	case r < 93:
		s := pick()
		if sd, sub := w.lookup(s); sub != nil {
			sd.mu.Lock()
			sd.evictLocked(sub)
			sd.mu.Unlock()
		}
		return "evict"
	default:
		// Fetch by hand for the subscriber nothing serves.
		sd := w.manual.shard
		if b := popBatch(sd, w.manual, nil); b != nil {
			h.releaseBatch(b)
			returnBatch(sd, b)
		}
		return "pop"
	}
}

func TestMaintainedStateMatchesScan(t *testing.T) {
	for _, tc := range []struct {
		policy Policy
		seed   int64
	}{{DropOldest, 1}, {DropOldest, 2}, {Evict, 3}, {DropOldest, 4}, {Evict, 5}} {
		tc := tc
		t.Run(fmt.Sprintf("%s/seed %d", tc.policy, tc.seed), func(t *testing.T) {
			t.Parallel()
			h := newExternalHub(t, Config{
				Shards:        2,
				LagWindow:     64,
				Policy:        tc.policy,
				ResendWindow:  8,
				ReattachGrace: 60 * time.Millisecond,
				MaxBytes:      3000, // the ring's 64 payloads are 2048: a few subscribers far behind cross it
				PoisonPool:    true,
			})
			defer h.Close()
			w := &propWorld{t: t, h: h, rng: rand.New(rand.NewSource(tc.seed)), steps: map[string]int{}}
			w.manual = &subscriber{token: newToken(t), window: h.cfg.LagWindow}
			w.manual.shard = h.shardFor(w.manual.token)
			addSub(w.manual.shard, w.manual)
			for i := 0; i < 400 && !t.Failed(); i++ {
				step := w.step()
				w.settle()
				w.nsteps++
				w.steps[step]++
				w.check(step)
			}
			if w.unserved == 0 || w.backlogged == 0 {
				t.Errorf("the checks saw %d shard states with unserved woken paths and %d with a backlog: the walk's woken and ready branches went unchecked", w.unserved, w.backlogged)
			}
			t.Logf("steps: %v; %d unserved and %d backlogged shard states checked; hub: %d sent, %d dropped, %d evicted, %d shed, %d resent, %d reattached",
				w.steps, w.unserved, w.backlogged, h.totalSent.Load(), h.totalDropped.Load(), h.evictedCount.Load(), h.shedCount.Load(),
				h.totalResent.Load(), h.reattached.Load())
			for _, s := range w.subs {
				for _, c := range s.conns {
					c.Close()
				}
			}
			if ps := h.PoolCheck(); ps.DoublePuts != 0 || ps.PoisonTrips != 0 {
				t.Fatalf("pool integrity violated: %+v", ps)
			}
		})
	}
}
