package hub

import (
	"fmt"
	"testing"

	"dmpstream/internal/core"
)

// The reference side of the maintained state: full scans over sd.subs, the
// way the hub itself accounted before the shards kept running totals and
// lists. Tests compare the two; no non-test code ranges over the
// subscribers to account for them.

// addSub registers a hand-built subscriber with no path: it can be behind
// and nothing serves it, which is what the shard's orphans are.
func addSub(sd *shard, sub *subscriber) {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	sd.registerLocked(sub)
	sd.orphanLocked(sub)
}

// setResend replaces a hand-built subscriber's resend queue, keeping the
// shard's running total.
func setResend(sd *shard, sub *subscriber, resend []int64) {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	sd.resendSum += int64(len(resend) - len(sub.resend))
	sub.resend = resend
}

// scanned is what a full scan of one shard's subscribers finds: the
// running totals as they should be, the oldest sequence needed and the
// most any subscriber holds.
type scanned struct {
	nsubs, curSum, resendSum int64
	need, worstHeld          int64
}

// scanShardLocked visits every subscriber of sd, the way accountLocked did
// before the shard kept totals and lists. Caller holds sd.mu.
func scanShardLocked(sd *shard, head, tail int64) scanned {
	sc := scanned{need: head}
	for _, sub := range sd.subs {
		if sub.evicted {
			continue
		}
		sc.nsubs++
		sc.curSum += sub.cur
		sc.resendSum += int64(len(sub.resend))
		need := sub.cur
		if len(sub.resend) > 0 && sub.resend[0] < need {
			need = sub.resend[0]
		}
		sc.need = min(sc.need, max(need, tail))
		sc.worstHeld = max(sc.worstHeld, sd.heldLocked(sub, head))
	}
	return sc
}

// scanAccount is accountLocked as a full scan: every subscriber of every
// shard is visited. Caller holds h.govMu.
func scanAccount(h *Hub, head int64) (total, minNeed, worstHeld int64) {
	tail := max(head-h.ring.size(), 0)
	minNeed = head
	var hdrFrames int64
	for _, sd := range h.shards {
		sd.mu.Lock()
		sc := scanShardLocked(sd, head, tail)
		sd.mu.Unlock()
		minNeed, worstHeld = min(minNeed, sc.need), max(worstHeld, sc.worstHeld)
		hdrFrames += sc.nsubs*head - sc.curSum + sc.resendSum
	}
	total = (head-minNeed)*int64(h.cfg.Stream.PayloadSize) + hdrFrames*core.FrameHeaderSize
	return total, minNeed, worstHeld
}

// placement says where a shard's attached paths are: parked, queued for a
// worker (ready or woken), or held by one.
type placement struct{ parked, queued, held int }

// placed counts the shard's lists and fails the test unless they hold
// every attached path exactly once, with held flags to match.
func placed(t testing.TB, sd *shard) placement {
	t.Helper()
	sd.mu.Lock()
	defer sd.mu.Unlock()
	pl, err := placedLocked(sd)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func placedLocked(sd *shard) (placement, error) {
	var pl placement
	seen := make(map[*path]bool)
	walk := func(name string, l *pathList, held bool, n *int) error {
		for p := l.front(); p != nil; p = l.after(p) {
			if seen[p] {
				return fmt.Errorf("path %p is on two lists (second: %s)", p, name)
			}
			seen[p] = true
			if p.held != held {
				return fmt.Errorf("path %p on the %s list has held = %v", p, name, p.held)
			}
			if p.next.prev != p || p.prev.next != p {
				return fmt.Errorf("path %p on the %s list: links do not close", p, name)
			}
			*n++
		}
		return nil
	}
	for _, l := range []struct {
		name string
		list *pathList
		held bool
		n    *int
	}{
		{"parked", &sd.parked, false, &pl.parked},
		{"woken", &sd.woken, false, &pl.queued},
		{"ready", &sd.ready, false, &pl.queued},
		{"held", &sd.held, true, &pl.held},
	} {
		if err := walk(l.name, l.list, l.held, l.n); err != nil {
			return pl, err
		}
	}
	attached := 0
	for _, sub := range sd.subs {
		for _, p := range sub.links {
			attached++
			if !seen[p] {
				return pl, fmt.Errorf("attached path %p of %s is on no list", p, sub.token)
			}
		}
	}
	if attached != len(seen) || attached != sd.live {
		return pl, fmt.Errorf("%d paths attached, %d on the lists, live says %d", attached, len(seen), sd.live)
	}
	return pl, nil
}
