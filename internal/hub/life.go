package hub

import "dmpstream/internal/wire"

// life is what the subscription lifecycle's rule, verdict, reads of one
// subscription. Only evicted and armed carry over from one event to the
// next, kept on the subscriber (armed as its grace countdown); judgeLocked
// reads the rest afresh for each.
type life struct {
	paths   int32 // live paths
	evicted bool  // cut off by the lag policy or the governor: its token is refused
	owed    bool  // packets behind its cursor or in its resend queue (owedLocked)
	sealed  bool  // the stream has ended (Stop)
	closed  bool  // the hub is force-closed (Close)
	waits   bool  // the hub keeps a subscription left with no path for a redial (ReattachGrace)
	armed   bool  // its re-attach grace is counting down
}

// event is what befalls a subscription, with the facts its verdict needs.
type event struct {
	kind eventKind
	// A join's admission facts: draining, and at MaxSubscribers or MaxConns.
	draining, subsFull, connsFull bool
	recent                        []int64 // a death's: what the path may not have delivered
}

type eventKind uint8

const (
	evJoin     eventKind = iota // a path presents a token no subscription holds
	evReattach                  // a path presents a registered subscription's token
	evDeath                     // a path failed: a write, its header or its end marker
	evEnd                       // a path retired cleanly: drained at the seal, removed, or torn down
	evGrace                     // the current re-attach grace ran out
	evSeal                      // the stream ended (Stop)
	evClose                     // Close, once every path has retired
	evEvict                     // the lag policy or the governor cuts the subscription off
)

// action is what a verdict has its shell carry out, in this order.
type action uint8

const (
	actAdmit  action = 1 << iota // attach the path, registering a fresh token's subscription first
	actCut                       // close its connections and take it out of the accounting
	actMerge                     // count an abnormal death and queue its record for resending
	actReady                     // queue the paths no worker holds: resends to serve, a teardown to go through
	actRemove                    // delete the subscription, stopping its grace
)

// verdict is the subscription lifecycle's one rule: the standing ev leaves
// a subscription at s in, what its shell carries out and, for a refused
// join, the reject code (RejectStreamEnded standing for the hub's end
// code). It reads nothing but its arguments. DESIGN.md §"Path lifecycle and
// failure resilience" tabulates it; TestVerdictExhaustive checks it.
func verdict(s life, ev event) (life, action, wire.RejectCode) {
	switch ev.kind {
	case evJoin, evReattach:
		// A fresh token asks for admission; re-attaches of live tokens are
		// exempt from the drain and the subscriber cap, so neither strands a
		// subscription that is only trying to heal a flapped path.
		fresh := ev.kind == evJoin
		switch {
		case s.closed || s.sealed && (fresh || !s.owed):
			return s, 0, wire.RejectStreamEnded
		case fresh && ev.draining:
			return s, 0, wire.RejectDraining
		case fresh && ev.subsFull || ev.connsFull:
			return s, 0, wire.RejectServerFull
		case s.evicted:
			return s, 0, wire.RejectEvicted
		}
		s.paths++
		s.armed = false
		return s, actAdmit, 0
	case evDeath, evEnd:
		s.paths--
		var act action
		if ev.kind == evDeath && !s.evicted && !s.closed {
			// Abnormal: what the path may not have delivered is owed again,
			// and the survivors serve it.
			act, s.owed = actMerge, s.owed || len(ev.recent) > 0
			if s.paths > 0 && len(ev.recent) > 0 {
				act |= actReady
			}
		}
		if s.paths > 0 {
			return s, act, 0
		}
		// The last path is gone: with the grace on, the subscription waits
		// for a redial while the stream runs or owes it. An evicted one
		// waits too, so its token stays refused until the grace ends, as an
		// evicted orphan's does; the sealed stream owes it nothing.
		if s.waits && !s.closed && (!s.sealed || s.owed) {
			s.armed = true
			return s, act, 0
		}
		return gone(s, act)
	case evGrace:
		if s.armed {
			return gone(s, 0)
		}
	case evSeal:
		if s.sealed = true; s.paths == 0 && !s.owed {
			return gone(s, 0)
		}
	case evClose:
		return gone(s, 0)
	case evEvict:
		if s.evicted {
			break
		}
		// An orphan keeps its grace, and a subscription with paths gets one
		// as its last retires, so its token is refused until the grace ends;
		// the sealed stream owes it nothing, so an orphan goes now.
		s.evicted, s.owed = true, false
		if s.paths == 0 && s.sealed {
			return gone(s, actCut)
		}
		return s, actCut | actReady, 0
	}
	return s, 0, 0
}

// gone is the verdict that removes the subscription after act.
func gone(s life, act action) (life, action, wire.RejectCode) {
	s.armed = false
	return s, act | actRemove, 0
}

// judgeLocked takes sub's verdict on ev, reading its standing now (a nil
// sub is a token no subscription holds), keeps what of the standing it
// leaves carries over (evicted, and armed by arming or stopping the grace:
// no other code does) and carries out all of it but the admission, which
// is admitLocked's. Caller holds sd.mu.
func (sd *shard) judgeLocked(sub *subscriber, ev event) (action, wire.RejectCode) {
	h := sd.h
	s := life{
		owed:   sd.owedLocked(sub),
		sealed: h.end.Load() >= 0,
		closed: h.closed.Load(),
		waits:  h.cfg.ReattachGrace > 0,
	}
	if sub != nil {
		s.paths, s.evicted, s.armed = int32(len(sub.links)), sub.evicted, sub.grace.Armed()
	}
	next, act, code := verdict(s, ev)
	if sub == nil {
		return act, code
	}
	sub.evicted = next.evicted
	if act&actCut != 0 {
		sd.uncountLocked(sub)
		h.evictedCount.Add(1)
		for _, p := range sub.links {
			_ = p.conn.Close() // a path out on a write sees that
		}
	}
	if act&actMerge != 0 {
		h.pathErrors.Add(1)
		sub.deaths++
		sub.deadPaths++
		if len(ev.recent) > 0 {
			sd.resendSum -= int64(len(sub.resend))
			sub.resend = mergeSeqs(sub.resend, ev.recent)
			sd.resendSum += int64(len(sub.resend))
		}
	}
	if act&actReady != 0 {
		sd.readyLocked(sub)
		sd.kickLocked(false)
	}
	if !next.armed {
		sub.grace.Stop()
	} else if sub.grace.Arm(h.clock, h.cfg.ReattachGrace, (*subscriber).graceExpired, sub) && !sub.evicted {
		sd.orphanLocked(sub) // an evicted one holds nothing, and is uncounted
	}
	if act&actRemove != 0 {
		sd.removeLocked(sub)
	}
	return act, code
}
