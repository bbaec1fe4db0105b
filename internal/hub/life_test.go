package hub

import (
	"fmt"
	"strings"
	"testing"

	"dmpstream/internal/wire"
)

// node is one point of the lifecycle enumeration: a subscription's
// standing and whether its token is registered. Once removed the token is
// a fresh one again, standing only in the hub's facts, and banned if the
// subscription was evicted with the grace on and went before a grace ended.
type node struct {
	s      life
	reg    bool
	banned bool
}

// step is one move out of a node: an event verdict judges, or a change of
// what judgeLocked reads that no event brings (a publish, a drain, Close
// starting).
type step struct {
	label string
	ev    *event // nil for a change of the facts
	next  node
}

// steps lists every move out of n for one subscription of at most two
// paths.
func steps(n node) []step {
	var out []step
	judge := func(label string, ev event) {
		s, act, _ := verdict(n.s, ev)
		next := node{s: s, reg: n.reg || act&actAdmit != 0}
		if act&actRemove != 0 {
			next = node{s: life{sealed: s.sealed, closed: s.closed, waits: s.waits},
				banned: n.banned || s.evicted && s.waits && ev.kind != evGrace}
		}
		out = append(out, step{label, &ev, next})
	}
	fact := func(label string, s life) { out = append(out, step{label, nil, node{s, n.reg, n.banned}}) }
	s := n.s
	if !n.reg {
		judge("join", event{kind: evJoin})
		judge("join draining", event{kind: evJoin, draining: true})
		judge("join at MaxSubscribers", event{kind: evJoin, subsFull: true})
		judge("join at MaxConns", event{kind: evJoin, connsFull: true})
	} else {
		if s.paths < 2 {
			judge("re-attach", event{kind: evReattach})
			judge("re-attach at MaxConns", event{kind: evReattach, connsFull: true})
		}
		if s.paths > 0 {
			judge("death with a record", event{kind: evDeath, recent: []int64{1}})
			judge("death with no record", event{kind: evDeath})
			judge("end", event{kind: evEnd})
		}
		judge("grace fired", event{kind: evGrace})
		judge("seal", event{kind: evSeal})
		judge("evict", event{kind: evEvict})
		if s.closed && s.paths == 0 {
			judge("close", event{kind: evClose})
		}
		if !s.sealed && !s.evicted && !s.owed {
			s := s
			s.owed = true
			fact("publish", s)
		}
		if s.paths > 0 && s.owed {
			s := s
			s.owed = false
			fact("drain", s)
		}
	}
	if !n.reg && !s.sealed {
		s := s
		s.sealed = true
		fact("seal", s)
	}
	if !s.closed {
		s := s
		s.closed = true
		fact("Close starts", s)
	}
	return out
}

// checkStep returns which of the lifecycle's properties the move from n
// breaks, "" if none.
func checkStep(n node, st step) string {
	next := st.next
	if ev := st.ev; ev != nil {
		after, act, _ := verdict(n.s, *ev)
		if act&actRemove != 0 && n.s.waits && !n.s.closed && !after.evicted && (n.s.owed || after.owed) &&
			ev.kind != evGrace && ev.kind != evClose {
			return "1: an owed subscription not evicted was removed before its grace fired or Close ran"
		}
		if act&actAdmit != 0 && (n.reg && n.s.evicted || n.banned) {
			return "2: an evicted token was re-admitted"
		}
		if act&actAdmit != 0 && ev.kind == evJoin && n.s.sealed {
			return "4: a fresh token was admitted after the seal"
		}
	}
	if next.reg && next.s.sealed && !next.s.owed && next.s.paths == 0 {
		return "3: a sealed subscription owed nothing, with no path, outlived the event"
	}
	if next.reg && next.s.paths == 0 && !next.s.armed {
		return "5: a subscription with no path has no grace counting down to its removal"
	}
	if next.s.paths < 0 || next.s.armed && next.s.paths > 0 {
		return fmt.Sprintf("standing out of range: %+v", next.s)
	}
	return ""
}

// enumerate explores every move sequence of one subscription of two paths
// to the given depth, breadth first, visiting each standing once, and
// returns how many standings and moves it saw and the first broken
// property with the moves that lead to it.
func enumerate(depth int) (standings, moves int, broken string) {
	type via struct {
		from  node
		label string
	}
	seen := map[node]via{}
	var frontier []node
	for _, waits := range []bool{true, false} {
		n := node{s: life{waits: waits}}
		seen[n] = via{}
		frontier = append(frontier, n)
	}
	trace := func(n node) string {
		var labels []string
		for v := seen[n]; v.label != ""; v = seen[v.from] {
			labels = append([]string{v.label}, labels...)
		}
		return strings.Join(labels, " → ")
	}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []node
		for _, n := range frontier {
			for _, st := range steps(n) {
				moves++
				if why := checkStep(n, st); why != "" {
					prefix := trace(n)
					if prefix != "" {
						prefix += " → "
					}
					return len(seen), moves, fmt.Sprintf("property %s\n  moves: %s%s\n  from %+v to %+v",
						why, prefix, st.label, n, st.next)
				}
				if _, ok := seen[st.next]; !ok {
					seen[st.next] = via{n, st.label}
					next = append(next, st.next)
				}
			}
		}
		frontier = next
	}
	return len(seen), moves, ""
}

// TestVerdictExhaustive enumerates every sequence of eight moves of one
// subscription with two paths — joins and re-attaches (some at the caps),
// deaths with and without a record, ends, grace firings (stale ones too),
// seals, Close, evictions, and the publishes, drains and Close's start that
// change what the verdict reads — visiting each standing once (eight moves
// reach every standing there is), with the re-attach grace on and off, and
// checks after every move:
//  1. an owed subscription that was not evicted is not removed before its
//     grace fires or Close runs (with the grace on);
//  2. an evicted token is not admitted again before a grace ends: not
//     while it is registered, nor, with the grace on, once its
//     subscription went another way (with the grace off an evicted
//     subscription goes with its last path, and the hub forgets the token);
//  3. a sealed subscription that is owed nothing and has no path does not
//     outlive the event that left it so;
//  4. no fresh token is admitted after the seal;
//  5. a subscription with no path has its grace counting down, so it
//     leaves in time whatever else happens.
func TestVerdictExhaustive(t *testing.T) {
	standings, moves, broken := enumerate(8)
	if broken != "" {
		t.Fatal(broken)
	}
	t.Logf("%d standings, %d moves checked", standings, moves)
	if all, _, _ := enumerate(64); standings != all {
		t.Fatalf("eight moves reach %d standings, sixty-four reach %d", standings, all)
	}
}

// TestVerdictCodes pins the reject code of each refusal and that a fresh
// token's refusal registers nothing.
func TestVerdictCodes(t *testing.T) {
	owed := life{paths: 1, owed: true, waits: true}
	for _, tc := range []struct {
		name string
		s    life
		ev   event
		want wire.RejectCode
	}{
		{"fresh after the seal", life{sealed: true}, event{kind: evJoin}, wire.RejectStreamEnded},
		{"re-attach after Close", life{closed: true, owed: true}, event{kind: evReattach}, wire.RejectStreamEnded},
		{"re-attach owed nothing after the seal", life{sealed: true}, event{kind: evReattach}, wire.RejectStreamEnded},
		{"fresh while draining", life{}, event{kind: evJoin, draining: true}, wire.RejectDraining},
		{"fresh at MaxSubscribers", life{}, event{kind: evJoin, subsFull: true}, wire.RejectServerFull},
		{"re-attach at MaxConns", owed, event{kind: evReattach, connsFull: true}, wire.RejectServerFull},
		{"re-attach while draining", owed, event{kind: evReattach, draining: true, subsFull: true}, 0},
		{"evicted re-attach", life{evicted: true, armed: true, waits: true}, event{kind: evReattach}, wire.RejectEvicted},
		{"owed re-attach after the seal", life{sealed: true, owed: true, armed: true, waits: true}, event{kind: evReattach}, 0},
	} {
		_, act, code := verdict(tc.s, tc.ev)
		if code != tc.want || (code == 0) != (act == actAdmit) {
			t.Errorf("%s: code %d, action %b; want code %d and admitted %v", tc.name, code, act, tc.want, tc.want == 0)
		}
	}
}
