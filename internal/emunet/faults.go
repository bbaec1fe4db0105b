// Fault injection: deterministic mid-stream path failures.
//
// The relay already models *degradation* (rate limits, delay, congestion
// episodes); this file adds *failure*. Three primitives cover the ways a
// real path dies:
//
//   - Drop: every live connection through the relay is reset (RST), as when
//     a NAT entry expires or a middlebox sends a reset. Readers and writers
//     on both ends fail immediately. The relay keeps listening, so a client
//     that redials gets a fresh connection.
//   - Stall: the relay blackholes traffic — connections stay open but no
//     byte moves in either direction until Unstall. This is the silent
//     failure mode (a routing flap, a dead wireless link) that only
//     timeouts can detect.
//   - Sever: every live connection is closed cleanly (FIN), as when the far
//     host shuts down gracefully.
//
// A Timeline schedules these primitives at fixed offsets from its start, so
// a failure scenario is a value, not a hand-written sleep sequence — the
// same script replayed against the same seeds reproduces the same run.
package emunet

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"
)

// FaultKind selects one fault primitive within a FaultEvent.
type FaultKind int

const (
	// FaultDrop resets (RST) every connection currently through the relay.
	FaultDrop FaultKind = iota
	// FaultStall blackholes the relay: connections stay open, bytes stop.
	FaultStall
	// FaultUnstall lifts a FaultStall.
	FaultUnstall
	// FaultSever closes (FIN) every connection currently through the relay.
	FaultSever
)

func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultStall:
		return "stall"
	case FaultUnstall:
		return "unstall"
	case FaultSever:
		return "sever"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// FaultEvent is one scheduled fault: Kind fires At after the timeline starts.
type FaultEvent struct {
	At   time.Duration
	Kind FaultKind
}

// Drop resets every connection currently relayed: SO_LINGER is zeroed so the
// close emits a TCP RST, the abrupt death a sender sees as "connection reset
// by peer". The listener keeps accepting, so redials establish fresh paths.
func (r *Relay) Drop() {
	for _, c := range r.liveConns() {
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.SetLinger(0)
		}
		_ = c.Close()
	}
}

// Sever closes every connection currently relayed with a normal FIN. Like
// Drop, the listener stays up for redials.
func (r *Relay) Sever() {
	for _, c := range r.liveConns() {
		_ = c.Close()
	}
}

// Stall blackholes the relay: both directions' writers park before their
// next write and no byte moves until Unstall. Connections stay open — the peers
// see silence, not an error, which is exactly what write-stall timeouts and
// health state machines exist to detect. Stall is idempotent.
func (r *Relay) Stall() {
	r.mu.Lock()
	if r.stallCh == nil {
		r.stallCh = make(chan struct{})
	}
	r.mu.Unlock()
}

// Unstall lifts a Stall; parked writers resume immediately. Unstalling a relay
// that is not stalled is a no-op.
func (r *Relay) Unstall() {
	r.mu.Lock()
	if r.stallCh != nil {
		close(r.stallCh)
		r.stallCh = nil
	}
	r.mu.Unlock()
}

// Stalled reports whether the relay is currently blackholing traffic.
func (r *Relay) Stalled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stallCh != nil
}

// liveConns snapshots the current relay-side sockets.
func (r *Relay) liveConns() []net.Conn {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]net.Conn, 0, len(r.conns))
	for c := range r.conns {
		out = append(out, c)
	}
	return out
}

// waitOpen blocks while the relay is stalled. It returns false when the
// relay closed while waiting, true once traffic may flow.
func (r *Relay) waitOpen() bool {
	for {
		r.mu.Lock()
		ch := r.stallCh
		closed := r.closed
		r.mu.Unlock()
		if closed {
			return false
		}
		if ch == nil {
			return true
		}
		select {
		case <-ch: // unstalled
		case <-r.done: // relay closed mid-stall
			return false
		}
	}
}

// Timeline is a running fault schedule; Stop cancels pending events and
// joins the scheduler goroutine.
type Timeline struct {
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// Schedule starts firing the given fault events at their offsets from now.
// Events run in At order regardless of slice order; equal offsets fire in
// slice order. The returned Timeline's Stop cancels anything still pending.
func (r *Relay) Schedule(events []FaultEvent) *Timeline {
	evs := make([]FaultEvent, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	tl := &Timeline{stop: make(chan struct{})}
	tl.wg.Add(1)
	go func() {
		defer tl.wg.Done()
		base := time.Now()
		for _, ev := range evs {
			// Drift-free: each event is scheduled against the timeline start,
			// not the previous event's actual firing time.
			t := time.NewTimer(time.Until(base.Add(ev.At)))
			select {
			case <-t.C:
			case <-tl.stop:
				t.Stop()
				return
			case <-r.done:
				t.Stop()
				return
			}
			switch ev.Kind {
			case FaultDrop:
				r.Drop()
			case FaultStall:
				r.Stall()
			case FaultUnstall:
				r.Unstall()
			case FaultSever:
				r.Sever()
			}
		}
	}()
	return tl
}

// Stop cancels pending events and joins the scheduler. Events already fired
// are not undone (in particular, a Stall stays in effect). Idempotent.
func (tl *Timeline) Stop() {
	tl.once.Do(func() { close(tl.stop) })
	tl.wg.Wait()
}

// ParseFaultScript parses a comma-separated fault timeline of the form
//
//	"drop@5s,stall@7s,unstall@9s,sever@12s"
//
// into events for Relay.Schedule. Whitespace around entries is ignored;
// offsets use Go duration syntax and must not be negative.
func ParseFaultScript(s string) ([]FaultEvent, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []FaultEvent
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		kind, at, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("emunet: fault %q: want kind@offset", part)
		}
		var k FaultKind
		switch kind {
		case "drop":
			k = FaultDrop
		case "stall":
			k = FaultStall
		case "unstall":
			k = FaultUnstall
		case "sever":
			k = FaultSever
		default:
			return nil, fmt.Errorf("emunet: unknown fault kind %q", kind)
		}
		d, err := time.ParseDuration(at)
		if err != nil {
			return nil, fmt.Errorf("emunet: fault %q: %w", part, err)
		}
		if d < 0 {
			return nil, fmt.Errorf("emunet: fault %q: negative offset", part)
		}
		out = append(out, FaultEvent{At: d, Kind: k})
	}
	return out, nil
}

// FormatFaultScript renders events in the syntax ParseFaultScript accepts.
func FormatFaultScript(events []FaultEvent) string {
	parts := make([]string, len(events))
	for i, ev := range events {
		parts[i] = fmt.Sprintf("%s@%s", ev.Kind, ev.At)
	}
	return strings.Join(parts, ",")
}
