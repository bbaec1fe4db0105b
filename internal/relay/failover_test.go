package relay

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dmpstream/internal/core"
	"dmpstream/internal/emunet"
)

// TestRelayUpstreamFailover is the deterministic failover acceptance
// test: a relay ranked [primary, secondary] streams through the primary
// until a scripted emunet sever kills it, re-attaches to the secondary
// within the origin's grace presenting the same token, and the origin
// replays the dead path's resend window — the leaf's stream stays
// byte-exact with zero duplicate deliveries.
func TestRelayUpstreamFailover(t *testing.T) {
	origin, oln := newOrigin(t, "live", 400.0, 100, 0, 0) // endless, default grace
	defer origin.Close()
	defer oln.Close()

	primary, err := emunet.Listen("127.0.0.1:0", oln.Addr().String(), emunet.PathConfig{
		Delay: 2 * time.Millisecond, Downstream: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	secondary, err := emunet.Listen("127.0.0.1:0", oln.Addr().String(), emunet.PathConfig{
		Delay: 2 * time.Millisecond, Downstream: true, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer secondary.Close()

	r, rln := newRelay(t, Config{
		Upstreams:   []string{primary.Addr(), secondary.Addr()},
		StreamID:    "live",
		Paths:       1, // one upstream path: the failover is the whole story
		OrphanGrace: 5 * time.Second,
	})
	defer r.Close()
	defer rln.Close()

	select {
	case <-r.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("relay never saw the upstream header")
	}
	if st := r.Stats(); st.Candidates[0] != 0 {
		t.Fatalf("relay started on candidate %d, want the primary (0)", st.Candidates[0])
	}

	var chk leafCheck
	leaf := newLeaf(t, rln.Addr().String(), "live", &chk)
	var tr *core.Trace
	var leafErr error
	leafDone := make(chan struct{})
	go func() {
		defer close(leafDone)
		tr, leafErr = leaf.Run()
	}()

	// The scripted fault: sever every connection through the primary 400ms
	// in. The relay's path dies, rotates to the secondary and re-attaches
	// with its original token inside the origin's re-attach grace.
	tl := primary.Schedule([]emunet.FaultEvent{{At: 400 * time.Millisecond, Kind: emunet.FaultSever}})
	defer tl.Stop()

	time.Sleep(900 * time.Millisecond) // 400ms on primary + ~500ms on secondary
	origin.Stop()                      // graceful end: end markers cascade down

	select {
	case <-leafDone:
	case <-time.After(10 * time.Second):
		t.Fatal("leaf still running after end-of-stream")
	}
	if leafErr != nil {
		t.Fatalf("leaf: %v", leafErr)
	}
	if tr.Expected <= 0 || int64(len(tr.Arrivals)) != tr.Expected {
		t.Fatalf("leaf: %d of %d packets — failover lost stream bytes", len(tr.Arrivals), tr.Expected)
	}
	if tr.Duplicates != 0 {
		t.Fatalf("leaf saw %d duplicate deliveries — the relay republished a replayed packet", tr.Duplicates)
	}
	chk.mu.Lock()
	rec, bad := chk.received, chk.badBytes
	chk.mu.Unlock()
	if rec != tr.Expected || bad != 0 {
		t.Fatalf("leaf verified %d/%d packets, %d byte-mismatched", rec, tr.Expected, bad)
	}

	st := r.Stats()
	if st.Failovers < 1 {
		t.Fatalf("relay recorded %d failovers, want >= 1", st.Failovers)
	}
	if st.Candidates[0] != 1 {
		t.Fatalf("relay path on candidate %d, want the secondary (1)", st.Candidates[0])
	}
	if st.State != StateEnded {
		t.Fatalf("relay state %v, want %v", st.State, StateEnded)
	}
	if st.GapSkips != 0 {
		t.Fatalf("relay abandoned %d sequences — resend replay did not conserve the stream", st.GapSkips)
	}

	ost := origin.Stats()
	if ost.Reattached < 1 {
		t.Fatalf("origin recorded %d re-attaches, want >= 1 (token not preserved?)", ost.Reattached)
	}
	// The dead path's resend window replays on the re-attached path; the
	// forwarder's dedup (late drops) swallows the already-forwarded part.
	if ost.Resent < 1 {
		t.Fatalf("origin resent %d packets, want >= 1", ost.Resent)
	}
}

// TestRelayFailoverRoundRobin: with every candidate down, the relay walks
// primary → secondary → back to primary, one rotation per failed attempt,
// with capped backoff between — it never camps on a dead candidate.
func TestRelayFailoverRoundRobin(t *testing.T) {
	deadA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrA := deadA.Addr().String()
	deadA.Close()
	deadB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB := deadB.Addr().String()
	deadB.Close()

	r, err := New(Config{
		Upstreams:   []string{addrA, addrB},
		StreamID:    "live",
		Paths:       1,
		OrphanGrace: 10 * time.Second, // not under test here
		Redial:      core.RedialPolicy{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := r.Stats(); st.Failovers >= 4 {
			break // both candidates tried at least twice: a full cycle and more
		}
		if time.Now().After(deadline) {
			t.Fatalf("relay failovers stuck at %d, want >= 4", r.Stats().Failovers)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRelayFailoverLogsNextCandidate: the path-down log line names the
// candidate the path rotated to, the one Stats reports, not the path index.
func TestRelayFailoverLogsNextCandidate(t *testing.T) {
	origin, oln := newOrigin(t, "live", 200.0, 16, 0, 0)
	defer origin.Close()
	defer oln.Close()
	var mu sync.Mutex
	var lines []string
	r, rln := newRelay(t, Config{
		Upstreams:   []string{oln.Addr().String(), oln.Addr().String()},
		StreamID:    "live",
		Paths:       1,
		OrphanGrace: 5 * time.Second,
		Logf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	defer r.Close()
	defer rln.Close()
	select {
	case <-r.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("relay never published a packet")
	}

	for _, c := range r.fwd.Conns() { // cut path 0
		_ = c.Close()
	}
	var logged int
	waitFor(t, "the path-down log line", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, l := range lines {
			if strings.HasPrefix(l, "relay: path 0 down") {
				_, err := fmt.Sscanf(l[strings.LastIndex(l, "next candidate"):], "next candidate %d", &logged)
				return err == nil
			}
		}
		return false
	})
	if st := r.Stats(); logged != st.Candidates[0] || st.Failovers != 1 {
		t.Fatalf("logged next candidate %d; path 0 is on candidate %d after %d failovers, want 1", logged, st.Candidates[0], st.Failovers)
	}
}
