package hub_test

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dmpstream/internal/hub"
	"dmpstream/internal/registry"
	"dmpstream/internal/wire"
)

// The accept loop is written once (hub.Acceptor) and served by a Hub and a
// Registry; every test here runs against both.

// served is one owner of the accept loop serving one stream.
type served struct {
	serve func(net.Listener) error
	close func()
	stats func() (handshaking int, retries, rejected int64)
}

// owners open a hub and a registry; each lets hub.DefaultHandshakeLimit
// handshakes sit in the join at once.
var owners = []struct {
	name string
	open func(t *testing.T, id string, joinTimeout time.Duration) served
}{
	{"hub", func(t *testing.T, id string, joinTimeout time.Duration) served {
		h, err := hub.New(hub.Config{
			Stream:      wire.Config{Mu: 200, PayloadSize: 32, Count: 1 << 30},
			StreamID:    id,
			JoinTimeout: joinTimeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Close)
		return served{h.Serve, h.Close, func() (int, int64, int64) {
			st := h.Stats()
			return st.Handshaking, st.AcceptRetries, st.Rejected
		}}
	}},
	{"registry", func(t *testing.T, id string, joinTimeout time.Duration) served {
		r, err := registry.New(registry.Config{
			Hub:         hub.Config{Stream: wire.Config{Mu: 200, PayloadSize: 32, Count: 1 << 30}},
			JoinTimeout: joinTimeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		if _, err := r.Create(id); err != nil {
			t.Fatal(err)
		}
		return served{r.Serve, r.Close, func() (int, int64, int64) {
			st := r.Stats()
			return st.Handshaking, st.AcceptRetries, st.Rejected
		}}
	}},
}

// join dials addr, joins stream id with a fresh token and returns the
// handshake's outcome: nil once the stream header arrived.
func join(t *testing.T, addr, id string) error {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tok, err := wire.NewToken()
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteJoin(c, wire.Join{StreamID: id, Token: tok}); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, _, err = wire.ReadStreamHeader(c)
	return err
}

// waitFor polls pred until it holds or five seconds pass.
func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !pred(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// listen opens a loopback listener; Close cuts it.
func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// tempErr mimics the temporary net.Error an accept storm (EMFILE) raises.
type tempErr struct{}

func (tempErr) Error() string   { return "accept: too many open files (simulated)" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

// flakyListener fails its first `fails` Accept calls with a temporary
// error, then behaves like the wrapped listener.
type flakyListener struct {
	net.Listener
	fails atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, tempErr{}
	}
	return l.Listener.Accept()
}

// TestHubSlowlorisJoin: connections that never send their join occupy
// handshake slots only until JoinTimeout; while the slots are full, Serve
// sheds newcomers with a server-full reject, and once the deadline cuts
// the stallers a well-behaved join is admitted again.
func TestHubSlowlorisJoin(t *testing.T) {
	for _, o := range owners {
		t.Run(o.name, func(t *testing.T) {
			t.Parallel()
			s := o.open(t, "slow", 300*time.Millisecond)
			ln := listen(t)
			go s.serve(ln)
			addr := ln.Addr().String()
			handshaking := func() int { n, _, _ := s.stats(); return n }

			// Silent connections fill every handshake slot.
			var stallers []net.Conn
			for i := 0; i < hub.DefaultHandshakeLimit; i++ {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				stallers = append(stallers, c)
			}
			waitFor(t, "every handshake slot occupied", func() bool { return handshaking() == hub.DefaultHandshakeLimit })

			// The overflow connection is shed immediately — before any join
			// bytes.
			over, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer over.Close()
			over.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, _, err := wire.ReadStreamHeader(over); !errors.Is(err, wire.ErrServerFull) {
				t.Fatalf("overflow conn: %v, want ErrServerFull", err)
			}

			// JoinTimeout cuts the stallers: their reads fail (no reject frame
			// is owed to a connection that never spoke the protocol).
			for i, c := range stallers {
				c.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, _, err := wire.ReadStreamHeader(c); err == nil {
					t.Fatalf("staller %d got a stream header", i)
				} else if errors.Is(err, wire.ErrRejected) {
					t.Fatalf("staller %d got a courtesy reject: %v", i, err)
				}
			}
			waitFor(t, "handshake slots freed", func() bool { return handshaking() == 0 })

			// With the slots free, a prompt join is admitted again.
			if err := join(t, addr, "slow"); err != nil {
				t.Fatalf("prompt join after the stallers: %v", err)
			}
			if _, _, rejected := s.stats(); rejected != 1 {
				t.Fatalf("Rejected = %d, want 1 (the overflow conn)", rejected)
			}
		})
	}
}

// TestHubServeAcceptBackoff: temporary accept errors must not tear Serve
// down — the loop backs off, retries, and keeps admitting.
func TestHubServeAcceptBackoff(t *testing.T) {
	for _, o := range owners {
		t.Run(o.name, func(t *testing.T) {
			t.Parallel()
			const fails = 3
			s := o.open(t, "flaky", 0)
			ln := listen(t)
			fl := &flakyListener{Listener: ln}
			fl.fails.Store(fails)
			serveDone := make(chan error, 1)
			go func() { serveDone <- s.serve(fl) }()

			// The join only succeeds once Serve has survived every simulated
			// accept failure.
			if err := join(t, ln.Addr().String(), "flaky"); err != nil {
				t.Fatalf("join after the accept failures: %v", err)
			}
			if _, retries, _ := s.stats(); retries != fails {
				t.Fatalf("AcceptRetries = %d, want %d", retries, fails)
			}
			s.close()
			if err := <-serveDone; err != nil {
				t.Fatalf("Serve: %v", err)
			}
		})
	}
}

// TestAcceptCloseCutsBackoff: while Serve waits out its longest, one-second
// backoff on a listener that only ever fails temporarily, Close makes Serve
// return at once.
func TestAcceptCloseCutsBackoff(t *testing.T) {
	for _, o := range owners {
		t.Run(o.name, func(t *testing.T) {
			t.Parallel()
			s := o.open(t, "storm", 0)
			fl := &flakyListener{Listener: listen(t)}
			fl.fails.Store(1 << 30)
			serveDone := make(chan error, 1)
			go func() { serveDone <- s.serve(fl) }()

			// Retries 1..8 wait 5 ms doubling to 640 ms; the ninth waits the
			// capped second.
			waitFor(t, "the one-second backoff", func() bool { _, retries, _ := s.stats(); return retries >= 9 })
			closed := time.Now()
			s.close()
			select {
			case err := <-serveDone:
				if err != nil {
					t.Fatalf("Serve: %v", err)
				}
				if d := time.Since(closed); d > 100*time.Millisecond {
					t.Fatalf("Serve returned %v after Close, want within 100ms", d)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Serve still in its backoff after Close")
			}
		})
	}
}
