package hub

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dmpstream/internal/lockrank"
	"dmpstream/internal/wire"
)

// DefaultJoinTimeout bounds how long an accepted connection may take to
// present its join request before the accept loop gives up on it.
const DefaultJoinTimeout = 10 * time.Second

// DefaultHandshakeLimit caps how many accepted connections may sit in the
// join handshake concurrently. Beyond it, Serve sheds new connections with
// a server-full reject instead of queuing unbounded slowloris candidates.
const DefaultHandshakeLimit = 64

// rejectWriteTimeout bounds the courtesy reject-frame write so a refused
// client that never reads cannot pin a handshake goroutine.
const rejectWriteTimeout = 2 * time.Second

// maxAcceptBackoff caps the wait before retrying a temporary accept error.
const maxAcceptBackoff = time.Second

// Acceptor is the server end of the join handshake, written once for a Hub
// and a stream registry: the accept loop (Serve), the join read (Attach)
// and the typed reject (Reject). Its owner supplies two hooks — refuse,
// asked for every accepted connection and answering a non-zero code to
// turn it away at once, and route, which admits a connection whose join
// has been read (or refuses it with Reject). The loop retries temporary
// accept errors with capped backoff that Close cuts short, sheds
// connections past the handshake cap with a server-full reject, bounds the
// join read with the join timeout, and tracks the connections mid-handshake
// so Close can cut them.
type Acceptor struct {
	joinTimeout time.Duration
	limit       int
	closedErr   error
	refuse      func() wire.RejectCode
	route       func(conn net.Conn, j wire.Join) error

	stopCh chan struct{}  // closed by Close: ends a backoff wait
	wg     sync.WaitGroup // handshake goroutines
	closed atomic.Bool    // stored under mu, read lock-free

	mu      lockrank.Mutex
	lns     []net.Listener        // guarded by mu
	pending map[net.Conn]struct{} // guarded by mu; accepted conns mid-handshake

	retries  atomic.Int64 // temporary Accept errors retried with backoff
	rejected atomic.Int64 // reject frames written
	badJoins atomic.Int64 // handshakes Serve dropped for a failed join read
}

// NewAcceptor builds an accept loop: joins must arrive within joinTimeout
// (0 selects DefaultJoinTimeout), at most limit handshakes run at once (0
// selects DefaultHandshakeLimit), Serve returns closedErr once Close has
// run, and refuse (optional) and route are the owner's hooks.
func NewAcceptor(joinTimeout time.Duration, limit int, closedErr error,
	refuse func() wire.RejectCode, route func(conn net.Conn, j wire.Join) error) *Acceptor {
	if joinTimeout == 0 {
		joinTimeout = DefaultJoinTimeout
	}
	if limit == 0 {
		limit = DefaultHandshakeLimit
	}
	a := &Acceptor{
		joinTimeout: joinTimeout,
		limit:       limit,
		closedErr:   closedErr,
		refuse:      refuse,
		route:       route,
		stopCh:      make(chan struct{}),
		pending:     make(map[net.Conn]struct{}),
	}
	a.mu.Init(lockrank.Acceptor)
	return a
}

// Reject answers a refused join with the typed reject frame and closes the
// connection. The courtesy write gets a short deadline so a refused client
// that never reads cannot pin a goroutine. Every written reject is counted
// once in Rejected. It returns the typed error the client will see.
func (a *Acceptor) Reject(conn net.Conn, code wire.RejectCode) error {
	a.rejected.Add(1)
	conn.SetWriteDeadline(time.Now().Add(rejectWriteTimeout))
	_ = wire.WriteReject(conn, code)
	_ = conn.Close()
	return &wire.RejectError{Code: code}
}

// Attach reads conn's join request under the join timeout and routes it.
// It closes conn on any error; a connection that never spoke the protocol
// is owed no reject frame.
func (a *Acceptor) Attach(conn net.Conn) error {
	j, err := a.readJoin(conn)
	if err != nil {
		return err
	}
	return a.route(conn, j)
}

// readJoin reads conn's join request under the join timeout, closing conn
// if it fails.
func (a *Acceptor) readJoin(conn net.Conn) (wire.Join, error) {
	conn.SetReadDeadline(time.Now().Add(a.joinTimeout))
	j, err := wire.ReadJoin(conn)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		_ = conn.Close()
	}
	return j, err
}

// Serve accepts connections on ln and runs each one's handshake on its own
// goroutine. It returns nil once ln fails after Close (or after refuse
// started answering), and any other non-temporary accept error as is.
func (a *Acceptor) Serve(ln net.Listener) error {
	a.mu.Lock()
	closed := a.closed.Load()
	if !closed {
		a.lns = append(a.lns, ln)
	}
	a.mu.Unlock()
	if closed {
		_ = ln.Close()
		return a.closedErr
	}
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if a.closed.Load() || a.refused() != 0 {
				return nil
			}
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Temporary() {
				return err
			}
			// An accept storm that exhausts descriptors surfaces here as a
			// temporary error: hold the loop together and retry once some
			// in-flight connection retires a descriptor.
			a.retries.Add(1)
			backoff = min(max(2*backoff, 5*time.Millisecond), maxAcceptBackoff)
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-a.stopCh:
				t.Stop()
			}
			continue
		}
		backoff = 0
		if code := a.refused(); code != 0 {
			// The owner would refuse anyway: answer inline rather than spawn
			// a goroutine. The reject write is deadline-bounded.
			a.Reject(conn, code)
			continue
		}
		// The handshake goroutine is tracked and its conn registered so
		// Close can cut a client that stalls mid-handshake instead of
		// leaking the goroutine for up to the join timeout. Adding to wg
		// under mu with closed checked first keeps Add ordered before
		// Close's Wait.
		a.mu.Lock()
		if a.closed.Load() {
			a.mu.Unlock()
			_ = conn.Close()
			continue
		}
		if len(a.pending) >= a.limit {
			// Too many handshakes in flight — likely a slowloris herd. Shed
			// the newcomer; Reject writes under a deadline, so drop mu first.
			a.mu.Unlock()
			a.Reject(conn, wire.RejectServerFull)
			continue
		}
		a.pending[conn] = struct{}{}
		a.wg.Add(1)
		a.mu.Unlock()
		go a.handshake(conn)
	}
}

// handshake runs one accepted connection's join and forgets it.
func (a *Acceptor) handshake(conn net.Conn) {
	defer a.wg.Done()
	if j, err := a.readJoin(conn); err != nil {
		a.badJoins.Add(1)
	} else {
		_ = a.route(conn, j)
	}
	a.mu.Lock()
	delete(a.pending, conn)
	a.mu.Unlock()
}

func (a *Acceptor) refused() wire.RejectCode {
	if a.refuse == nil {
		return 0
	}
	return a.refuse()
}

// Close stops every Serve loop: listeners and mid-handshake connections are
// closed, a backoff wait ends, and Close returns once every handshake
// goroutine has. Idempotent.
func (a *Acceptor) Close() {
	a.mu.Lock()
	if !a.closed.Swap(true) {
		close(a.stopCh)
	}
	for _, ln := range a.lns {
		_ = ln.Close()
	}
	for c := range a.pending {
		_ = c.Close()
	}
	a.mu.Unlock()
	a.wg.Wait()
}

// Handshaking returns the connections still in the join handshake.
func (a *Acceptor) Handshaking() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pending)
}

// Counters returns the temporary accept errors retried, the reject frames
// written, and the handshakes Serve dropped for a failed join read.
func (a *Acceptor) Counters() (retries, rejected, badJoins int64) {
	return a.retries.Load(), a.rejected.Load(), a.badJoins.Load()
}
