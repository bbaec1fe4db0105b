package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"time"

	"dmpstream/internal/wire"
)

// RedialPolicy says how a Client reacts when a path connection dies before
// the stream ends: wait a backoff delay, dial again, and re-attach the path.
// The zero value never redials — a dead path simply stays dead, which is the
// pre-resilience behavior.
type RedialPolicy struct {
	// Base is the delay before the first redial of a path. 0 disables
	// redialing entirely.
	Base time.Duration
	// Max caps the backoff delay; 0 means no cap.
	Max time.Duration
	// Multiplier grows the delay per consecutive failure (capped exponential
	// backoff). Values below 1 (including 0, the zero-value default) mean 2.
	Multiplier float64
	// Jitter is the fraction of each delay that is randomized: the actual
	// wait is uniform in [delay·(1−Jitter), delay]. 0 keeps delays exact;
	// it must lie in [0, 1] (see ValidateRedialPolicy).
	Jitter float64
	// Budget is the maximum number of redials per path; once spent, the path
	// gives up and its last error stands. 0 means unlimited.
	Budget int
	// Seed makes the jitter deterministic: path k draws from an RNG seeded
	// with Seed+k, so the same policy replays the same delays. Required for
	// reproducible failure experiments; has no effect when Jitter is 0.
	Seed int64
}

// ValidateRedialPolicy rejects a policy no redial schedule can follow: a
// negative Base, Max or Budget, a Jitter outside [0, 1] — above 1 the
// randomized wait can be zero or negative, a redial loop with no backoff —
// or a Multiplier that is not a finite number.
func ValidateRedialPolicy(p RedialPolicy) error {
	switch {
	case p.Base < 0:
		return fmt.Errorf("core: redial base %v < 0", p.Base)
	case p.Max < 0:
		return fmt.Errorf("core: redial max %v < 0", p.Max)
	case p.Budget < 0:
		return fmt.Errorf("core: redial budget %d < 0", p.Budget)
	case !(p.Jitter >= 0 && p.Jitter <= 1):
		return fmt.Errorf("core: redial jitter %v outside [0, 1]", p.Jitter)
	case math.IsNaN(p.Multiplier) || math.IsInf(p.Multiplier, 0):
		return fmt.Errorf("core: redial multiplier %v is not finite", p.Multiplier)
	}
	return nil
}

// delay computes the wait before redial number attempt (0-based) of a path.
func (p RedialPolicy) delay(attempt int, rng *rand.Rand) time.Duration {
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	d := float64(p.Base)
	for i := 0; i < attempt; i++ {
		d *= mult
		if p.Max > 0 && d >= float64(p.Max) {
			d = float64(p.Max)
			break
		}
	}
	if p.Max > 0 && d > float64(p.Max) {
		d = float64(p.Max)
	}
	if p.Jitter > 0 {
		d *= 1 - p.Jitter*rng.Float64()
	}
	return time.Duration(d)
}

// Client consumes a multipath stream and keeps its paths alive: when a path
// connection dies before the end marker, the Client redials it under Policy
// and re-attaches the fresh connection to the same Receiver. Against a hub,
// the re-sent Join carries the original token, so the subscription (and its
// rebased packet numbering) survives the flap; duplicates from the server's
// resend window are absorbed by the Receiver's dedup.
type Client struct {
	// Dial opens path k's connection. Called for the initial attach and for
	// every redial; required.
	Dial func(path int) (net.Conn, error)
	// Paths is how many paths to run. 0 means 1.
	Paths int
	// Join, when set, is written on every new connection before reading the
	// stream header — the hub handshake. Leave nil for a plain Server.
	Join *wire.Join
	// Policy governs redialing; the zero value never redials.
	Policy RedialPolicy
	// Receiver tunes the underlying Receiver (end-of-stream grace).
	Receiver ReceiverOptions
	// OnPathDown, if set, is called when a path's connection fails, with the
	// error that killed it. Called from the path's goroutine.
	OnPathDown func(path int, err error)
	// OnPathUp, if set, is called when a path (re)connects; attempt is 0 for
	// the initial attach, n for the n-th redial. Called from the path's
	// goroutine.
	OnPathUp func(path int, attempt int)
}

// Sink consumes the path connections a Client's redial engine attaches.
// Receiver is the standard implementation (reassemble and dedup into a
// Trace); an edge relay's forwarder is another (republish into a local
// hub). The engine calls Run once per (re)attached connection and stops
// redialing a path once Done is closed or Run's error carries a typed
// *RejectError verdict.
type Sink interface {
	// Run consumes one path connection until the stream's end marker (nil)
	// or a terminal error. Called concurrently for different paths and
	// again for the same path index after a redial; the engine owns conn.
	Run(path int, conn net.Conn) error
	// Done is closed once the stream is over — the signal that redialing
	// any path is pointless.
	Done() <-chan struct{}
}

// Run attaches all paths, plays the redial policy on every failure, and
// blocks until the stream ends or every path has given up. The returned
// error is nil exactly when the stream completed: an end marker arrived and
// every generated packet was received — a path that died and exhausted its
// budget is not an error if the surviving paths (or a redial) delivered the
// full stream.
func (c *Client) Run() (*Trace, error) {
	if c.Dial == nil {
		return nil, errors.New("core: client needs a Dial function")
	}
	r := NewReceiver(c.Receiver)
	errs := c.RunWith(r)
	tr := r.Trace()
	if tr.Expected > 0 && int64(len(tr.Arrivals)) >= tr.Expected {
		return tr, nil
	}
	if err := errors.Join(errs...); err != nil {
		return tr, err
	}
	return tr, fmt.Errorf("core: stream incomplete: %d of %d packets", len(tr.Arrivals), tr.Expected)
}

// RunWith is the redial engine under Run, decoupled from the Receiver: it
// attaches every path to sink, plays the redial policy on each failure,
// and blocks until all paths have finished or given up. The returned
// slice holds each path's final error (nil when the path delivered the
// stream's end marker); judging stream completeness is the caller's job,
// since only the sink knows what "complete" means. Without a Dial function,
// or with a policy ValidateRedialPolicy rejects, no path is dialed and
// every path gets that error.
func (c *Client) RunWith(sink Sink) []error {
	paths := c.Paths
	if paths == 0 {
		paths = 1
	}
	errs := make([]error, paths)
	err := ValidateRedialPolicy(c.Policy)
	if c.Dial == nil {
		err = errors.New("core: client needs a Dial function")
	}
	if err != nil {
		for k := range errs {
			errs[k] = err
		}
		return errs
	}
	return forEach(paths, func(k int) error { return c.runPath(sink, k) })
}

// runPath drives one path through connect → consume → (die → backoff →
// redial)* until the stream ends or the redial budget is spent.
func (c *Client) runPath(r Sink, k int) error {
	rng := rand.New(rand.NewSource(c.Policy.Seed + int64(k)))
	for attempt := 0; ; attempt++ {
		err := c.attachOnce(r, k, attempt)
		if err == nil {
			return nil // end marker: this path finished the stream
		}
		if c.OnPathDown != nil {
			c.OnPathDown(k, err)
		}
		var rej *wire.RejectError
		if errors.As(err, &rej) {
			// The server answered with a typed reject (full, draining,
			// evicted, ended): a verdict, not a transient fault — redialing
			// would only be refused again.
			return err
		}
		select {
		case <-r.Done():
			// The stream already ended on another path; redialing is
			// pointless and the hub would refuse a stopped stream anyway.
			return err
		default:
		}
		if c.Policy.Base <= 0 {
			return err
		}
		if c.Policy.Budget > 0 && attempt >= c.Policy.Budget {
			return fmt.Errorf("core: path %d redial budget (%d) spent: %w", k, c.Policy.Budget, err)
		}
		t := time.NewTimer(c.Policy.delay(attempt, rng))
		select {
		case <-t.C:
		case <-r.Done():
			t.Stop()
			return err
		}
	}
}

func (c *Client) attachOnce(r Sink, k, attempt int) error {
	conn, err := c.Dial(k)
	if err != nil {
		return fmt.Errorf("core: path %d dial: %w", k, err)
	}
	defer conn.Close()
	if c.Join != nil {
		if err := wire.WriteJoin(conn, *c.Join); err != nil {
			return fmt.Errorf("core: path %d join: %w", k, err)
		}
	}
	if c.OnPathUp != nil {
		c.OnPathUp(k, attempt)
	}
	return r.Run(k, conn)
}
