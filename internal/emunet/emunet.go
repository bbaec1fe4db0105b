// Package emunet emulates wide-area network paths for real TCP connections.
//
// It is the reproduction's stand-in for the paper's PlanetLab testbed
// (Section 6): a TCP relay that forwards bytes through a token-bucket rate
// limiter, a propagation-delay line, and an on/off congestion-episode
// process that temporarily collapses the available rate. Streaming the real
// DMP implementation (internal/core) through two relays with different
// configurations reproduces the role of the paper's Internet experiments —
// validating the model against an implementation outside the simulator,
// with real kernel sockets providing the send-buffer backpressure.
//
// A path costs what it carries. A Relay runs one accept goroutine, and each
// relayed connection runs three: the handler, which also reads the return
// direction, and the impaired direction's reader and paced writer. The
// return direction's writer, with its queue, starts on the first byte that
// direction reads, so a connection whose return direction stays idle never
// has one. Congestion episodes are a schedule, not a process: whether one
// is in progress is a function of the time since the schedule was made,
// and no goroutine or timer drives it.
package emunet

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// PathConfig describes one emulated path direction. Listen rejects a
// negative or non-finite rate, delay, buffer, episode rate or episode
// duration, and an EpisodeFactor outside [0, 1].
type PathConfig struct {
	RateBps   float64       // forwarding rate in bytes/second (0 = unlimited)
	Delay     time.Duration // one-way propagation delay
	BufferKiB int           // relay buffering before backpressure (default 64)

	// Congestion episodes: the rate drops to RateBps·EpisodeFactor for an
	// exponentially distributed duration, at exponentially distributed
	// intervals. EpisodeRate is episodes per second (0 disables). Each
	// relayed connection gets its own schedule (NewEpisodes with Seed),
	// starting when the connection does.
	EpisodeRate     float64
	EpisodeDuration time.Duration // default 1s
	EpisodeFactor   float64       // default 0.1

	// Shared, when set, replaces the per-connection episode schedule: the
	// relay is congested whenever the shared schedule is active. Use one
	// Episodes value across several relays to model paths whose congestion
	// is correlated (e.g. a common provider segment).
	Shared *Episodes

	// Downstream flips the impaired direction: the rate limit and episodes
	// apply to backend→client (the reverse direction gets only the delay).
	// Use it when the heavy flow is served by the backend — e.g. subscribers
	// dialing a broadcast hub — instead of pushed by the dialer.
	Downstream bool

	Seed int64
}

// Episodes is an on/off congestion schedule that any number of relays can
// share through PathConfig.Shared. Active is a function of the time elapsed
// since the schedule was made: a periodic schedule answers by phase
// arithmetic, a random one draws its edges as the clock passes them. Either
// way no goroutine or timer runs, and edges do not drift with scheduling
// delay.
type Episodes struct {
	start time.Time

	// Periodic schedule (period > 0): on during [offset+k·period,
	// offset+k·period+dur) for every k ≥ 0.
	period, offset time.Duration
	// dur is the periodic episode's length, or the random one's mean.
	dur time.Duration

	// Random schedule: off intervals have mean 1/perSecond seconds.
	perSecond float64
	mu        sync.Mutex
	rng       *rand.Rand    // guarded by mu
	on        bool          // guarded by mu; the state before edge
	edge      time.Duration // guarded by mu; elapsed time of the next flip
}

// NewEpisodes makes a random schedule: episodes begin at exponential rate
// `perSecond` and last an exponentially distributed time with mean `dur`.
// The same seed gives the same schedule. It panics unless perSecond is
// finite and positive and dur is positive.
func NewEpisodes(perSecond float64, dur time.Duration, seed int64) *Episodes {
	if !(perSecond > 0) || math.IsInf(perSecond, 1) || dur <= 0 {
		panic("emunet: episode rate and duration must be positive")
	}
	e := &Episodes{start: time.Now(), dur: dur, perSecond: perSecond, rng: rand.New(rand.NewSource(seed))}
	e.advanceLocked() // e is not shared yet
	return e
}

// NewPeriodicEpisodes makes a deterministic schedule: an episode of exactly
// `dur` begins every `period`, the first one after `offset`. Deterministic
// schedules make short testbed runs reproducible and give the analytical
// model an exact duty cycle. It panics unless 0 < dur < period and
// offset ≥ 0.
func NewPeriodicEpisodes(period, dur, offset time.Duration) *Episodes {
	if dur <= 0 || offset < 0 {
		panic("emunet: episode duration must be positive and the offset not negative")
	}
	if dur >= period {
		panic("emunet: episode duration must be below the period")
	}
	return &Episodes{start: time.Now(), period: period, dur: dur, offset: offset}
}

// Active reports whether an episode is in progress.
func (e *Episodes) Active() bool { return e.activeAt(time.Since(e.start)) }

// Stop is a no-op: a schedule holds no goroutine or timer to release.
func (e *Episodes) Stop() {}

// activeAt reports whether the schedule is on at `elapsed` after its start.
// A random schedule keeps only the interval it is in, so an instant before
// that interval's start is answered with its state. With concurrent Active
// callers that is still the state at some moment during the late caller's
// call.
func (e *Episodes) activeAt(elapsed time.Duration) bool {
	if e.period > 0 {
		return elapsed >= e.offset && (elapsed-e.offset)%e.period < e.dur
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for elapsed >= e.edge {
		e.on = !e.on
		e.advanceLocked()
	}
	return e.on
}

// advanceLocked draws the interval that starts at edge (an off interval
// while off, an on interval while on) and moves edge to its end. The draws
// are those of a process that sleeps off, on, off, ... from one seeded rand;
// an edge past the range of a Duration saturates there and is never reached.
func (e *Episodes) advanceLocked() {
	var ns float64
	if e.on {
		ns = e.rng.ExpFloat64() * e.dur.Seconds() * float64(time.Second)
	} else {
		ns = e.rng.ExpFloat64() / e.perSecond * float64(time.Second)
	}
	if ns >= 1<<62 || time.Duration(ns) > math.MaxInt64-e.edge {
		e.edge = math.MaxInt64
		return
	}
	e.edge += time.Duration(ns)
}

// validate rejects what no path can be, where withDefaults would otherwise
// reinterpret it.
func (c PathConfig) validate() error {
	bad := func(x float64) bool { return !(x >= 0) || math.IsInf(x, 1) }
	switch {
	case bad(c.RateBps):
		return fmt.Errorf("emunet: rate %v B/s: want finite and not negative", c.RateBps)
	case c.Delay < 0:
		return fmt.Errorf("emunet: delay %v: want not negative", c.Delay)
	case c.BufferKiB < 0:
		return fmt.Errorf("emunet: buffer %d KiB: want not negative", c.BufferKiB)
	case bad(c.EpisodeRate):
		return fmt.Errorf("emunet: episode rate %v/s: want finite and not negative", c.EpisodeRate)
	case c.EpisodeDuration < 0:
		return fmt.Errorf("emunet: episode duration %v: want not negative", c.EpisodeDuration)
	case !(c.EpisodeFactor >= 0 && c.EpisodeFactor <= 1):
		return fmt.Errorf("emunet: episode factor %v: want within [0, 1]", c.EpisodeFactor)
	}
	return nil
}

func (c PathConfig) withDefaults() PathConfig {
	if c.BufferKiB == 0 {
		c.BufferKiB = 64
	}
	if c.EpisodeFactor == 0 {
		c.EpisodeFactor = 0.1
	}
	if c.EpisodeDuration == 0 {
		c.EpisodeDuration = time.Second
	}
	return c
}

// Relay is a TCP forwarder applying PathConfig impairments to the
// client→backend and backend→client byte streams (the reverse direction gets
// the delay but not the rate limit, mimicking an uncongested ACK path).
type Relay struct {
	ln      net.Listener
	backend string
	cfg     PathConfig
	wg      sync.WaitGroup

	mu      sync.Mutex
	closed  bool                  // guarded by mu
	conns   map[net.Conn]struct{} // guarded by mu; live relay-side sockets
	stallCh chan struct{}         // guarded by mu; non-nil while blackholed (see faults.go)
	done    chan struct{}         // closed by Close; never written

	// Both byte counters are written by pump goroutines and read by tests
	// and tools while the relay runs, so every access goes through
	// sync/atomic — never plain reads.
	BytesForwarded atomic.Int64 // impaired direction
	BytesReturned  atomic.Int64 // return direction (delay only)
}

// Listen starts a relay on addr forwarding to backend. It returns an error
// for a PathConfig no path can have (see PathConfig).
func Listen(addr, backend string, cfg PathConfig) (*Relay, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("emunet: listen: %w", err)
	}
	r := &Relay{
		ln: ln, backend: backend, cfg: cfg.withDefaults(),
		conns: map[net.Conn]struct{}{},
		done:  make(chan struct{}),
	}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

// Addr returns the relay's listening address.
func (r *Relay) Addr() string { return r.ln.Addr().String() }

// Close stops accepting, closes every in-flight connection, and joins the
// pump goroutines before returning — no relay goroutine survives Close.
func (r *Relay) Close() error {
	r.mu.Lock()
	already := r.closed
	r.closed = true
	conns := make([]net.Conn, 0, len(r.conns))
	for c := range r.conns {
		conns = append(conns, c)
	}
	r.mu.Unlock()
	var err error
	if !already {
		close(r.done)
		err = r.ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	r.wg.Wait()
	return err
}

// register adds c to the live-socket set so Close can cut it. If the relay
// is already closed it closes c instead and reports false.
func (r *Relay) register(c net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		_ = c.Close()
		return false
	}
	r.conns[c] = struct{}{}
	return true
}

func (r *Relay) unregister(c net.Conn) {
	r.mu.Lock()
	delete(r.conns, c)
	r.mu.Unlock()
}

func (r *Relay) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !r.register(conn) {
			continue
		}
		// acceptLoop itself holds a wg slot until it returns, so this Add
		// can never race a Close that already observed a zero counter.
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer r.unregister(conn)
			r.handle(conn)
		}()
	}
}

func (r *Relay) handle(client net.Conn) {
	server, err := net.Dial("tcp", r.backend)
	if err != nil {
		_ = client.Close()
		return
	}
	if !r.register(server) { // relay closed while dialing
		_ = client.Close()
		return
	}
	defer r.unregister(server)
	// Bound the kernel socket buffers on the impaired direction so that
	// backpressure reaches the sender through the relay instead of being
	// absorbed by hundreds of kilobytes of default buffering. The receive
	// buffer also caps the TCP window the relay advertises to the sender.
	in, out := client, server // impaired direction: in → out
	if r.cfg.Downstream {
		in, out = server, client
	}
	if tc, ok := in.(*net.TCPConn); ok {
		tc.SetReadBuffer(r.cfg.BufferKiB * 1024)
	}
	if tc, ok := out.(*net.TCPConn); ok {
		tc.SetWriteBuffer(r.cfg.BufferKiB * 1024)
	}
	eps := r.cfg.Shared
	if eps == nil && r.cfg.EpisodeRate > 0 {
		eps = NewEpisodes(r.cfg.EpisodeRate, r.cfg.EpisodeDuration, r.cfg.Seed)
	}
	impaired := make(chan struct{})
	go func() {
		defer close(impaired)
		r.pump(in, out, eps)
		tcpHalfClose(out)
	}()
	// The return direction (delay only) runs on this goroutine.
	r.delayPump(out, in)
	tcpHalfClose(in)
	<-impaired
	_ = client.Close()
	_ = server.Close()
}

// tcpHalfClose closes the write side so EOF propagates while reads continue.
func tcpHalfClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
}

// chunk is a unit of forwarded data with a scheduled release time.
type chunk struct {
	data    []byte
	release time.Time
}

// pump forwards the impaired direction src→dst with pacing, episodes (eps,
// nil for none) and delay, counting bytes into BytesForwarded. The bounded
// channel between the reader and the writer is the relay's buffer: when it
// fills, reads stop and TCP backpressure reaches the sender — which is
// exactly the signal the DMP sender goroutines rely on.
//
// Pacing is charged on the writer side, at serve time: a real link transmits
// queued bytes at whatever the line rate is NOW, so bytes buffered during a
// congestion episode must not keep the episode's slow rate once it ends.
func (r *Relay) pump(src io.Reader, dst io.Writer, eps *Episodes) {
	const chunkSize = 2048
	depth := r.cfg.BufferKiB * 1024 / chunkSize
	if depth < 2 {
		depth = 2
	}
	ch := make(chan []byte, depth)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: pace at the current rate, then apply the delay
		defer wg.Done()
		var pace time.Time
		for data := range ch {
			if !r.waitOpen() {
				for range ch { // relay closed mid-stall: drain and exit
				}
				return
			}
			now := time.Now()
			if pace.Before(now) {
				pace = now
			}
			rate := r.cfg.RateBps
			if eps != nil && eps.Active() {
				rate *= r.cfg.EpisodeFactor
			}
			if rate > 0 {
				pace = pace.Add(time.Duration(float64(len(data)) / rate * float64(time.Second)))
			}
			// Serialization finishes at `pace`; the head arrives Delay later.
			// pace is monotone, so FIFO order and inter-chunk gaps survive.
			if d := time.Until(pace.Add(r.cfg.Delay)); d > 0 {
				time.Sleep(d)
			}
			if _, err := dst.Write(data); err != nil {
				// Drain the channel so the reader can observe src close.
				for range ch {
				}
				return
			}
			r.BytesForwarded.Add(int64(len(data)))
		}
	}()

	buf := make([]byte, chunkSize)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			data := make([]byte, n)
			copy(data, buf[:n])
			ch <- data
		}
		if err != nil {
			break
		}
	}
	close(ch)
	wg.Wait()
}

// delayPump forwards the return direction src→dst with the delay and no
// rate limit, counting bytes into BytesReturned. The writer, its queue and
// a full-size read buffer start on the first byte read, which is forwarded
// alone: a direction that never carries one costs only this goroutine.
func (r *Relay) delayPump(src io.Reader, dst io.Writer) {
	var (
		buf  = make([]byte, 1)
		ch   chan chunk    // nil until the first byte
		done chan struct{} // closed when the writer exits
	)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			data := make([]byte, n)
			copy(data, buf[:n])
			if ch == nil {
				// 256 reads may wait out the delay before reads stop.
				ch, done = make(chan chunk, 256), make(chan struct{})
				go r.writeDelayed(ch, done, dst)
				buf = make([]byte, 4096)
			}
			ch <- chunk{data: data, release: time.Now().Add(r.cfg.Delay)}
		}
		if err != nil {
			break
		}
	}
	if ch != nil {
		close(ch)
		<-done
	}
}

// writeDelayed writes each chunk at its release time, parked while the
// relay is stalled (see faults.go), and closes done when ch is drained.
func (r *Relay) writeDelayed(ch <-chan chunk, done chan<- struct{}, dst io.Writer) {
	defer close(done)
	for c := range ch {
		if !r.waitOpen() {
			for range ch { // relay closed mid-stall: drain and exit
			}
			return
		}
		if d := time.Until(c.release); d > 0 {
			time.Sleep(d)
		}
		if _, err := dst.Write(c.data); err != nil {
			for range ch {
			}
			return
		}
		r.BytesReturned.Add(int64(len(c.data)))
	}
}
