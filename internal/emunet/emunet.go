// Package emunet emulates wide-area network paths for real TCP connections.
//
// It is the reproduction's stand-in for the paper's PlanetLab testbed
// (Section 6): a TCP relay that serializes bytes at a configured rate,
// holds them for a propagation delay, and follows an on/off
// congestion-episode process that temporarily collapses the rate.
// Streaming the real DMP implementation (internal/core) through two relays
// with different configurations reproduces the role of the paper's
// Internet experiments — validating the model against an implementation
// outside the simulator, with real kernel sockets providing the send-buffer
// backpressure.
//
// Both directions of a relayed connection run one forwarder: a reader that
// is the link — it serializes each chunk at the rate in force — and a
// writer that delivers each chunk once its delay has passed. The return
// direction is the same forwarder unpaced, without episodes. A path costs
// what it carries. A Relay runs one accept goroutine, and each relayed
// connection runs the handler, which also reads the return direction, the
// impaired direction's reader, and one writer for each direction that has
// carried a byte: a connection whose return direction stays idle runs
// three. Congestion episodes are a schedule, not a process: whether one is
// in progress is a function of the time since the schedule was made, and no
// goroutine or timer drives it.
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

	// Both byte counters are written by the writers and read by tests
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
// forwarding goroutines before returning — no relay goroutine survives Close.
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
		r.forward(in, out, r.cfg.RateBps, eps, r.lineDepth(), &r.BytesForwarded)
		tcpHalfClose(out)
	}()
	// The return direction (delay only; 256 reads may wait out the delay
	// before reads stop) runs on this goroutine.
	r.forward(out, in, 0, nil, 256, &r.BytesReturned)
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

// chunkSize is the most the link reads, and serializes, at once.
const chunkSize = 2048

// epoch is the forwarders' clock: times on a line are durations since it,
// 8 bytes in every slot of every line where a time.Time takes 24.
var epoch = time.Now()

// chunk is a unit of forwarded data with the time its last byte leaves the
// delay line.
type chunk struct {
	data    []byte
	release time.Duration // since epoch
}

// lineDepth is the impaired direction's line, in chunks: the relay's buffer
// plus what RateBps keeps in flight over Delay, so that the link is never
// held up by the line, and a Stall holds at most BufferKiB + RateBps·Delay
// before reads stop and TCP backpressure reaches the sender — which is
// exactly the signal the DMP sender goroutines rely on. The in-flight share
// is capped at 2^16 chunks (128 MiB) so no path allocates without bound.
func (r *Relay) lineDepth() int {
	inFlight := min(r.cfg.RateBps*r.cfg.Delay.Seconds()/chunkSize, 1<<16)
	return max(2, r.cfg.BufferKiB*1024/chunkSize) + int(inFlight) + 1
}

// forward carries one direction src→dst and counts what it writes into
// sent. This goroutine is the link: it takes each chunk it reads at the
// rate in force when it takes it — rate, times EpisodeFactor while eps is
// active, unpaced at 0 — and sleeps out its serialization, so bytes queued
// in the socket buffers during an episode do not keep the episode's rate
// once it ends. A chunk is released Delay after its serialization ends and
// queued on a line of depth chunks; a writer, started with the line on the
// first byte read, delivers each at its release time. Until that byte the
// read buffer is one byte, so a direction that never carries one costs only
// this goroutine.
func (r *Relay) forward(src io.Reader, dst io.Writer, rate float64, eps *Episodes, depth int, sent *atomic.Int64) {
	var (
		buf  = make([]byte, 1)
		line chan chunk    // nil until the first byte
		done chan struct{} // closed when the writer exits
		pace time.Duration // since epoch: when the link finishes serializing
	)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			data := make([]byte, n)
			copy(data, buf[:n])
			if line == nil {
				line, done = make(chan chunk, depth), make(chan struct{})
				go r.deliver(line, done, dst, sent)
				buf = make([]byte, chunkSize)
			}
			pace = max(pace, time.Since(epoch))
			bps := rate
			if eps != nil && eps.Active() {
				bps *= r.cfg.EpisodeFactor
			}
			if bps > 0 {
				pace += time.Duration(float64(n) / bps * float64(time.Second))
			}
			line <- chunk{data: data, release: pace + r.cfg.Delay}
			if d := pace - time.Since(epoch); d > 0 {
				time.Sleep(d)
			}
		}
		if err != nil {
			break
		}
	}
	if line != nil {
		close(line)
		<-done
	}
}

// deliver writes each chunk of line at its release time, parked while the
// relay is stalled (see faults.go), and closes done once line is closed and
// drained. After a failed write or a Close mid-stall it discards the rest,
// so the reader can still observe src close.
func (r *Relay) deliver(line <-chan chunk, done chan<- struct{}, dst io.Writer, sent *atomic.Int64) {
	defer close(done)
	for c := range line {
		if d := c.release - time.Since(epoch); d > 0 {
			time.Sleep(d)
		}
		if !r.waitOpen() {
			break
		}
		if _, err := dst.Write(c.data); err != nil {
			break
		}
		sent.Add(int64(len(c.data)))
	}
	for range line {
	}
}
