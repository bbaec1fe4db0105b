package emunet

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sinkBackend accepts one connection, accumulates what it receives and
// closes done when the client half-closes. It never writes back.
type sinkBackend struct {
	ln   net.Listener
	mu   sync.Mutex
	data bytes.Buffer
	done chan struct{}
}

func newSinkBackend(t *testing.T) *sinkBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := &sinkBackend{ln: ln, done: make(chan struct{})}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 4096)
		for {
			n, err := conn.Read(buf)
			if n > 0 {
				b.mu.Lock()
				b.data.Write(buf[:n])
				b.mu.Unlock()
			}
			if err != nil {
				break
			}
		}
		conn.Close()
		close(b.done)
	}()
	return b
}

func (b *sinkBackend) bytesReceived() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]byte, b.data.Len())
	copy(out, b.data.Bytes())
	return out
}

func dialAndSend(t *testing.T, addr string, payload []byte) time.Duration {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	io.Copy(io.Discard, conn) // wait for remote close
	elapsed := time.Since(start)
	conn.Close()
	return elapsed
}

func TestRelayForwardsIntact(t *testing.T) {
	b := newSinkBackend(t)
	r, err := Listen("127.0.0.1:0", b.ln.Addr().String(), PathConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	payload := make([]byte, 50000)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	dialAndSend(t, r.Addr(), payload)
	<-b.done
	if !bytes.Equal(b.bytesReceived(), payload) {
		t.Fatal("payload corrupted through relay")
	}
	if r.BytesForwarded.Load() != int64(len(payload)) {
		t.Fatalf("counter = %d", r.BytesForwarded.Load())
	}
}

func TestRelayRateLimit(t *testing.T) {
	b := newSinkBackend(t)
	// 100 KB at 200 KB/s ≈ 0.5s minimum.
	r, err := Listen("127.0.0.1:0", b.ln.Addr().String(), PathConfig{RateBps: 200 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	payload := make([]byte, 100*1024)
	start := time.Now()
	dialAndSend(t, r.Addr(), payload)
	<-b.done
	elapsed := time.Since(start)
	if elapsed < 400*time.Millisecond {
		t.Fatalf("100KiB at 200KiB/s took only %v", elapsed)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("transfer took %v; pacing far too slow", elapsed)
	}
}

// TestRelayCapacity: a path carries its configured rate whatever its delay.
// One second's worth of bytes at RateBps arrives within a quarter over one
// second plus the delay.
func TestRelayCapacity(t *testing.T) {
	for _, p := range []struct {
		rate  float64
		delay time.Duration
	}{
		{200e3, 50 * time.Millisecond},
		{48e3, 120 * time.Millisecond},
		{197e3, 8 * time.Millisecond},
	} {
		t.Run(fmt.Sprintf("%.0fBps-%v", p.rate, p.delay), func(t *testing.T) {
			t.Parallel()
			b := newSinkBackend(t)
			r, err := Listen("127.0.0.1:0", b.ln.Addr().String(), PathConfig{RateBps: p.rate, Delay: p.delay})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			elapsed := dialAndSend(t, r.Addr(), make([]byte, int(p.rate)))
			<-b.done
			limit := time.Duration(1.25 * float64(time.Second+p.delay))
			t.Logf("%.0f B in %v: %.0f B/s", p.rate, elapsed, p.rate/elapsed.Seconds())
			if elapsed > limit {
				t.Errorf("one second's worth of bytes took %v, want at most %v", elapsed, limit)
			}
		})
	}
}

// endless is a source that never runs dry until closed, and counts what
// is read from it.
type endless struct {
	read   atomic.Int64
	closed atomic.Bool
}

func (e *endless) Read(p []byte) (int, error) {
	if e.closed.Load() {
		return 0, io.EOF
	}
	e.read.Add(int64(len(p)))
	return len(p), nil
}

// TestStallHoldsBoundedLine: a stalled relay's impaired direction takes in
// no more than its buffer plus what its rate keeps in flight over the delay
// (and a chunk in each goroutine's hand), however long the Stall lasts, and
// at least that much, so the line never holds up the link. Unstall lets the
// held bytes through.
func TestStallHoldsBoundedLine(t *testing.T) {
	cfg := PathConfig{RateBps: 10e6, Delay: 50 * time.Millisecond, BufferKiB: 16}
	r, err := Listen("127.0.0.1:0", "127.0.0.1:1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Stall()
	src := &endless{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.forward(src, io.Discard, cfg.RateBps, nil, r.lineDepth(), &r.BytesForwarded)
	}()
	line := int64(cfg.BufferKiB*1024) + int64(cfg.RateBps*cfg.Delay.Seconds())
	for _, wait := range []time.Duration{300 * time.Millisecond, 600 * time.Millisecond} {
		time.Sleep(wait)
		if n := src.read.Load(); n < line || n > line+3*chunkSize {
			t.Fatalf("%v into a stall the relay took in %d B, want %d to %d", wait, n, line, line+3*chunkSize)
		}
	}
	if n := r.BytesForwarded.Load(); n != 0 {
		t.Fatalf("%d B crossed a stalled relay", n)
	}
	r.Unstall()
	eventually(t, "held bytes delivered after Unstall", func() bool { return r.BytesForwarded.Load() >= line })
	src.closed.Store(true)
	<-done
}

func TestRelayDelay(t *testing.T) {
	b := newSinkBackend(t)
	r, err := Listen("127.0.0.1:0", b.ln.Addr().String(), PathConfig{Delay: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	start := time.Now()
	dialAndSend(t, r.Addr(), []byte("ping"))
	<-b.done
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("delivery after %v with 150ms one-way delay", elapsed)
	}
}

func TestEpisodesSlowTransfer(t *testing.T) {
	run := func(episodes bool) time.Duration {
		b := newSinkBackend(t)
		cfg := PathConfig{RateBps: 500 * 1024, Seed: 7}
		if episodes {
			// On for 5/6 of the time in the long run, at a twentieth of
			// the rate: the transfer cannot miss them.
			cfg.EpisodeRate = 50
			cfg.EpisodeDuration = 100 * time.Millisecond
			cfg.EpisodeFactor = 0.05
		}
		r, err := Listen("127.0.0.1:0", b.ln.Addr().String(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		start := time.Now()
		dialAndSend(t, r.Addr(), make([]byte, 64*1024))
		<-b.done
		return time.Since(start)
	}
	clean := run(false)
	impaired := run(true)
	if impaired < clean {
		t.Fatalf("episodes sped things up: clean %v vs impaired %v", clean, impaired)
	}
}

func TestBackpressurePropagates(t *testing.T) {
	// With a slow relay rate and a small buffer, a large write cannot
	// complete instantly: the client's Write must block once kernel + relay
	// buffers fill.
	b := newSinkBackend(t)
	r, err := Listen("127.0.0.1:0", b.ln.Addr().String(), PathConfig{RateBps: 256 * 1024, BufferKiB: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	conn, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).SetWriteBuffer(8 * 1024)
	start := time.Now()
	if _, err := conn.Write(make([]byte, 128*1024)); err != nil {
		t.Fatal(err)
	}
	blocked := time.Since(start)
	conn.(*net.TCPConn).CloseWrite()
	io.Copy(io.Discard, conn)
	conn.Close()
	<-b.done
	// 128 KiB at 256 KiB/s is half a second. The socket buffers and the
	// relay's queue on the way hold a few tens of KiB, so the write must
	// block for most of it; without backpressure it returns in milliseconds.
	if blocked < 250*time.Millisecond {
		t.Fatalf("write of 128KiB returned in %v; backpressure not reaching sender", blocked)
	}
}

func TestCloseStopsAccepting(t *testing.T) {
	b := newSinkBackend(t)
	r, err := Listen("127.0.0.1:0", b.ln.Addr().String(), PathConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr := r.Addr()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Dial("tcp", addr); err == nil {
		t.Fatal("dial succeeded after Close")
	}
}

// TestListenRejectsImpossibleConfig: a negative or non-finite rate, delay,
// buffer or episode parameter, or an episode factor outside [0, 1], is an
// error, not a path with some other meaning. Zero keeps its meaning (no
// limit, no delay, the defaults).
func TestListenRejectsImpossibleConfig(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  PathConfig
		ok   bool
	}{
		{"zero config", PathConfig{}, true},
		{"factor 1", PathConfig{EpisodeRate: 1, EpisodeFactor: 1}, true},
		{"negative rate", PathConfig{RateBps: -5 * 1024}, false},
		{"NaN rate", PathConfig{RateBps: math.NaN()}, false},
		{"infinite rate", PathConfig{RateBps: math.Inf(1)}, false},
		{"negative delay", PathConfig{Delay: -time.Second}, false},
		{"negative buffer", PathConfig{BufferKiB: -1}, false},
		{"negative episode rate", PathConfig{EpisodeRate: -0.1}, false},
		{"infinite episode rate", PathConfig{EpisodeRate: math.Inf(1)}, false},
		{"NaN episode rate", PathConfig{EpisodeRate: math.NaN()}, false},
		{"negative episode duration", PathConfig{EpisodeRate: 1, EpisodeDuration: -time.Second}, false},
		{"negative episode factor", PathConfig{EpisodeFactor: -0.5}, false},
		{"episode factor above 1", PathConfig{EpisodeFactor: 1.5}, false},
		{"NaN episode factor", PathConfig{EpisodeFactor: math.NaN()}, false},
	} {
		r, err := Listen("127.0.0.1:0", "127.0.0.1:1", c.cfg)
		if r != nil {
			r.Close()
		}
		if (err == nil) != c.ok {
			t.Errorf("%s: Listen error %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// eventually polls cond every few milliseconds for up to three seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(3 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not after 3s", what)
		}
	}
}

// TestRelayReturnDirection: what the backend writes back reaches the client
// intact, no earlier than Delay, counted in BytesReturned, and held by a
// Stall until Unstall. A connection whose backend never writes back gets
// nothing, and its backend's close still reaches the client as EOF.
func TestRelayReturnDirection(t *testing.T) {
	const delay = 60 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 2)
	go func() {
		for i := 0; i < 2; i++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	r, err := Listen("127.0.0.1:0", ln.Addr().String(), PathConfig{Delay: delay})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// open dials the relay and returns both ends once a first byte has
	// crossed the impaired direction.
	open := func() (client, backend net.Conn) {
		client, err := net.Dial("tcp", r.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Write([]byte{1}); err != nil {
			t.Fatal(err)
		}
		backend = <-accepted
		if _, err := io.ReadFull(backend, make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		return client, backend
	}
	quietClient, quietBackend := open()
	defer quietClient.Close()
	client, backend := open()
	defer client.Close()
	defer backend.Close()

	reply := make([]byte, 20_000)
	for i := range reply {
		reply[i] = byte(i * 7)
	}
	start := time.Now()
	if _, err := backend.Write(reply); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(reply))
	if _, err := io.ReadFull(client, got); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("reply arrived after %v with a %v delay", elapsed, delay)
	}
	if !bytes.Equal(got, reply) {
		t.Fatal("reply corrupted through relay")
	}
	eventually(t, "BytesReturned counts the reply", func() bool { return r.BytesReturned.Load() == int64(len(reply)) })

	r.Stall()
	if _, err := backend.Write([]byte("held")); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(delay + 150*time.Millisecond))
	if n, err := client.Read(got); err == nil {
		t.Fatalf("%d bytes crossed a stalled relay", n)
	}
	r.Unstall()
	client.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := io.ReadFull(client, got[:4]); err != nil || string(got[:4]) != "held" {
		t.Fatalf("after Unstall: %q, %v", got[:4], err)
	}
	eventually(t, "BytesReturned counts the held bytes", func() bool { return r.BytesReturned.Load() == int64(len(reply)+4) })

	quietBackend.Close()
	quietClient.SetReadDeadline(time.Now().Add(3 * time.Second))
	if n, err := quietClient.Read(got); err != io.EOF {
		t.Fatalf("quiet connection read %d bytes, %v; want EOF", n, err)
	}
	if n := r.BytesReturned.Load(); n != int64(len(reply)+4) {
		t.Fatalf("BytesReturned = %d after the quiet connection closed", n)
	}
}

// TestRelayConnFootprint pins what a relayed connection whose return
// direction stays idle costs: at most three goroutines (the handler, the
// impaired direction's reader and writer) plus the relay's accept loop,
// none after Close, and at most connHeapBudget bytes of live heap.
func TestRelayConnFootprint(t *testing.T) {
	const conns, connHeapBudget = 32, 7_500
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	heap0 := liveHeap()
	g0 := runtime.NumGoroutine()

	backends := make(chan []net.Conn, 1)
	go func() { // accept every connection and read its first byte
		var cs []net.Conn
		for len(cs) < conns {
			c, err := ln.Accept()
			if err != nil {
				break
			}
			cs = append(cs, c)
			_, _ = io.ReadFull(c, make([]byte, 1))
		}
		backends <- cs
	}()
	r, err := Listen("127.0.0.1:0", ln.Addr().String(), PathConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	clients := make([]net.Conn, conns)
	for i := range clients {
		if clients[i], err = net.Dial("tcp", r.Addr()); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
		if _, err := clients[i].Write([]byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	bs := <-backends
	if len(bs) != conns {
		t.Fatalf("backend accepted %d of %d connections", len(bs), conns)
	}
	defer func() {
		for _, c := range bs {
			c.Close()
		}
	}()
	// The count can run one high for a moment: the backend's accept loop
	// on its way out, or the runtime's finalizer goroutine, which counts
	// while it runs the finalizers of sockets the collections freed.
	perConn := float64(int64(liveHeap())-int64(heap0)) / conns
	g := settle(g0+3*conns+1) - g0
	t.Logf("%d relayed connections: %d goroutines, %.0f B of live heap each (both test ends included)", conns, g, perConn)
	if g > 3*conns+1 {
		t.Errorf("%d goroutines for %d connections, want at most %d", g, conns, 3*conns+1)
	}
	if perConn > connHeapBudget {
		t.Errorf("%.0f B of live heap per connection, budget %d", perConn, connHeapBudget)
	}

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if g := settle(g0) - g0; g > 0 {
		t.Errorf("%d goroutines left after Close", g)
	}
}

// settle waits up to three seconds for the goroutine count to fall to
// limit and returns the count it saw last.
func settle(limit int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= limit || time.Now().After(deadline) {
			return n
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
