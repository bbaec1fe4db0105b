package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dmpstream/internal/emunet"
)

// tcpPair returns both ends of a loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			done <- c
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return c, <-done
}

// runSession streams cfg over n loopback paths and returns the trace.
func runSession(t *testing.T, cfg Config, n int) (*Server, *Trace) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sConns := make([]net.Conn, n)
	cConns := make([]net.Conn, n)
	for i := 0; i < n; i++ {
		cConns[i], sConns[i] = tcpPair(t)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var serveErr error
	go func() {
		defer wg.Done()
		_, serveErr = srv.Serve(sConns)
		for _, c := range sConns {
			c.Close()
		}
	}()
	tr, err := Receive(cConns)
	if err != nil {
		t.Fatalf("receive: %v", err)
	}
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("serve: %v", serveErr)
	}
	for _, c := range cConns {
		c.Close()
	}
	return srv, tr
}

func TestEndToEndTwoPaths(t *testing.T) {
	cfg := Config{Mu: 400, PayloadSize: 200, Count: 600}
	srv, tr := runSession(t, cfg, 2)
	if tr.Expected != 600 {
		t.Fatalf("expected = %d", tr.Expected)
	}
	if len(tr.Arrivals) != 600 {
		t.Fatalf("arrivals = %d", len(tr.Arrivals))
	}
	if tr.Mu != 400 || tr.PayloadSize != 200 {
		t.Fatalf("header decoded µ=%v payload=%d", tr.Mu, tr.PayloadSize)
	}
	pb, ao := tr.LateFraction(5.0)
	if pb != 0 || ao != 0 {
		t.Fatalf("late fractions %v/%v on loopback with 5s delay", pb, ao)
	}
	counts := srv.PathCounts()
	if counts[0]+counts[1] != 600 {
		t.Fatalf("path counts %v", counts)
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("a path was never used: %v", counts)
	}
}

func TestSinglePath(t *testing.T) {
	_, tr := runSession(t, Config{Mu: 500, PayloadSize: 64, Count: 250}, 1)
	if int64(len(tr.Arrivals)) != tr.Expected {
		t.Fatalf("got %d/%d", len(tr.Arrivals), tr.Expected)
	}
	if tr.ReorderCount() != 0 {
		t.Fatal("reordering on a single path")
	}
}

func TestStopEndsLiveStream(t *testing.T) {
	srv, err := NewServer(Config{Mu: 500, PayloadSize: 32}) // Count=0: live
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := tcpPair(t)
	go func() {
		time.Sleep(300 * time.Millisecond)
		srv.Stop()
	}()
	var tr *Trace
	var rErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr, rErr = Receive([]net.Conn{cConn})
	}()
	if _, err := srv.Serve([]net.Conn{sConn}); err != nil {
		t.Fatal(err)
	}
	sConn.Close()
	wg.Wait()
	if rErr != nil {
		t.Fatal(rErr)
	}
	if tr.Expected < 50 || tr.Expected > 1000 {
		t.Fatalf("generated %d packets in ~300ms at 500/s", tr.Expected)
	}
	if int64(len(tr.Arrivals)) != tr.Expected {
		t.Fatalf("arrivals %d != expected %d", len(tr.Arrivals), tr.Expected)
	}
}

func TestFillPayload(t *testing.T) {
	srv, err := NewServer(Config{
		Mu: 1000, PayloadSize: 8, Count: 3,
		Fill: func(pkt uint32, buf []byte) {
			binary.BigEndian.PutUint32(buf, pkt*7)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := tcpPair(t)
	go func() {
		srv.Serve([]net.Conn{sConn})
		sConn.Close()
	}()
	var h [headerSize]byte
	if _, err := io.ReadFull(cConn, h[:]); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, frameHdr+8)
	for i := 0; i < 3; i++ {
		if _, err := io.ReadFull(cConn, frame); err != nil {
			t.Fatal(err)
		}
		pkt := binary.BigEndian.Uint32(frame[0:4])
		val := binary.BigEndian.Uint32(frame[frameHdr : frameHdr+4])
		if val != pkt*7 {
			t.Fatalf("pkt %d payload %d", pkt, val)
		}
	}
	cConn.Close()
}

func TestBadMagicRejected(t *testing.T) {
	cConn, sConn := tcpPair(t)
	go func() {
		sConn.Write([]byte(strings.Repeat("x", headerSize)))
		sConn.Close()
	}()
	if _, err := Receive([]net.Conn{cConn}); err == nil {
		t.Fatal("garbage header accepted")
	}
	cConn.Close()
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Mu: 0},
		{Mu: -5},
		{Mu: 10, Count: -1},
		{Mu: 10, PayloadSize: 1 << 21},
	}
	for _, cfg := range bad {
		if _, err := NewServer(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestAsymmetricPathsShiftLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock emulation test")
	}
	// Path 0: fast relay. Path 1: heavily rate-limited relay. The stream rate
	// exceeds path 1's capacity, so DMP must route most packets to path 0.
	backends := make([]net.Listener, 2)
	sConns := make([]net.Conn, 2)
	cConns := make([]net.Conn, 2)
	rates := []float64{2e6, 20e3} // bytes/sec
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = ln
		relay, err := emunet.Listen("127.0.0.1:0", ln.Addr().String(), emunet.PathConfig{
			RateBps: rates[i], Delay: 10 * time.Millisecond, BufferKiB: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer relay.Close()
		acc := make(chan net.Conn, 1)
		go func(ln net.Listener) {
			c, err := ln.Accept()
			if err == nil {
				acc <- c
			}
		}(ln)
		c, err := net.Dial("tcp", relay.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetWriteBuffer(16 * 1024)
		}
		sConns[i] = c
		cConns[i] = <-acc
	}
	srv, err := NewServer(Config{Mu: 300, PayloadSize: 500, Count: 900}) // ~1.2Mbit/s
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Serve(sConns)
		for _, c := range sConns {
			c.Close()
		}
	}()
	tr, err := Receive(cConns)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	counts := srv.PathCounts()
	// Path 1 is capped at ~40 pkts/s by the relay (plus drain-phase pickup),
	// so the fast path must carry the clear majority.
	if counts[0] <= counts[1]*2 {
		t.Fatalf("fast path carried %d vs slow %d; expected strong skew", counts[0], counts[1])
	}
	if int64(len(tr.Arrivals)) != tr.Expected {
		t.Fatalf("lost packets: %d/%d", len(tr.Arrivals), tr.Expected)
	}
}

// ---------- Pure trace-analysis tests (synthetic, no wall clock) ----------

func synthTrace(mu float64, n int, lateness func(i int) int64) *Trace {
	tr := &Trace{Mu: mu, Expected: int64(n)}
	period := int64(1e9 / mu)
	for i := 0; i < n; i++ {
		gen := int64(i) * period
		tr.Arrivals = append(tr.Arrivals, Arrival{
			Pkt: uint32(i), Gen: gen, At: gen + lateness(i),
		})
	}
	return tr
}

func TestLateFractionExactCounting(t *testing.T) {
	// Packets 0..99; even ones arrive 1s after generation, odd ones 3s.
	tr := synthTrace(10, 100, func(i int) int64 {
		if i%2 == 0 {
			return 1e9
		}
		return 3e9
	})
	pb, _ := tr.LateFraction(2.0)
	if pb != 0.5 {
		t.Fatalf("playback late fraction = %v, want 0.5", pb)
	}
	pb, _ = tr.LateFraction(4.0)
	if pb != 0 {
		t.Fatalf("late fraction = %v at tau=4", pb)
	}
}

func TestLateFractionCountsMissing(t *testing.T) {
	tr := synthTrace(10, 80, func(int) int64 { return 0 })
	tr.Expected = 100 // 20 never arrived
	pb, ao := tr.LateFraction(1.0)
	if pb != 0.2 || ao != 0.2 {
		t.Fatalf("late = %v/%v, want 0.2", pb, ao)
	}
}

func TestLateFractionDeduplicatesArrivals(t *testing.T) {
	tr := synthTrace(10, 50, func(int) int64 { return 0 })
	tr.Arrivals = append(tr.Arrivals, tr.Arrivals[0]) // duplicate delivery
	pb, _ := tr.LateFraction(1.0)
	if pb != 0 {
		t.Fatalf("late = %v with duplicate arrival", pb)
	}
}

// TestLateFractionDuplicateTakesNoSlot: a resend in a trace — one read back
// by ReadTraceCSV keeps them — neither plays nor takes a playout slot, in
// playback order or in arrival order. The same trace with and without an
// injected duplicate must give equal fractions in both orders at every τ.
func TestLateFractionDuplicateTakesNoSlot(t *testing.T) {
	clean := synthTrace(10, 100, func(i int) int64 { return int64(i%4) * 60e6 }) // 0–180 ms late
	for _, tc := range []struct {
		name string
		pkt  int // the packet resent
		pos  int // where in arrival order the resend lands
	}{
		{"first packet, early", 0, 1},
		{"mid-stream", 40, 45},
		{"last packet, at the end", 99, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resend := clean.Arrivals[tc.pkt]
			resend.Path, resend.At = 1, clean.Arrivals[tc.pos-1].At
			dup := *clean
			dup.Arrivals = slices.Insert(slices.Clone(clean.Arrivals), tc.pos, resend)
			var csv bytes.Buffer
			if err := dup.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			loaded, err := ReadTraceCSV(&csv)
			if err != nil {
				t.Fatal(err)
			}
			for _, tau := range []float64{0, 0.05, 0.1, 0.15, 0.2, 1} {
				pb, ao := clean.LateFraction(tau)
				for name, tr := range map[string]*Trace{"in memory": &dup, "from CSV": loaded} {
					if gotPB, gotAO := tr.LateFraction(tau); gotPB != pb || gotAO != ao {
						t.Errorf("τ=%v, %s: %v/%v with the resend, %v/%v without", tau, name, gotPB, gotAO, pb, ao)
					}
				}
			}
		})
	}
}

func TestReorderCountSynthetic(t *testing.T) {
	tr := &Trace{Mu: 10, Expected: 4}
	for _, p := range []uint32{0, 2, 1, 3} {
		tr.Arrivals = append(tr.Arrivals, Arrival{Pkt: p})
	}
	if got := tr.ReorderCount(); got != 1 {
		t.Fatalf("reorders = %d, want 1", got)
	}
}

func TestLateFractionMonotone(t *testing.T) {
	tr := synthTrace(20, 200, func(i int) int64 { return int64(i) * 5e7 }) // growing delay
	prev := 1.1
	for _, tau := range []float64{0.5, 1, 2, 5, 20} {
		pb, _ := tr.LateFraction(tau)
		if pb > prev {
			t.Fatalf("late fraction rose with tau: %v > %v", pb, prev)
		}
		prev = pb
	}
}
