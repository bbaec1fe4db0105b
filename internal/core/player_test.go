package core

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"dmpstream/internal/wire"
)

func TestPlayerCleanStream(t *testing.T) {
	srv, err := NewServer(wire.Config{Mu: 500, PayloadSize: 64, Count: 400})
	if err != nil {
		t.Fatal(err)
	}
	sConns := make([]net.Conn, 2)
	cConns := make([]net.Conn, 2)
	for i := range sConns {
		cConns[i], sConns[i] = tcpPair(t)
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
	var order []uint32
	stats, err := Play(cConns, PlayerConfig{
		StartupDelay: 500 * time.Millisecond,
		OnPacket:     func(pkt uint32, _ []byte) { order = append(order, pkt) },
	})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Expected != 400 {
		t.Fatalf("expected = %d", stats.Expected)
	}
	if stats.Glitches != 0 {
		t.Fatalf("%d glitches on loopback with 500ms delay", stats.Glitches)
	}
	if stats.Played != 400 {
		t.Fatalf("played %d", stats.Played)
	}
	for i, pkt := range order {
		if pkt != uint32(i) {
			t.Fatalf("playout order broken at %d: %d", i, pkt)
		}
	}
	if stats.GlitchFraction() != 0 {
		t.Fatalf("glitch fraction %v", stats.GlitchFraction())
	}
}

func TestPlayerGlitchesOnStalledPath(t *testing.T) {
	// Single path that stalls mid-stream longer than the startup delay:
	// the player must glitch through the gap, then resume.
	cConn, sConn := tcpPair(t)
	go func() {
		srv, _ := NewServer(wire.Config{Mu: 200, PayloadSize: 32, Count: 100})
		sess := srv.Start()
		sess.AddPath(sConn)
		sess.Wait()
		sConn.Close()
	}()
	// Throttle reading? Simpler: stall by not... the server writes freely on
	// loopback, so induce the gap on the receive side with a slow middle:
	// here we rely on a tiny startup delay instead — packets later than
	// their 50ms budget glitch only if the path stalls, which loopback does
	// not. So instead verify the late-arrival discard logic directly below.
	stats, err := Play([]net.Conn{cConn}, PlayerConfig{StartupDelay: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Played+stats.Glitches != 100 {
		t.Fatalf("slots played %d + glitches %d != 100", stats.Played, stats.Glitches)
	}
	cConn.Close()
}

func TestPlayerCountsGlitchesWithManualFrames(t *testing.T) {
	// Hand-crafted session: packet 1 is withheld until after its slot.
	cConn, sConn := tcpPair(t)
	const mu, payload = 20.0, 8 // 50ms slots: slot i plays at 200ms + i*50ms
	go func() {
		sConn.Write(headerBytes(0, 1, payload, mu))
		sConn.Write(frameBytes(0, payload))
		sConn.Write(frameBytes(2, payload))
		sConn.Write(frameBytes(3, payload))
		// Slot 1 plays at ~250ms; withhold packet 1 until after that, and
		// deliver the end marker before slot 4 (due at 400ms) so the player
		// stops exactly at the generated count.
		time.Sleep(320 * time.Millisecond)
		sConn.Write(frameBytes(1, payload))
		end := frameBytes(wire.EndMarker, payload)
		putUint64(end[4:12], 4)
		sConn.Write(end)
		sConn.Close()
	}()
	var glitched []uint32
	stats, err := Play([]net.Conn{cConn}, PlayerConfig{
		StartupDelay: 200 * time.Millisecond,
		OnGlitch:     func(pkt uint32) { glitched = append(glitched, pkt) },
	})
	if err != nil {
		t.Fatal(err)
	}
	cConn.Close()
	if stats.Glitches != 1 || len(glitched) != 1 || glitched[0] != 1 {
		t.Fatalf("glitches = %d (%v), want exactly packet 1", stats.Glitches, glitched)
	}
	if stats.LateArrivals != 1 {
		t.Fatalf("late arrivals = %d, want 1", stats.LateArrivals)
	}
	if stats.Played != 3 {
		t.Fatalf("played = %d, want 3", stats.Played)
	}
}

// TestPlayClockStartsAtHeader: the slot clock runs from the first stream
// header, not the first packet. Packets 0–4 and the end marker come 300ms
// after the header; with τ 100ms and 10ms slots every slot has passed by
// then, so all five are late arrivals and none plays.
func TestPlayClockStartsAtHeader(t *testing.T) {
	cConn, sConn := tcpPair(t)
	defer cConn.Close()
	const mu, payload = 100.0, 8
	go func() {
		sConn.Write(headerBytes(0, 1, payload, mu))
		time.Sleep(300 * time.Millisecond)
		for pkt := uint32(0); pkt < 5; pkt++ {
			sConn.Write(frameBytes(pkt, payload))
		}
		end := frameBytes(wire.EndMarker, payload)
		putUint64(end[4:12], 5)
		sConn.Write(end)
		sConn.Close()
	}()
	stats, err := Play([]net.Conn{cConn}, PlayerConfig{StartupDelay: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Played != 0 || stats.LateArrivals != 5 {
		t.Fatalf("played %d, %d late arrivals; want 0, 5", stats.Played, stats.LateArrivals)
	}
}

// TestPlayResendIsNotLate: packets 0–9 arrive on path A in time; after slot
// 3 has played, path B resends packet 3. That copy is a duplicate of a
// packet that played, not a late arrival.
func TestPlayResendIsNotLate(t *testing.T) {
	const mu, payload = 100.0, 8 // 10ms slots
	a, sa := tcpPair(t)
	b, sb := tcpPair(t)
	defer a.Close()
	defer b.Close()
	defer sa.Close()
	defer sb.Close()
	end := frameBytes(wire.EndMarker, payload)
	putUint64(end[4:12], 10)
	sa.Write(headerBytes(0, 2, payload, mu))
	for pkt := uint32(0); pkt < 10; pkt++ {
		sa.Write(frameBytes(pkt, payload))
	}
	sa.Write(end)
	sb.Write(headerBytes(1, 2, payload, mu))
	slot3 := make(chan struct{})
	go func() {
		<-slot3
		sb.Write(frameBytes(3, payload))
		sb.Write(end)
	}()
	stats, err := Play([]net.Conn{a, b}, PlayerConfig{
		StartupDelay: 20 * time.Millisecond,
		OnPacket: func(pkt uint32, _ []byte) {
			if pkt == 3 {
				close(slot3)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Played != 10 || stats.Glitches != 0 {
		t.Fatalf("played %d, %d glitches; want 10, 0", stats.Played, stats.Glitches)
	}
	if stats.LateArrivals != 0 {
		t.Fatalf("late arrivals = %d, want 0: the resent packet had played", stats.LateArrivals)
	}
}

// TestPlayBufferRecycles: a played-out buffer is the next arrival's storage,
// a resend of a waiting packet neither replaces it nor takes a buffer, a
// packet a span past what the ring holds is refused without growing it,
// and the free list stops growing at its cap however far occupancy falls.
func TestPlayBufferRecycles(t *testing.T) {
	b := NewSeqRing(10)
	take := func(seq int64) ([]byte, bool) {
		gen, data, ok := b.Take(seq)
		if ok && gen != seq {
			t.Fatalf("slot %d stamped %d", seq, gen)
		}
		return data, ok
	}
	b.Put(0, 0, []byte("first"))
	if b.Put(0, 0, []byte("again")) {
		t.Fatal("a resend replaced the waiting copy")
	}
	first, ok := take(0)
	if !ok || string(first) != "first" {
		t.Fatalf("slot 0 holds %q, want the first copy", first)
	}
	if _, ok := take(0); ok {
		t.Fatal("slot 0 played twice")
	}
	b.Recycle(first)
	b.Put(1, 1, []byte("next!"))
	if next, _ := take(1); string(next) != "next!" || &next[0] != &first[0] {
		t.Fatalf("slot 1 holds %q in fresh storage, want the recycled buffer", next)
	}
	// A buffer too small for the payload is dropped, not sliced past its end.
	b.Recycle(make([]byte, 2))
	b.Put(2, 2, []byte("longer"))
	if got, _ := take(2); string(got) != "longer" {
		t.Fatalf("slot 2 holds %q", got)
	}
	// 3 and 3+len(slots) share a slot: the far one is refused, 12 (a span
	// of 10 from 3) is not, and the ring stays the size the span set.
	b.Put(3, 3, []byte("three"))
	if far := 3 + int64(len(b.slots)); b.Put(far, far, []byte("far")) || b.Holds(far) {
		t.Fatalf("%d parked over 3", far)
	}
	if !b.Put(12, 12, []byte("twelve")) || len(b.slots) != 16 {
		t.Fatalf("12 refused, or the ring has %d slots, want 16", len(b.slots))
	}
	if got, _ := take(3); string(got) != "three" || b.Len() != 1 {
		t.Fatalf("slot 3 holds %q with %d parked, want three and 1", got, b.Len())
	}
	if got, _ := take(12); string(got) != "twelve" || b.Len() != 0 {
		t.Fatalf("slot 12 holds %q", got)
	}
	for i := 0; i < 3*ringFreeMax; i++ {
		b.Recycle(make([]byte, 8))
	}
	if len(b.free) != ringFreeMax {
		t.Fatalf("free list holds %d buffers, cap %d", len(b.free), ringFreeMax)
	}
}

// TestPlayDropsFarPacket: a frame numbered 2^31 past the playout point (a
// bogus or hostile sender) is dropped as early, not held: the buffer stays
// at the size the header's µ and τ set, the slots around it play, and the
// drop is counted.
func TestPlayDropsFarPacket(t *testing.T) {
	const mu, payload = 100.0, 8 // 10ms slots
	c, s := tcpPair(t)
	defer c.Close()
	defer s.Close()
	s.Write(headerBytes(0, 1, payload, mu))
	s.Write(frameBytes(0, payload))
	s.Write(frameBytes(1<<31, payload)) // shares slot 0's low bits
	s.Write(frameBytes(1<<31+1, payload))
	for pkt := uint32(1); pkt < 4; pkt++ {
		s.Write(frameBytes(pkt, payload))
	}
	end := frameBytes(wire.EndMarker, payload)
	putUint64(end[4:12], 4)
	s.Write(end)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stats, err := Play([]net.Conn{c}, PlayerConfig{StartupDelay: 20 * time.Millisecond})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Played != 4 || stats.Glitches != 0 || stats.Early != 2 {
		t.Fatalf("played %d, %d glitches, %d early; want 4, 0, 2", stats.Played, stats.Glitches, stats.Early)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("Play allocated %d B for a 4-packet stream", got)
	}
	if got := holdSpan(mu, 20*time.Millisecond); got != 104 {
		t.Fatalf("holdSpan(100, 20ms) = %d, want 104", got)
	}
	if got := holdSpan(1.8e13, time.Hour); got != MaxSeqSpan {
		t.Fatalf("holdSpan of a huge µτ = %d, want MaxSeqSpan", got)
	}
}

func TestPlayerRejectsBadConfig(t *testing.T) {
	if _, err := Play(nil, PlayerConfig{StartupDelay: time.Second}); err == nil {
		t.Error("no conns accepted")
	}
	cConn, sConn := tcpPair(t)
	defer cConn.Close()
	defer sConn.Close()
	if _, err := Play([]net.Conn{cConn}, PlayerConfig{}); err == nil {
		t.Error("zero startup delay accepted")
	}
}

func TestPlayerAllPathsFailBeforeHeader(t *testing.T) {
	cConn, sConn := tcpPair(t)
	sConn.Close()
	if _, err := Play([]net.Conn{cConn}, PlayerConfig{StartupDelay: 100 * time.Millisecond}); err == nil {
		t.Error("headerless session accepted")
	}
	cConn.Close()
}

// --- helpers to hand-craft wire data ---

func headerBytes(pathIdx, numPaths uint8, payload int, mu float64) []byte {
	h := make([]byte, wire.HeaderSize)
	copy(h[0:4], "DMPS")
	h[4] = 1
	h[5] = pathIdx
	h[6] = numPaths
	putUint32(h[8:12], uint32(payload))
	putUint64(h[12:20], uint64(mu*1e6))
	return h
}

func frameBytes(pkt uint32, payload int) []byte {
	f := make([]byte, wire.FrameHeaderSize+payload)
	putUint32(f[0:4], pkt)
	putUint64(f[4:12], uint64(time.Now().UnixNano()))
	return f
}

func putUint32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

// BenchmarkPlayout times the playout buffer at pace: the slot τ·µ packets
// behind the newest arrival taken and its buffer recycled, then the next
// arrival copied into it. allocs/op must read 0.
func BenchmarkPlayout(b *testing.B) {
	const depth = 150 // τ·µ: 500 ms at 300 pkt/s
	buf := NewSeqRing(holdSpan(300, 500*time.Millisecond))
	payload := make([]byte, 1000)
	next := int64(0)
	for ; next < depth; next++ {
		buf.Put(next, 0, payload)
	}
	play := func() {
		_, data, ok := buf.Take(next - depth)
		if !ok {
			b.Fatalf("slot %d empty", next-depth)
		}
		buf.Recycle(data)
		buf.Put(next, 0, payload)
		next++
	}
	for i := 0; i < 4*depth; i++ { // until the free list is stocked
		play()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		play()
	}
}
