package sink

import (
	"bytes"
	"math/rand"
	"net"
	"testing"
	"time"

	"dmpstream/internal/core"
)

const testPayload = 64

// render builds a path's byte stream: header, the given packets (rebased
// by first), end marker.
func render(t *testing.T, first uint32, pkts []uint32, generated int64) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := core.WriteStreamHeader(&b, 0, 1, testPayload, 100); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, core.FrameHeaderSize+testPayload)
	for _, abs := range pkts {
		core.PutFrameHeader(frame, abs-first, int64(abs)*1000)
		Fill(abs, frame[core.FrameHeaderSize:])
		b.Write(frame)
	}
	core.PutFrameHeader(frame, core.EndMarker, generated)
	b.Write(frame)
	return b.Bytes()
}

// However the writer cuts the stream — single bytes, vectored pairs,
// several frames at once — the sink must see the same frames.
func TestSinkSurvivesAnySegmentation(t *testing.T) {
	pkts := []uint32{100, 101, 102, 105, 106, 110} // 103-104 and 107-109 skipped
	stream := render(t, 100, pkts, 12)             // and one more skipped at the tail
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		s := New(Config{Tau: time.Hour})
		for rest := stream; len(rest) > 0; {
			n := 1 + rng.Intn(3*len(stream)/len(pkts))
			if round == 0 {
				n = 1
			}
			if n > len(rest) {
				n = len(rest)
			}
			if rng.Intn(2) == 0 {
				cut := rng.Intn(n + 1)
				if _, err := s.WriteBuffers(net.Buffers{rest[:cut], rest[cut:n]}); err != nil {
					t.Fatal(err)
				}
			} else if _, err := s.Write(rest[:n]); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
		}
		f := s.Final()
		if f.Frames != 6 || f.Gaps != 5 || f.TailGap != 1 || !f.Ended || f.Generated != 12 {
			t.Fatalf("round %d: %+v", round, f)
		}
		if f.BadStream+f.BadPayload+f.BadRebase != 0 || f.Rejected != 0 {
			t.Fatalf("round %d: false alarm %+v", round, f)
		}
	}
}

func TestSinkCatchesCorruption(t *testing.T) {
	t.Run("payload", func(t *testing.T) {
		stream := render(t, 0, []uint32{0, 1, 2}, 3) // packet 0 is always pattern-checked
		stream[20+core.FrameHeaderSize+10] ^= 0xFF
		s := New(Config{})
		s.Write(stream)
		if f := s.Final(); f.BadPayload != 1 {
			t.Fatalf("%+v", f)
		}
	})
	t.Run("rebase", func(t *testing.T) {
		a := render(t, 10, []uint32{10, 11}, 2)
		b := render(t, 9, []uint32{12}, 0) // same stream position, different offset
		s := New(Config{})
		s.Write(a[:len(a)-(core.FrameHeaderSize+testPayload)]) // drop a's end marker
		s.Write(b[20:])                                        // and b's stream header
		if f := s.Final(); f.BadRebase != 1 {
			t.Fatalf("%+v", f)
		}
	})
	t.Run("backwards", func(t *testing.T) {
		s := New(Config{})
		s.Write(render(t, 0, []uint32{0, 2, 1}, 3))
		if f := s.Final(); f.BadStream != 1 {
			t.Fatalf("%+v", f)
		}
	})
	t.Run("reject", func(t *testing.T) {
		var b bytes.Buffer
		core.WriteReject(&b, core.RejectServerFull)
		s := New(Config{})
		s.Write(b.Bytes())
		if f := s.Final(); f.Rejected != core.RejectServerFull || f.Frames != 0 {
			t.Fatalf("%+v", f)
		}
	})
}

func TestSinkCountsLateAndCloses(t *testing.T) {
	first := false
	s := New(Config{Tau: time.Millisecond, OnFirst: func() { first = true }})
	// Stamps are microseconds after the epoch: every frame is decades late.
	if _, err := s.Write(render(t, 0, []uint32{0, 1}, 2)); err != nil {
		t.Fatal(err)
	}
	var c Counters
	s.AddTo(&c)
	s.AddTo(&c)
	if !first || c.Frames != 4 || c.Late != 4 || c.Writes != 2 || c.Delay.Count() != 4 {
		t.Fatalf("first %v, %+v", first, c)
	}
	s.Close()
	if _, err := s.Write([]byte{1}); err == nil {
		t.Fatal("write after Close succeeded")
	}
}

func TestFillRoundTrip(t *testing.T) {
	buf := make([]byte, 256)
	Fill(70000, buf)
	if pkt, ok := CheckPayload(buf); !ok || pkt != 70000 {
		t.Fatalf("pkt %d ok %v", pkt, ok)
	}
	buf[255]++
	if _, ok := CheckPayload(buf); ok {
		t.Fatal("corrupt payload passed")
	}
}

// A saturated throttle admits exactly its rate; an idle one banks nothing.
func TestThrottle(t *testing.T) {
	th := NewThrottle(100) // 10 ms a frame
	t0 := time.Unix(1000, 0)
	if d := th.Delay(t0, 4); d != 0 {
		t.Fatalf("first write delayed %v", d)
	}
	if d := th.Delay(t0, 1); d != 40*time.Millisecond {
		t.Fatalf("second write delayed %v, want the first's 4 frames", d)
	}
	if d := th.Delay(t0.Add(45*time.Millisecond), 1); d != 5*time.Millisecond {
		t.Fatalf("third write delayed %v", d)
	}
	// Ten seconds idle must not let a burst through afterwards.
	later := t0.Add(10 * time.Second)
	th.Delay(later, 2)
	if d := th.Delay(later, 1); d != 20*time.Millisecond {
		t.Fatalf("after idling, delayed %v", d)
	}
	th.Release()
	if d := th.Delay(later, 100); d != 0 {
		t.Fatalf("released throttle delayed %v", d)
	}
}

func TestThrottledSinkBlocks(t *testing.T) {
	s := New(Config{Throttle: NewThrottle(100)})
	stream := render(t, 0, []uint32{0, 1, 2, 3}, 4)
	hdr, frames := stream[:20], stream[20:len(stream)-(core.FrameHeaderSize+testPayload)]
	s.Write(hdr)
	t0 := time.Now()
	s.Write(frames) // charged 4 frames = 40 ms, admitted at once
	if time.Since(t0) > 30*time.Millisecond {
		t.Fatalf("idle throttle blocked %v", time.Since(t0))
	}
	s2 := New(Config{Throttle: NewThrottle(100)})
	s2.Write(hdr)
	s2.Write(frames)
	t0 = time.Now()
	s2.Write(render(t, 4, []uint32{4}, 1)[20 : 20+core.FrameHeaderSize+testPayload])
	if d := time.Since(t0); d < 30*time.Millisecond {
		t.Fatalf("saturated throttle let a write through after %v", d)
	}
}
