package hub

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"dmpstream/internal/wire"
)

// endOf parses what c holds: the absolute sequences of its frames, first
// being the subscriber's join point, and the count its end marker carries,
// -1 before the marker.
func endOf(t *testing.T, c *frameConn, first int64, payload int) (seqs []int64, count int64) {
	t.Helper()
	c.mu.Lock()
	r := bytes.NewReader(append([]byte(nil), c.buf.Bytes()...))
	c.mu.Unlock()
	if r.Len() == 0 {
		return nil, -1
	}
	if _, _, err := wire.ReadStreamHeader(r); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, wire.FrameHeaderSize+payload)
	for r.Len() >= len(frame) {
		r.Read(frame)
		pkt, gen, err := wire.ParseFrameHeader(frame)
		if err != nil {
			t.Fatal(err)
		}
		if pkt == wire.EndMarker {
			return seqs, gen
		}
		seqs = append(seqs, first+int64(pkt))
	}
	return seqs, -1
}

// TestSealLandsBetweenTicks holds the stream's end against a publish in
// flight. The test takes govMu as a tick (or a PublishAt) holds it across
// its burst, calls Stop, and only then publishes the burst's packets and
// lets go. The seal must land after the burst: the end marker counts its
// packets, and every one of them reaches the path ahead of the marker.
// A Stop that ends the stream without waiting for govMu lets the worker
// write a marker that counts fewer packets than were generated.
func TestSealLandsBetweenTicks(t *testing.T) {
	const payload, burst = 16, 3
	for _, tc := range []struct {
		name    string
		publish func(h *Hub) int64 // one packet, under govMu; the new head
	}{
		{"generator tick", func(h *Hub) int64 { return h.ring.publish(h.low, h.keep) }},
		{"external source", func(h *Hub) int64 {
			seq := h.ring.headSeq()
			buf := make([]byte, payload)
			fillNumbered(uint32(seq), buf)
			head, ok := h.ring.publishAt(seq, seq, buf)
			if !ok {
				t.Fatalf("publishAt(%d) refused", seq)
			}
			return head
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newExternalHub(t, Config{
				Stream:    wire.Config{Mu: 250, PayloadSize: payload, Fill: fillNumbered},
				LagWindow: 64,
				Shards:    1,
			})
			t.Cleanup(h.Close)
			sd := h.shards[0]
			for i := 0; i < 4; i++ {
				h.publishTick(0, time.Time{}, 0)
			}
			c := &frameConn{}
			attach(t, h, c)
			first := h.ring.headSeq() - 1
			waitFor(t, "the path to park", func() bool { return placed(t, sd).parked == 1 })

			h.govMu.Lock()
			stopped := make(chan struct{})
			go func() {
				h.Stop()
				close(stopped)
			}()
			select {
			case <-stopped:
				// Stop did not wait for the burst: let the worker answer it
				// before the burst is out.
				waitFor(t, "an end marker", func() bool { _, n := endOf(t, c, first, payload); return n >= 0 })
			case <-time.After(50 * time.Millisecond):
			}
			var head int64
			for i := 0; i < burst; i++ {
				head = tc.publish(h)
			}
			h.generated.Add(burst)
			sd.wake(head)
			h.govMu.Unlock()
			<-stopped
			h.Wait()

			seqs, count := endOf(t, c, first, payload)
			if count != head-first || h.Generated() != head {
				t.Fatalf("end marker counts %d packets from %d; %d were published from there (%d generated)", count, first, head-first, h.Generated())
			}
			want := make([]int64, 0, head-first)
			for seq := first; seq < head; seq++ {
				want = append(want, seq)
			}
			if !slices.Equal(seqs, want) {
				t.Fatalf("the path got %v ahead of its marker, want %v", seqs, want)
			}
		})
	}
}

// TestPublishAtRacingStopIsCounted races an upstream feed against Stop on
// an ExternalSource hub: every PublishAt that returned true is delivered
// ahead of the end marker, the marker counts exactly those packets, and a
// PublishAt after Stop returns false.
func TestPublishAtRacingStopIsCounted(t *testing.T) {
	const payload = 16
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		h := newExternalHub(t, Config{StreamID: "live", LagWindow: 1 << 12, Shards: 1})
		c := &frameConn{}
		attach(t, h, c)
		fed := make(chan int64)
		go func() {
			buf := make([]byte, payload)
			seq := int64(0)
			for ; seq < 1<<11; seq++ { // half the window: nothing is dropped
				fillNumbered(uint32(seq), buf)
				if !h.PublishAt(seq, seq, buf) {
					break
				}
			}
			fed <- seq
		}()
		time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
		h.Stop()
		accepted := <-fed
		if h.PublishAt(accepted, accepted, make([]byte, payload)) {
			t.Fatal("PublishAt after Stop returned true")
		}
		h.Wait()
		seqs, count := endOf(t, c, 0, payload)
		if count != accepted || int64(len(seqs)) != accepted {
			t.Fatalf("round %d: %d packets accepted; the path got %d and a marker counting %d", round, accepted, len(seqs), count)
		}
		for i, seq := range seqs {
			if seq != int64(i) {
				t.Fatalf("round %d: frame %d is packet %d", round, i, seq)
			}
		}
		h.Close()
	}
}
