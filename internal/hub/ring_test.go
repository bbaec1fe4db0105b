package hub

import (
	"testing"
	"time"

	"dmpstream/internal/wire"
)

func fillByte(pkt uint32, buf []byte) {
	for i := range buf {
		buf[i] = byte(pkt)
	}
}

// storedSlots returns how many slots r stores.
func storedSlots(r *ring) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.slots)
}

// TestRingGrowsWithBacklog: a ring that starts below its window grows only
// when the packet it would lap is still needed (at or above publish's
// keep), doubling up to the window, and every needed packet stays pinnable
// — with its own bytes, or released below low for a render; one that
// stores its window never grows.
func TestRingGrowsWithBacklog(t *testing.T) {
	t.Run("needed", func(t *testing.T) {
		r := newRing(1024, 4, newBufPool(8, false), fillByte)
		for range 100 {
			r.publish(0, 0) // packet 0 is needed throughout
		}
		if got := storedSlots(r); got != 128 {
			t.Fatalf("stores %d slots for a 100-packet backlog, want 128", got)
		}
		for seq := int64(0); seq < 100; seq++ {
			pb, _, ok := r.pin(seq)
			if !ok || pb == nil || pb.data[0] != byte(seq) {
				t.Fatalf("packet %d lost from the backlog", seq)
			}
			r.pool.unref(pb)
		}
	})
	t.Run("kept without payloads", func(t *testing.T) {
		r := newRing(1024, 4, newBufPool(8, false), fillByte)
		for range 100 {
			r.publish(r.headSeq(), 0) // payloads released, slots kept
		}
		if got := storedSlots(r); got != 128 {
			t.Fatalf("stores %d slots for a 100-packet backlog, want 128", got)
		}
		if pb, _, ok := r.pin(0); !ok || pb != nil {
			t.Fatalf("packet 0: pinned %v, ok %v; want a released slot to render", pb, ok)
		}
	})
	t.Run("not needed", func(t *testing.T) {
		r := newRing(1024, 4, newBufPool(8, false), fillByte)
		for range 10000 {
			r.publish(r.headSeq(), r.headSeq()) // nothing older than the newest is needed
		}
		if got := storedSlots(r); got != 4 {
			t.Fatalf("stores %d slots with no backlog, want 4", got)
		}
		if got := r.tail(); got != 10000-4 {
			t.Fatalf("tail %d, want %d", got, 10000-4)
		}
	})
	t.Run("window", func(t *testing.T) {
		r := newRing(16, 4, newBufPool(8, false), fillByte)
		for range 100 {
			r.publish(0, 0)
		}
		if got := storedSlots(r); got != 16 {
			t.Fatalf("stores %d slots, want the window's 16", got)
		}
		if _, _, ok := r.pin(100 - 17); ok {
			t.Fatal("a packet past the window is still pinnable")
		}
	})
	t.Run("fixed", func(t *testing.T) {
		r := newRing(16, 16, newBufPool(8, false), fillByte)
		for range 100 {
			r.publish(0, 0)
		}
		if got := storedSlots(r); got != 16 {
			t.Fatalf("stores %d slots, want 16", got)
		}
	})
}

// TestRingShrinksAfterBacklog: a ring grown for a backlog gives its slots
// back once the backlog has drained, halving down to the slots it started
// with and no further, and what is still needed stays pinnable throughout.
func TestRingShrinksAfterBacklog(t *testing.T) {
	r := newRing(1024, maxTickBurst, newBufPool(8, false), fillByte)
	for range 100 {
		r.publish(0, 0) // packet 0 is needed throughout
	}
	if got := storedSlots(r); got != 128 {
		t.Fatalf("stores %d slots for a 100-packet backlog, want 128", got)
	}
	for range 1000 {
		head := r.headSeq()
		r.publish(head, head) // nothing older than the newest is needed
		if pb, _, ok := r.pin(head); !ok || pb == nil || pb.data[0] != byte(head) {
			t.Fatalf("packet %d lost", head)
		} else {
			r.pool.unref(pb)
		}
	}
	if got := storedSlots(r); got != maxTickBurst {
		t.Fatalf("stores %d slots once the backlog drained, want %d", got, maxTickBurst)
	}
	if st := r.pool.stats(); st.News-int64(st.Free) != 1 {
		t.Fatalf("%d buffers outside the pool, want the newest packet's 1", st.News-int64(st.Free))
	}
}

// TestKeepHubStoresTheBacklog: a Keep hub holds the stream from its first
// packet until a subscriber joins, in slots for that backlog only, where a
// DropOldest hub stores its whole window from the start.
func TestKeepHubStoresTheBacklog(t *testing.T) {
	const count, window = 3000, 1 << 16
	for _, tc := range []struct {
		policy Policy
		slots  int
	}{
		{Keep, 4096},
		{DropOldest, window},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			h, err := New(Config{
				Stream:    wire.Config{Mu: 20000, PayloadSize: 16, Count: count},
				LagWindow: window,
				Policy:    tc.policy,
				Shards:    1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			deadline := time.Now().Add(5 * time.Second)
			for h.Generated() < count {
				if time.Now().After(deadline) {
					t.Fatalf("generated %d", h.Generated())
				}
				time.Sleep(time.Millisecond)
			}
			if tail := h.ring.tail(); tail != 0 {
				t.Fatalf("the ring's oldest packet is %d, want 0", tail)
			}
			if got := storedSlots(h.ring); got != tc.slots {
				t.Fatalf("stores %d slots, want %d", got, tc.slots)
			}
		})
	}
}
