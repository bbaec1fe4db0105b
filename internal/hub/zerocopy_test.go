package hub

import (
	"net"
	"sync"
	"testing"
	"time"

	"dmpstream/internal/core"
)

// keptFrame is one [header, payload] pair a vectored write carried: the
// header copied (the batch rewrites it for the next write), the payload
// kept exactly as handed over.
type keptFrame struct {
	hdr     []byte
	payload []byte
}

// keepConn is a leaseConn that also keeps what each vectored write hands
// it, and whether a write deadline was armed for that write.
type keepConn struct {
	*leaseConn

	mu       sync.Mutex
	deadline time.Time // armed since the last vectored write; zero if none
	frames   []keptFrame
	unarmed  int // vectored writes made with no future deadline armed
}

func newKeepConn() *keepConn { return &keepConn{leaseConn: newLeaseConn()} }

func (c *keepConn) WriteBuffers(bufs net.Buffers) (int64, error) {
	c.mu.Lock()
	for i := 1; i < len(bufs); i += 2 {
		c.frames = append(c.frames, keptFrame{hdr: append([]byte(nil), bufs[i-1]...), payload: bufs[i]})
	}
	if !c.deadline.After(time.Now()) {
		c.unarmed++
	}
	c.deadline = time.Time{}
	c.mu.Unlock()
	return c.leaseConn.WriteBuffers(bufs)
}

func (c *keepConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return nil
}

// TestZeroCopyDeliveryAliasesRing is the runtime form of the zero-copy
// contract: every payload a vectored write carries is the ring slot's own
// pooled buffer (same backing array, not a copy of it), and the only
// bytes delivery copies are the patched FrameHeaderSize headers.
func TestZeroCopyDeliveryAliasesRing(t *testing.T) {
	const frames = 40 // under the ring's LagWindow: every slot stays live
	h := leaseHub(t, Config{LagWindow: 64})
	c := newKeepConn()
	attach(t, h, c)
	publish(t, h, 0, frames)
	waitFor(t, "delivery", func() bool { return c.leaseConn.frames.Load() == frames })

	c.mu.Lock()
	kept := append([]keptFrame(nil), c.frames...)
	c.mu.Unlock()
	if len(kept) != frames {
		t.Fatalf("conn was handed %d frames, want %d", len(kept), frames)
	}
	h.ring.mu.RLock()
	for _, f := range kept {
		pkt, _, err := core.ParseFrameHeader(f.hdr)
		if err != nil {
			t.Fatal(err)
		}
		s := &h.ring.slots[int64(pkt)%int64(len(h.ring.slots))]
		if s.seq != int64(pkt) || s.payload == nil {
			t.Fatalf("packet %d no longer in the ring", pkt)
		}
		if len(f.payload) == 0 || &f.payload[0] != &s.payload.data[0] {
			t.Errorf("packet %d: delivered payload is a copy, not the ring's pooled buffer", pkt)
		}
	}
	h.ring.mu.RUnlock()

	copied, _, batched := h.DeliveryCounters()
	if batched != frames || copied != frames*core.FrameHeaderSize {
		t.Errorf("delivery copied %d bytes for %d frames, want %d (headers only)",
			copied, batched, frames*core.FrameHeaderSize)
	}
}

// TestWritevArmsStallDeadline: with WriteStallTimeout set, every vectored
// write of the hub's delivery path goes out with a write deadline armed,
// so a peer that stops reading cannot pin a shard worker forever.
func TestWritevArmsStallDeadline(t *testing.T) {
	h, err := New(Config{
		Stream:         core.Config{Mu: 1000, PayloadSize: leasePayload, WriteStallTimeout: time.Minute},
		ExternalSource: true,
		Shards:         1,
		LagWindow:      32,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	c := newKeepConn()
	attach(t, h, c)
	publish(t, h, 0, 20)
	waitFor(t, "delivery", func() bool { return c.leaseConn.frames.Load() == 20 })

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.unarmed != 0 {
		t.Fatalf("%d of %d vectored writes went out with no write deadline armed", c.unarmed, c.writes.Load())
	}
}
