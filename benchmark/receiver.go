package main

import (
	"net"
	"sync"
	"time"

	"dmpstream/benchmark/sink"
	"dmpstream/benchmark/stat"
	"dmpstream/benchmark/trace"
	"dmpstream/internal/core"
)

// recvCounter keeps a real core.Receiver's subscriber counters: it is the
// Receiver's OnPacket callback, so it sees each distinct packet once, at
// the moment reassembly accepts it. Sequence gaps are not counted here —
// packets of a multipath stream arrive out of order — but from the
// receiver's trace once the stream has ended.
type recvCounter struct {
	id    int32
	tau   time.Duration
	rec   *trace.Recorder
	probe *stat.GenProbe
	gate  *liveGate

	mu  sync.Mutex
	c   sink.Counters
	bad int64 // payloads that did not match Fill, or carried another packet's number
}

// onPacket is the core.ReceiverOptions.OnPacket hook. absolute says
// whether the frame header carries the source's own numbering (a
// core.Server stream) or a rebased one (a hub subscription).
func (r *recvCounter) onPacket(pkt uint32, gen int64, payload []byte, absolute bool) {
	now := time.Now().UnixNano()
	abs, ok := sink.CheckPayload(payload)
	r.mu.Lock()
	r.c.Frames++
	if r.c.Frames == 1 && r.gate != nil {
		r.gate.arrived()
	}
	r.c.Delay.Record(now - gen)
	if now-gen > int64(r.tau) {
		r.c.Late++
	}
	if !ok || (absolute && abs != pkt) {
		r.bad++
	}
	r.mu.Unlock()
	if r.probe != nil {
		r.probe.Observe(int64(abs), gen)
	}
	if r.rec.Sampled(gen) {
		r.rec.Mark(gen, trace.Delivered, now, r.id)
	}
}

func (r *recvCounter) AddTo(c *sink.Counters) {
	r.mu.Lock()
	c.Frames += r.c.Frames
	c.Late += r.c.Late
	c.Delay.Add(&r.c.Delay)
	r.mu.Unlock()
}

func (r *recvCounter) Frames() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.c.Frames
}

func (r *recvCounter) badPayloads() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bad
}

// tap marks one trace point for every sampled frame a wrapped connection
// carries.
type tap struct {
	rec   *trace.Recorder
	point trace.Point
	who   int32
	sc    sink.Scanner
	now   int64
}

func (t *tap) Frame(pkt uint32, stamp int64, _ []byte) {
	if pkt != core.EndMarker && t.rec.Sampled(stamp) {
		t.rec.Mark(stamp, t.point, t.now, t.who)
	}
}

func (t *tap) Reject(core.RejectCode) {}

// tappedConn wraps a connection handed to a core sender or receiver so the
// traced pass can see, from outside core, when a frame enters Write and
// when its last byte comes back from Read. Each direction is used by one
// goroutine, as core uses its connections.
type tappedConn struct {
	net.Conn
	wr, rd *tap
}

func (c *tappedConn) Write(b []byte) (int, error) {
	if c.wr != nil {
		c.wr.now = time.Now().UnixNano()
		c.wr.sc.Feed(b, c.wr)
	}
	return c.Conn.Write(b)
}

func (c *tappedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.rd != nil && n > 0 {
		c.rd.now = time.Now().UnixNano()
		c.rd.sc.Feed(b[:n], c.rd)
	}
	return n, err
}
