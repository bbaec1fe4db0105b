package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"dmpstream/benchmark/sink"
	"dmpstream/benchmark/stat"
	"dmpstream/benchmark/trace"
	"dmpstream/internal/core"
	"dmpstream/internal/emunet"
	"dmpstream/internal/hub"
)

// The ladder is the fixed set of single-layer fixtures every traced run
// climbs, whatever its workload: each drives one layer's exported
// functions with nothing else running and times them from outside.

// stubConn is the inert base of the ladder's in-memory connections.
type stubConn struct{}

func (stubConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (stubConn) Write(b []byte) (int, error)      { return len(b), nil }
func (stubConn) Close() error                     { return nil }
func (stubConn) LocalAddr() net.Addr              { return nil }
func (stubConn) RemoteAddr() net.Addr             { return nil }
func (stubConn) SetDeadline(time.Time) error      { return nil }
func (stubConn) SetReadDeadline(time.Time) error  { return nil }
func (stubConn) SetWriteDeadline(time.Time) error { return nil }

// discardConn swallows writes and counts them.
type discardConn struct {
	stubConn
	writes int64
}

func (c *discardConn) Write(b []byte) (int, error) {
	c.writes++
	return len(b), nil
}

// replayConn plays a pre-rendered byte stream back to its reader.
type replayConn struct {
	stubConn
	r *bytes.Reader
}

func (c *replayConn) Read(b []byte) (int, error) { return c.r.Read(b) }

// sinkVar keeps the wire loop's results alive so the compiler cannot drop
// the calls being timed.
var sinkVar int64

// wireLadder times the frame-header codec in a tight loop.
func wireLadder(div int, m map[string]float64) {
	n := (4 << 20) / div
	var hdr [core.FrameHeaderSize]byte
	t0 := time.Now()
	for i := 0; i < n; i++ {
		core.PutFrameHeader(hdr[:], uint32(i), int64(i))
	}
	t1 := time.Now()
	var acc int64
	for i := 0; i < n; i++ {
		hdr[3] = byte(i)
		pkt, gen, _ := core.ParseFrameHeader(hdr[:])
		acc += int64(pkt) + gen
	}
	t2 := time.Now()
	sinkVar = acc
	m["core.wire_put_ns"] = float64(t1.Sub(t0)) / float64(n)
	m["core.wire_parse_ns"] = float64(t2.Sub(t1)) / float64(n)
}

// senderLadder runs a core.Server flat out — a rate so high the generator
// never sleeps — over two discarding paths, for a fixed packet count.
func senderLadder(div int, m map[string]float64) error {
	n := int64(200_000 / div)
	srv, err := core.NewServer(core.Config{Mu: 1e9, PayloadSize: frozen.Multipath.Payload, Count: n, Fill: sink.Fill})
	if err != nil {
		return err
	}
	a, b := &discardConn{}, &discardConn{}
	t0 := time.Now()
	generated, err := srv.Serve([]net.Conn{a, b})
	elapsed := time.Since(t0)
	if err != nil || generated != n {
		return fmt.Errorf("sender ladder: %d of %d generated: %v", generated, n, err)
	}
	// Each path's last write is its end marker, not a batch of frames.
	m["core.sender_ns_per_frame"] = float64(elapsed) / float64(n)
	m["core.sender_frames_per_write"] = float64(n) / float64(a.writes+b.writes-2)
	return nil
}

// receiverLadder feeds a core.Receiver a two-path stream rendered into
// memory beforehand, packets alternating between the paths.
func receiverLadder(div int, m map[string]float64) error {
	n := 16_000 / div
	payload := frozen.Multipath.Payload
	var paths [2]bytes.Buffer
	frame := make([]byte, core.FrameHeaderSize+payload)
	for k := range paths {
		if err := core.WriteStreamHeader(&paths[k], k, 2, payload, frozen.Multipath.Mu); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		core.PutFrameHeader(frame, uint32(i), int64(i))
		sink.Fill(uint32(i), frame[core.FrameHeaderSize:])
		paths[i%2].Write(frame)
	}
	core.PutFrameHeader(frame, core.EndMarker, int64(n))
	for k := range paths {
		paths[k].Write(frame)
	}
	recv := core.NewReceiver(core.ReceiverOptions{})
	var wg sync.WaitGroup
	var errs [2]error
	t0 := time.Now()
	for k := range paths {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = recv.Run(k, &replayConn{r: bytes.NewReader(paths[k].Bytes())})
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	tr := recv.Trace()
	if errs[0] != nil || errs[1] != nil || len(tr.Missing()) != 0 || tr.Expected != int64(n) {
		return fmt.Errorf("receiver ladder: %v %v, %d of %d missing", errs[0], errs[1], len(tr.Missing()), n)
	}
	m["core.receiver_ns_per_frame"] = float64(elapsed) / float64(n)
	return nil
}

// publishStages is the chain of a frame the benchmark publishes itself; it
// stamps the frame as it enters PublishAt, so the chain starts there.
var publishStages = []trace.Stage{
	{Name: "hub.publish", From: trace.PubStart, To: trace.PubEnd},
	{Name: "hub.wake_to_write", From: trace.PubEnd, To: trace.SinkIn},
	{Name: "sink.write", From: trace.SinkIn, To: trace.SinkOut},
}

// publishLadder attaches subs sinks to an ExternalSource hub and publishes
// into it on a CBR schedule from here, so the generator tick's critical
// section — PublishAt: ring publish, every shard's lag walk and wake, the
// governor pass — can be timed from outside, and the time from its return
// to the frame entering a sink with it. budget sets MaxBytes (high enough
// never to shed: only the accounting walk is added).
func publishLadder(subs int, hz float64, frames int, budget bool, seed int64) (pubNs, attachNs []float64, spans []trace.Span, short []string, err error) {
	payload := frozen.Steady.Payload
	cfg := hub.Config{
		ExternalSource: true,
		Stream:         core.Config{Mu: hz, PayloadSize: payload},
		ReattachGrace:  -1,
	}
	if budget {
		cfg.MaxBytes = 1 << 40
	}
	h, err := hub.New(cfg)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	defer h.Close()
	rec := trace.NewRecorder(4)
	rng := rand.New(rand.NewSource(seed))
	var gate liveGate
	gate.expect(subs)
	sinks := make([]*sink.Sink, subs)
	for i := range sinks {
		sc := sink.Config{ID: int32(i), Tau: time.Second, In: trace.SinkIn, Out: trace.SinkOut, OnFirst: gate.arrived}
		if i%16 == 0 {
			sc.Trace = rec
		}
		sinks[i] = sink.New(sc)
		t0 := time.Now()
		if err := h.AttachJoined(sinks[i], core.Join{StreamID: h.StreamID(), Token: newToken(rng, i)}); err != nil {
			return nil, nil, nil, nil, err
		}
		attachNs = append(attachNs, float64(time.Since(t0)))
	}
	buf := make([]byte, payload)
	period := time.Duration(float64(time.Second) / hz)
	base := time.Now()
	const lead = 16 // unrecorded frames: senders start, pools fill
	for i := 0; i < lead+frames; i++ {
		due := base.Add(time.Duration(i) * period)
		time.Sleep(time.Until(due))
		if i == lead {
			rec.Enable(true)
		}
		sink.Fill(uint32(i), buf)
		t0 := time.Now()
		gen := t0.UnixNano()
		ok := h.PublishAt(int64(i), gen, buf)
		t1 := time.Now()
		if !ok {
			return nil, nil, nil, nil, fmt.Errorf("publish ladder: frame %d refused", i)
		}
		if i < lead {
			continue
		}
		pubNs = append(pubNs, float64(t1.Sub(t0)))
		if rec.Sampled(gen) {
			rec.Mark(gen, trace.PubStart, gen, trace.Shared)
			rec.Mark(gen, trace.PubEnd, t1.UnixNano(), trace.Shared)
		}
	}
	if err := gate.wait(liveLimit); err != nil {
		return nil, nil, nil, nil, err
	}
	if !h.Drain(drainLimit) {
		short = append(short, fmt.Sprintf("publish ladder: %d sinks did not drain within %v", subs, drainLimit))
	}
	var skipped int64
	for _, s := range sinks {
		fin := s.Final()
		if bad, _ := checkSink(s.ID(), fin); len(bad) > 0 {
			return nil, nil, nil, nil, fmt.Errorf("publish ladder: %v", bad)
		}
		skipped += fin.Gaps + fin.TailGap
	}
	if skipped > 0 {
		short = append(short, fmt.Sprintf("publish ladder: %d sinks saw %d frames skipped", subs, skipped))
	}
	return pubNs, attachNs, trace.Build(rec.Events(), "frame", publishStages), short, nil
}

// emunetLadder measures one-way latency through an unimpaired emunet
// relay: the emulation fixture's own floor. If it moves, multipath_emu's
// delays moved for a reason that is not core's.
func emunetLadder(div int, m map[string]float64) error {
	relay, send, recv, err := dialPath(emunet.PathConfig{})
	if err != nil {
		return err
	}
	defer relay.Close()
	defer send.Close()
	defer recv.Close()
	n := 250/div + 10
	var lat []float64
	done := make(chan error, 1)
	go func() {
		var msg [8]byte
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(recv, msg[:]); err != nil {
				done <- err
				return
			}
			lat = append(lat, float64(time.Now().UnixNano()-int64(binary.BigEndian.Uint64(msg[:]))))
		}
		done <- nil
	}()
	_ = send.SetDeadline(time.Now().Add(10 * time.Second))
	_ = recv.SetDeadline(time.Now().Add(10 * time.Second))
	var msg [8]byte
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(msg[:], uint64(time.Now().UnixNano()))
		if _, err := send.Write(msg[:]); err != nil {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := <-done; err != nil {
		return err
	}
	m["emunet.passthrough_p50_us"] = stat.Median(lat) / 1e3
	return nil
}

// ladder climbs every fixture and returns the publish fixture's spans and
// any shortfall a fixture saw. div shrinks populations and iteration counts
// (1 when measuring).
func ladder(seed int64, div int, m map[string]float64) ([]trace.Span, []string, error) {
	wireLadder(div, m)
	if err := senderLadder(div, m); err != nil {
		return nil, nil, err
	}
	if err := receiverLadder(div, m); err != nil {
		return nil, nil, err
	}
	if err := emunetLadder(div, m); err != nil {
		return nil, nil, err
	}
	frames := 300/div + 20
	// The 1k fixture is fanout_steady's operating point driven from
	// outside; the 4k one publishes slower, so that what it times is the
	// tick's O(subscribers) walk and not a saturated box.
	st := frozen.Steady
	pub, attach, spans, short, err := publishLadder(1000/div, st.Mu, frames, false, seed)
	if err != nil {
		return nil, nil, err
	}
	m["hub.publish_1k_p50_us"] = stat.Median(pub) / 1e3
	m["hub.publish_1k_p99_us"] = stat.Quantile(pub, 0.99) / 1e3
	m["hub.attach_p50_us"] = stat.Median(attach) / 1e3
	wake := trace.Durations(spans, "hub.wake_to_write")
	m["hub.wake_to_write_p50_us"] = stat.Median(wake) / 1e3
	m["hub.wake_to_write_p99_us"] = stat.Quantile(wake, 0.99) / 1e3
	pub, _, _, more, err := publishLadder(4000/div, st.Mu/5, frames/4, false, seed)
	if err != nil {
		return nil, nil, err
	}
	short = append(short, more...)
	m["hub.publish_4k_p50_us"] = stat.Median(pub) / 1e3
	if pub, _, _, more, err = publishLadder(1000/div, st.Mu, frames, true, seed); err != nil {
		return nil, nil, err
	}
	short = append(short, more...)
	m["hub.publish_budget_p50_us"] = stat.Median(pub) / 1e3
	return spans, short, nil
}
