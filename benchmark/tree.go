package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"dmpstream/benchmark/sink"
	"dmpstream/benchmark/stat"
	"dmpstream/benchmark/trace"
	"dmpstream/internal/core"
	"dmpstream/internal/hub"
	"dmpstream/internal/relay"
)

// tcpLeaf is a real single-path subscriber of the relay: a loopback TCP
// connection read by a core.Receiver.
type tcpLeaf struct {
	conn net.Conn
	recv *core.Receiver
	rc   *recvCounter
	err  error
}

// tree is a running tree_edge instance: an origin hub with sinks attached
// directly, one relay.Relay subscribed to it over loopback TCP, and the
// relay's hub re-fanning to sink leaves and TCP leaves. Everything
// reported end to end is taken at the relay's leaves.
type tree struct {
	p treeParams

	origin  *hub.Hub
	relay   *relay.Relay
	ready   time.Duration // relay.New → local hub up
	probe   *stat.GenProbe
	gate    liveGate
	leaves  group
	direct  []*sink.Sink // origin-attached
	sinks   []*sink.Sink // relay-attached
	tcp     []*tcpLeaf
	wg      sync.WaitGroup
	serving sync.WaitGroup
}

func buildTree(p treeParams, seed int64, rec *trace.Recorder) (*tree, error) {
	t := &tree{p: p, probe: stat.NewGenProbe(p.Mu)}
	rng := rand.New(rand.NewSource(seed))
	origin, err := hub.New(hub.Config{Stream: core.Config{Mu: p.Mu, PayloadSize: p.Payload, Fill: sink.Fill}})
	if err != nil {
		return nil, err
	}
	t.origin = origin
	oln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		origin.Close()
		return nil, err
	}
	t.serve(func() error { return origin.Serve(oln) })
	joined := 0
	join := func() core.Join {
		joined++
		return core.Join{StreamID: origin.StreamID(), Token: newToken(rng, joined)}
	}

	t.gate.expect(p.OriginSubs + p.LeafSubs + p.TCPLeaves)
	for i := 0; i < p.OriginSubs; i++ {
		cfg := sink.Config{ID: int32(i), Tau: p.Tau, OnFirst: t.gate.arrived}
		if i == 0 {
			// The reference the relay's added delay is measured against:
			// when the same frame reached a subscriber of the origin itself.
			cfg.Trace, cfg.In, cfg.Shared = rec, trace.OriginIn, true
		}
		s := sink.New(cfg)
		if err := origin.AttachJoined(s, join()); err != nil {
			t.abort()
			return nil, fmt.Errorf("attach origin sink %d: %w", i, err)
		}
		t.direct = append(t.direct, s)
	}

	t0 := time.Now()
	t.relay, err = relay.New(relay.Config{
		Upstreams: []string{oln.Addr().String()},
		StreamID:  origin.StreamID(),
		Paths:     p.UpPaths,
		Token:     newToken(rng, 0),
	})
	if err != nil {
		t.abort()
		return nil, err
	}
	select {
	case <-t.relay.Ready():
	case <-time.After(liveLimit):
		t.abort()
		return nil, fmt.Errorf("relay not ready within %v", liveLimit)
	}
	t.ready = time.Since(t0)
	edge := t.relay.Hub()
	for i := 0; i < p.LeafSubs; i++ {
		cfg := sink.Config{ID: int32(p.OriginSubs + i), Tau: p.Tau, In: trace.SinkIn, Out: trace.SinkOut, OnFirst: t.gate.arrived}
		if i%8 == 0 {
			cfg.Trace = rec
		}
		if i == 0 {
			cfg.Probe = t.probe
		}
		s := sink.New(cfg)
		if err := edge.AttachJoined(s, join()); err != nil {
			t.abort()
			return nil, fmt.Errorf("attach leaf sink %d: %w", i, err)
		}
		t.sinks = append(t.sinks, s)
		t.leaves.add(s)
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.abort()
		return nil, err
	}
	t.serve(func() error { return t.relay.Serve(rln) })
	for i := 0; i < p.TCPLeaves; i++ {
		conn, err := net.DialTimeout("tcp", rln.Addr().String(), 5*time.Second)
		if err == nil {
			err = core.WriteJoin(conn, join())
		}
		if err != nil {
			t.abort()
			return nil, fmt.Errorf("tcp leaf %d: %w", i, err)
		}
		l := &tcpLeaf{conn: conn, rc: &recvCounter{id: int32(p.OriginSubs + p.LeafSubs + i), tau: p.Tau, gate: &t.gate}}
		l.recv = core.NewReceiver(core.ReceiverOptions{
			OnPacket: func(pkt uint32, gen int64, payload []byte) { l.rc.onPacket(pkt, gen, payload, false) },
		})
		t.tcp = append(t.tcp, l)
		t.leaves.add(l.rc)
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			l.err = l.recv.Run(0, l.conn)
		}()
	}
	if err := t.gate.wait(liveLimit); err != nil {
		t.abort()
		return nil, err
	}
	return t, nil
}

// serve runs an accept loop until its hub closes the listener.
func (t *tree) serve(loop func() error) {
	t.serving.Add(1)
	go func() {
		defer t.serving.Done()
		_ = loop() // returns when the hub stops; join failures are counted in its Stats
	}()
}

func (t *tree) groups() map[string]*group {
	return map[string]*group{"all": &t.leaves, "healthy": &t.leaves}
}

func (t *tree) hubs() []*hub.Hub {
	hubs := []*hub.Hub{t.origin}
	if t.relay != nil {
		if h := t.relay.Hub(); h != nil {
			hubs = append(hubs, h)
		}
	}
	return hubs
}

func (t *tree) counters() map[string]float64 {
	c := map[string]float64{"generated": float64(t.origin.Generated())}
	for _, h := range t.hubs() {
		hubCounters(c, h)
	}
	st := t.relay.Stats()
	c["forwarded"] = float64(st.Forwarded)
	c["reordered"] = float64(st.Reordered)
	c["late_drops"] = float64(st.LateDrops)
	c["gap_skips"] = float64(st.GapSkips)
	c["refused"] = float64(st.Refused)
	return c
}

func (t *tree) rate() float64 { return t.p.Mu }

func (t *tree) stages() []trace.Stage {
	return []trace.Stage{
		{Name: "origin.write", From: trace.Gen, To: trace.OriginIn},
		{Name: "relay.hop", From: trace.OriginIn, To: trace.SinkIn},
		{Name: "leaf.write", From: trace.SinkIn, To: trace.SinkOut},
	}
}

func (t *tree) layers(w window, spans []trace.Span) map[string]float64 {
	hop := trace.Durations(spans, "relay.hop")
	sinkFrames := float64(w.all.Frames) * float64(t.p.LeafSubs) / float64(t.p.LeafSubs+t.p.TCPLeaves)
	m := hubLayers(w, t.rate(), sinkFrames)
	m["relay.hop_delay_p50_us"] = stat.Median(hop) / 1e3
	m["relay.hop_delay_p99_us"] = stat.Quantile(hop, 0.99) / 1e3
	m["relay.ready_s"] = t.ready.Seconds()
	m["relay.forwarded_per_s"] = w.counters["forwarded"] / w.elapsed
	m["relay.reordered_frac"] = w.counters["reordered"] / w.counters["forwarded"]
	m["relay.late_drops"] = w.counters["late_drops"]
	m["relay.gap_skips"] = w.counters["gap_skips"]
	m["relay.refused"] = w.counters["refused"]
	m["bench.generator_lag_p99_us"] = stat.Quantile(t.probe.Lateness(w.from.UnixNano(), w.to.UnixNano()), 0.99) / 1e3
	return m
}

func (t *tree) abort() {
	if t.relay != nil {
		t.relay.Close()
	}
	t.origin.Close()
	for _, l := range t.tcp {
		_ = l.conn.Close()
	}
	t.wg.Wait()
	t.serving.Wait()
}

// finish ends the stream at the origin and lets the end travel down the
// tree: the origin's paths drain and carry end markers, the relay
// republishes its tail and ends its own hub, every leaf gets its marker.
// Then each leaf must account for exactly the stream the relay served it.
func (t *tree) finish() verdict {
	var v verdict
	drained := true
	if !t.origin.Drain(drainLimit) {
		drained = false
		v.short = append(v.short, fmt.Sprintf("origin did not drain within %v", drainLimit))
	}
	// The relay must read its upstream's end markers before it is told to
	// go, or Drain would cut the paths with the tail still in flight.
	for deadline := time.Now().Add(drainLimit); !t.relay.Stats().Ended; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			drained = false
			v.short = append(v.short, "relay never saw its upstream end")
			break
		}
	}
	if !t.relay.Drain(drainLimit) {
		drained = false
		v.short = append(v.short, fmt.Sprintf("relay did not drain within %v", drainLimit))
	}
	t.wg.Wait()
	// A drained hub keeps its listener open to answer late joiners with a
	// verdict; Close is what ends the accept loops.
	t.relay.Close()
	t.origin.Close()
	t.serving.Wait()
	for _, l := range t.tcp {
		_ = l.conn.Close()
		tr := l.recv.Trace()
		missing := int64(len(tr.Missing()))
		if l.err != nil || tr.Expected == 0 || missing != 0 {
			// A TCP leaf is dropped from the tail of a stream only by a
			// drain that ran out of time; in the middle, by lagging a whole
			// ring, which its receiver reads as missing packets.
			msg := fmt.Sprintf("tcp leaf %d: %v; %d of %d packets missing", l.rc.id, l.err, missing, tr.Expected)
			if drained && missing == 0 {
				v.bad = append(v.bad, msg)
			} else {
				v.short = append(v.short, msg)
			}
		}
		if n := l.rc.badPayloads(); n != 0 {
			v.bad = append(v.bad, fmt.Sprintf("tcp leaf %d: %d payloads did not match the pattern", l.rc.id, n))
		}
		v.lostAll += missing
		v.lostHealthy += missing
	}
	var skipped int64
	unended := 0
	for _, s := range append(append([]*sink.Sink(nil), t.direct...), t.sinks...) {
		fin := s.Final()
		bad, ended := checkSink(s.ID(), fin)
		v.bad = append(v.bad, bad...)
		if !ended {
			unended++
		}
		skipped += fin.Gaps + fin.TailGap
	}
	if unended > 0 {
		msg := fmt.Sprintf("%d sinks never read an end marker", unended)
		if drained {
			v.bad = append(v.bad, msg) // nothing evicts here: no budget, no slow subscriber
		} else {
			v.short = append(v.short, msg)
		}
	}
	if st := t.relay.Stats(); st.GapSkips != 0 || st.Refused != 0 {
		v.short = append(v.short, fmt.Sprintf("relay abandoned %d sequences and had %d publishes refused", st.GapSkips, st.Refused))
	}
	var dropped int64 // the relay's own subscription and the TCP leaves count here too
	for _, h := range t.hubs() {
		dropped += h.TotalDropped()
		if pc := h.PoolCheck(); pc.DoublePuts != 0 || pc.PoisonTrips != 0 {
			v.bad = append(v.bad, fmt.Sprintf("pool double puts %d, poison trips %d", pc.DoublePuts, pc.PoisonTrips))
		}
	}
	if skipped > 0 || dropped > 0 {
		v.short = append(v.short, fmt.Sprintf("sinks saw %d frames skipped and the hubs dropped %d, in a tree with no slow subscriber", skipped, dropped))
	}
	return v
}
