package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"syscall"
	"time"

	"dmpstream/benchmark/sink"
	"dmpstream/benchmark/stat"
	"dmpstream/benchmark/trace"
	"dmpstream/internal/core"
	"dmpstream/internal/emunet"
)

// session is one copy of the paper's scheme: a core.Server striping a CBR
// stream over two loopback-TCP paths, each through an emunet relay that
// gives it a bandwidth, a delay and (path 0) periodic congestion, into one
// core.Receiver.
type session struct {
	srv      *core.Server
	sess     *core.Session
	recv     *core.Receiver
	rc       *recvCounter
	episodes *emunet.Episodes
	relays   []*emunet.Relay
	conns    []net.Conn // both ends of both paths

	wg      sync.WaitGroup
	recvErr [2]error
}

// multipath is a running multipath_emu instance.
type multipath struct {
	p        multipathParams
	rec      *trace.Recorder
	sessions []*session
	probe    *stat.GenProbe
	gate     liveGate
	all      group
}

// wanMSS clamps a socket's TCP segment size to an Ethernet path's before
// it connects or listens. Loopback's own MSS is 64 KiB; against the few
// KiB of socket buffer an emulated path gets, the kernel's silly-window
// avoidance would then hold window updates back until a delayed-ACK timer
// fires, and the path's throughput would be set by that timer instead of
// by the emulated rate.
func wanMSS(_, _ string, c syscall.RawConn) error {
	var serr error
	if err := c.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_TCP, syscall.TCP_MAXSEG, 1460)
	}); err != nil {
		return err
	}
	return serr
}

// dialPath opens one emulated path and returns its sender and receiver
// ends. The sender dials the relay, so the relay's impaired direction is
// the one the stream flows in.
func dialPath(cfg emunet.PathConfig) (relay *emunet.Relay, send, recv net.Conn, err error) {
	lc := net.ListenConfig{Control: wanMSS}
	ln, err := lc.Listen(context.Background(), "tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	defer ln.Close()
	if relay, err = emunet.Listen("127.0.0.1:0", ln.Addr().String(), cfg); err != nil {
		return nil, nil, nil, err
	}
	d := net.Dialer{Timeout: 5 * time.Second, Control: wanMSS}
	if send, err = d.Dial("tcp", relay.Addr()); err != nil {
		_ = relay.Close()
		return nil, nil, nil, err
	}
	_ = ln.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
	if recv, err = ln.Accept(); err != nil {
		_ = send.Close()
		_ = relay.Close()
		return nil, nil, nil, err
	}
	return relay, send, recv, nil
}

func buildMultipath(p multipathParams, seed int64, rec *trace.Recorder) (*multipath, error) {
	m := &multipath{p: p, rec: rec, probe: stat.NewGenProbe(p.Mu)}
	m.gate.expect(p.Sessions)
	// The seed moves the congestion phase. Every session shares it, so
	// three seconds in four are free of congestion for all of them and
	// the per-second percentiles fall into two clean classes.
	phase := time.Duration(seed%16) * p.EpisodeEvery / 16
	for i := 0; i < p.Sessions; i++ {
		s, err := m.startSession(int32(i), phase, seed)
		if err != nil {
			m.abort()
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		m.sessions = append(m.sessions, s)
		m.all.add(s.rc)
	}
	if err := m.gate.wait(liveLimit); err != nil {
		m.abort()
		return nil, err
	}
	return m, nil
}

func (m *multipath) startSession(id int32, phase time.Duration, seed int64) (*session, error) {
	p := m.p
	srv, err := core.NewServer(core.Config{Mu: p.Mu, PayloadSize: p.Payload, Fill: sink.Fill})
	if err != nil {
		return nil, err
	}
	s := &session{srv: srv, rc: &recvCounter{id: id, tau: p.Tau, rec: m.rec, gate: &m.gate}}
	if id == 0 {
		s.rc.probe = m.probe
	}
	s.episodes = emunet.NewPeriodicEpisodes(p.EpisodeEvery, p.EpisodeLen, phase)
	s.recv = core.NewReceiver(core.ReceiverOptions{
		// The slower path ends a standing queue after the faster one; the
		// only limit on that is finish's own, so a cut is always its doing.
		EndGrace: 2 * drainLimit,
		OnPacket: func(pkt uint32, gen int64, payload []byte) { s.rc.onPacket(pkt, gen, payload, true) },
	})
	var send [2]net.Conn
	for k := 0; k < 2; k++ {
		cfg := emunet.PathConfig{RateBps: p.RateBps[k], Delay: p.Delay[k], BufferKiB: p.BufferKiB, Seed: seed + int64(k)}
		if k == 0 {
			cfg.Shared, cfg.EpisodeFactor = s.episodes, p.EpisodeFactor
		}
		relay, sc, cc, err := dialPath(cfg)
		if err != nil {
			s.close()
			s.wg.Wait()
			return nil, err
		}
		s.relays = append(s.relays, relay)
		s.conns = append(s.conns, sc, cc)
		if tc, ok := sc.(*net.TCPConn); ok {
			// A small send buffer, like the relay's, so a congested path
			// pushes back on the sender within a few packets — the signal
			// the scheme allocates by. NoDelay is what AddPath would set
			// if the tap below did not hide the TCP connection from it.
			_ = tc.SetWriteBuffer(p.BufferKiB * 1024)
			_ = tc.SetNoDelay(true)
		}
		send[k] = sc
		if m.rec != nil {
			send[k] = &tappedConn{Conn: sc, wr: &tap{rec: m.rec, point: trace.WriteIn, who: id}}
			cc = &tappedConn{Conn: cc, rd: &tap{rec: m.rec, point: trace.ReadDone, who: id}}
		}
		s.wg.Add(1)
		go func(k int, c net.Conn) {
			defer s.wg.Done()
			s.recvErr[k] = s.recv.Run(k, c)
		}(k, cc)
	}
	s.sess = srv.Start()
	for _, c := range send {
		s.sess.AddPath(c)
	}
	return s, nil
}

// stop ends generation and waits for both sides; it returns the packets
// generated and any sender or receiver error.
func (s *session) stop() (int64, error) {
	var generated int64
	var err error
	if s.sess != nil {
		s.srv.Stop()
		generated, err = s.sess.Wait()
	}
	s.wg.Wait()
	return generated, errors.Join(err, s.recvErr[0], s.recvErr[1])
}

func (s *session) close() {
	for _, c := range s.conns {
		_ = c.Close()
	}
	for _, r := range s.relays {
		_ = r.Close()
	}
	s.episodes.Stop()
}

func (m *multipath) groups() map[string]*group {
	return map[string]*group{"all": &m.all, "healthy": &m.all}
}

func (m *multipath) counters() map[string]float64 {
	c := map[string]float64{}
	for _, s := range m.sessions {
		c["generated"] += float64(s.srv.Generated())
		counts := s.srv.PathCounts()
		c["path_fast"] += float64(counts[0])
		c["path_slow"] += float64(counts[1])
	}
	return c
}

func (m *multipath) rate() float64 { return m.p.Mu * float64(m.p.Sessions) }

func (m *multipath) stages() []trace.Stage {
	return []trace.Stage{
		{Name: "core.queue_to_write", From: trace.Gen, To: trace.WriteIn},
		{Name: "emunet.transit", From: trace.WriteIn, To: trace.ReadDone},
		{Name: "core.reassembly", From: trace.ReadDone, To: trace.Delivered},
	}
}

func (m *multipath) layers(w window, spans []trace.Span) map[string]float64 {
	var arrivals, reordered int64
	for _, s := range m.sessions {
		tr := s.recv.Trace()
		kept := tr.Arrivals[:0]
		for _, a := range tr.Arrivals {
			if a.At >= w.from.UnixNano() && a.At < w.to.UnixNano() {
				kept = append(kept, a)
			}
		}
		tr.Arrivals = kept
		arrivals += int64(len(kept))
		reordered += tr.ReorderCount()
	}
	return map[string]float64{
		"core.queue_to_write_p50_us": stat.Median(trace.Durations(spans, "core.queue_to_write")) / 1e3,
		"core.path_share_fast":       w.counters["path_fast"] / (w.counters["path_fast"] + w.counters["path_slow"]),
		"core.reorder_frac":          ratio(reordered, arrivals),
		"bench.generator_lag_p99_us": stat.Quantile(m.probe.Lateness(w.from.UnixNano(), w.to.UnixNano()), 0.99) / 1e3,
	}
}

func (m *multipath) abort() {
	for _, s := range m.sessions {
		s.srv.Stop()
		s.close() // cut the paths first: nothing here needs the tail delivered
		_, _ = s.stop()
	}
}

// finish ends every session gracefully — the senders drain their queues,
// every path carries its end marker through the emulated network — and
// checks that each receiver got exactly the stream its server generated.
func (m *multipath) finish() verdict {
	var v verdict
	for _, s := range m.sessions {
		s.srv.Stop() // all at once, so the drains through the emulated paths overlap
	}
	for i, s := range m.sessions {
		// A path that stalls while draining (a closed TCP window probed on
		// an exponential timer, a box that stops for seconds) must cost the
		// run seconds, not minutes: past the limit the paths are cut and
		// the tail counts as lost — a shortfall. Short of that, everything
		// generated must have arrived.
		cut := time.AfterFunc(drainLimit, s.close)
		generated, err := s.stop()
		drained := cut.Stop()
		s.close()
		tr := s.recv.Trace()
		missing := int64(len(tr.Missing()))
		if !drained {
			if tr.Expected < generated { // no end marker got through: Missing() saw only part of the stream
				missing += generated - tr.Expected
			}
			v.short = append(v.short, fmt.Sprintf("session %d: still draining after %v; paths cut, %d of %d packets lost", i, drainLimit, missing, generated))
		} else {
			if err != nil {
				v.bad = append(v.bad, fmt.Sprintf("session %d: %v", i, err))
			}
			if tr.Expected != generated || missing != 0 {
				v.bad = append(v.bad, fmt.Sprintf("session %d: %d generated, end marker says %d, %d never arrived", i, generated, tr.Expected, missing))
			}
		}
		if n := s.rc.badPayloads(); n != 0 {
			v.bad = append(v.bad, fmt.Sprintf("session %d: %d payloads did not match their packet number", i, n))
		}
		v.lostAll += missing
		v.lostHealthy += missing
	}
	return v
}
