// Package tcpsim implements packet-granularity TCP Reno endpoints on the
// discrete-event simulator.
//
// This is the transport substrate that replaces ns-2 in the reproduction.
// Each data segment carries exactly one application packet (one MSS), which
// matches the paper's packet-based accounting: the video source emits
// fixed-size packets and the model reasons about per-packet loss.
//
// The sender implements the Reno loss recovery the paper's model reconstructs:
// slow start, congestion avoidance with delayed-ACK-paced growth, fast
// retransmit on three duplicate ACKs, fast recovery with window inflation,
// and retransmission timeouts with exponential backoff (RFC 6298 estimator).
// Crucially for DMP-streaming, the sender has a finite send buffer and a
// writability callback: an application can only hand the sender a packet when
// buffer space is available, which is the backpressure signal DMP-streaming
// uses to infer per-path achievable throughput.
package tcpsim

import (
	"fmt"

	"dmpstream/internal/netsim"
	"dmpstream/internal/sim"
)

// Flavor selects the loss-recovery variant.
type Flavor int

// Supported TCP flavors.
const (
	// Reno exits fast recovery on the first ACK that advances sndUna
	// (classic RFC 2581 behavior; multiple losses per window usually cost a
	// timeout). This is what the paper's experiments use.
	Reno Flavor = iota
	// NewReno stays in fast recovery across partial ACKs, retransmitting one
	// hole per RTT (RFC 6582), which survives multi-loss windows without
	// timeouts. Provided for the TCP-flavor ablation.
	NewReno
)

// Config holds per-connection TCP parameters. Zero values select defaults.
type Config struct {
	MSS        int     // data segment size in bytes (default 1500)
	AckSizeB   int     // ACK wire size (default 40)
	SndBufPkts int     // send buffer capacity in packets (default 16)
	InitCwnd   float64 // initial congestion window (default 2)
	MaxCwnd    float64 // congestion window cap in packets (default 32)
	Flavor     Flavor  // loss recovery variant (default Reno)

	MinRTO  sim.Time // lower bound on the retransmission timer (default 200ms)
	MaxRTO  sim.Time // upper bound (default 60s)
	InitRTO sim.Time // before the first RTT sample (default 1s)

	DelAckTimeout sim.Time // delayed-ACK timer (default 100ms)
	AckEvery      int      // ACK every n-th in-order segment (default 2)
}

func (c Config) withDefaults() Config {
	if c.MSS == 0 {
		c.MSS = 1500
	}
	if c.AckSizeB == 0 {
		c.AckSizeB = 40
	}
	if c.SndBufPkts == 0 {
		c.SndBufPkts = 16
	}
	if c.InitCwnd == 0 {
		c.InitCwnd = 2
	}
	if c.MaxCwnd == 0 {
		c.MaxCwnd = 32
	}
	if c.MinRTO == 0 {
		c.MinRTO = 200 * sim.Millisecond
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 60 * sim.Second
	}
	if c.InitRTO == 0 {
		c.InitRTO = sim.Second
	}
	if c.DelAckTimeout == 0 {
		c.DelAckTimeout = 100 * sim.Millisecond
	}
	if c.AckEvery == 0 {
		c.AckEvery = 2
	}
	return c
}

// dataSeg is the payload of a forward-path packet.
type dataSeg struct {
	seq int64
	app any // application payload unit riding in this segment
}

// ackSeg is the payload of a reverse-path packet.
type ackSeg struct {
	ack int64 // cumulative: next expected sequence
}

// SenderStats accumulates sender-side counters used to regenerate the
// paper's Table 2/3 path parameters.
type SenderStats struct {
	Sent            int64 // data segments put on the wire, incl. retransmissions
	Retransmits     int64
	Timeouts        int64
	FastRetransmits int64
	AckedPkts       int64

	RTTSampleSum sim.Time
	RTTSamples   int64
	RTOSampleSum sim.Time // RTO value recorded at each RTT sample
}

// MeanRTT returns the average of the sender's RTT samples (0 if none).
func (st SenderStats) MeanRTT() sim.Time {
	if st.RTTSamples == 0 {
		return 0
	}
	return st.RTTSampleSum / sim.Time(st.RTTSamples)
}

// MeanRTO returns the average first-retransmission-timer value (0 if none).
func (st SenderStats) MeanRTO() sim.Time {
	if st.RTTSamples == 0 {
		return 0
	}
	return st.RTOSampleSum / sim.Time(st.RTTSamples)
}

// Sender is the TCP Reno sending endpoint.
type Sender struct {
	sim  *sim.Simulator
	cfg  Config
	flow netsim.FlowID
	out  netsim.Sink // forward path toward the receiver

	// Sequence space, in packets.
	sndUna int64 // oldest unacknowledged
	sndNxt int64 // next new segment to send
	appSeq int64 // next slot the application will fill; buffer holds [sndUna, appSeq)
	buf    []any // ring: payload for seq s lives at s % SndBufPkts

	cwnd       float64
	ssthresh   float64
	dupAcks    int
	inRecovery bool
	recover    int64 // sndNxt at loss detection; recovery ends when acked past it

	// RFC 6298 estimator.
	srtt, rttvar sim.Time
	rto          sim.Time
	backoff      uint
	hasSample    bool

	// One outstanding RTT measurement (Karn's algorithm: abandoned on any
	// retransmission).
	timing   bool
	timedSeq int64
	timedAt  sim.Time

	rtxTimer *sim.Timer

	// Writable, if set, is called whenever send-buffer space may have become
	// available. DMP-streaming and the background sources drive their data
	// production from this callback.
	Writable func()
	// OnAllAcked, if set, is called when every written packet has been acked.
	OnAllAcked func()

	stats SenderStats
}

// Receiver is the TCP receiving endpoint: cumulative ACKs, delayed ACKs,
// immediate duplicate ACKs on out-of-order arrival, in-order delivery.
type Receiver struct {
	sim  *sim.Simulator
	cfg  Config
	flow netsim.FlowID
	out  netsim.Sink // reverse path toward the sender

	rcvNxt  int64
	ooo     map[int64]any // buffered out-of-order payloads
	pending int           // in-order segments not yet acked
	delack  *sim.Timer

	// OnDeliver receives application payloads in sequence order.
	OnDeliver func(seq int64, app any)

	Delivered int64 // in-order packets handed to the application
	DupAcks   int64 // duplicate ACKs generated
}

// Conn couples a sender and receiver.
type Conn struct {
	Snd *Sender
	Rcv *Receiver
}

// NewConn creates a connection. fwd carries data sender→receiver; rev carries
// ACKs receiver→sender. The endpoints terminate the paths themselves: point
// fwd's final sink at Conn.Rcv and rev's final sink at Conn.Snd via the
// returned endpoints' Deliver methods (see netsim.NewPath).
func NewConn(s *sim.Simulator, flow netsim.FlowID, cfg Config) *Conn {
	cfg = cfg.withDefaults()
	snd := &Sender{
		sim:      s,
		cfg:      cfg,
		flow:     flow,
		cwnd:     cfg.InitCwnd,
		ssthresh: cfg.MaxCwnd,
		rto:      cfg.InitRTO,
		buf:      make([]any, cfg.SndBufPkts),
	}
	rcv := &Receiver{
		sim:  s,
		cfg:  cfg,
		flow: flow,
		ooo:  make(map[int64]any),
	}
	return &Conn{Snd: snd, Rcv: rcv}
}

// Wire attaches the forward and reverse paths. It must be called before any
// data is written. Typically: c.Wire(netsim.NewPath(c.Rcv, fwdLinks...),
// netsim.NewPath(c.Snd, revLinks...)).
func (c *Conn) Wire(fwd, rev netsim.Sink) {
	c.Snd.out = fwd
	c.Rcv.out = rev
}

// ---------- Sender ----------

// Stats returns a snapshot of sender counters.
func (s *Sender) Stats() SenderStats { return s.stats }

// Cwnd returns the current congestion window (packets).
func (s *Sender) Cwnd() float64 { return s.cwnd }

// RTO returns the current (un-backed-off) retransmission timeout.
func (s *Sender) RTO() sim.Time { return s.rto }

// BufferedPkts returns the number of packets in the send buffer (unacked +
// unsent).
func (s *Sender) BufferedPkts() int { return int(s.appSeq - s.sndUna) }

// CanWrite reports whether the send buffer has room for another packet.
func (s *Sender) CanWrite() bool {
	return int(s.appSeq-s.sndUna) < s.cfg.SndBufPkts
}

// Write places one application packet into the send buffer. It panics when
// the buffer is full: callers must check CanWrite, which is exactly the
// blocking-write discipline DMP-streaming depends on.
func (s *Sender) Write(app any) {
	if !s.CanWrite() {
		panic(fmt.Sprintf("tcpsim: flow %d: write to full send buffer", s.flow))
	}
	s.buf[s.appSeq%int64(s.cfg.SndBufPkts)] = app
	s.appSeq++
	s.trySend()
}

// effWindow returns the usable congestion window in packets (≥1).
func (s *Sender) effWindow() int64 {
	w := int64(s.cwnd)
	if w < 1 {
		w = 1
	}
	return w
}

// trySend transmits new segments permitted by the window and buffered data.
func (s *Sender) trySend() {
	for s.sndNxt < s.appSeq && s.sndNxt-s.sndUna < s.effWindow() {
		s.transmit(s.sndNxt, false)
		s.sndNxt++
	}
}

// transmit puts segment seq on the wire.
func (s *Sender) transmit(seq int64, isRtx bool) {
	app := s.buf[seq%int64(s.cfg.SndBufPkts)]
	s.out.Deliver(&netsim.Packet{
		Flow:    s.flow,
		SizeB:   s.cfg.MSS,
		Payload: &dataSeg{seq: seq, app: app},
	})
	s.stats.Sent++
	if isRtx {
		s.stats.Retransmits++
	} else if !s.timing {
		s.timing = true
		s.timedSeq = seq
		s.timedAt = s.sim.Now()
	}
	if s.rtxTimer == nil || !s.rtxTimer.Pending() {
		s.armTimer()
	}
}

// effRTO is the backed-off retransmission timeout.
func (s *Sender) effRTO() sim.Time {
	r := s.rto
	for i := uint(0); i < s.backoff && i < 6; i++ {
		r *= 2
	}
	if r > s.cfg.MaxRTO {
		r = s.cfg.MaxRTO
	}
	return r
}

func (s *Sender) armTimer() {
	if s.rtxTimer != nil {
		s.rtxTimer.Cancel()
	}
	s.rtxTimer = s.sim.After(s.effRTO(), s.onTimeout)
}

func (s *Sender) cancelTimer() {
	if s.rtxTimer != nil {
		s.rtxTimer.Cancel()
		s.rtxTimer = nil
	}
}

// onTimeout handles RTO expiry: multiplicative backoff, window collapse,
// go-back-N retransmission of the first unacked segment.
func (s *Sender) onTimeout() {
	if s.sndUna == s.appSeq { // nothing outstanding; stale timer
		return
	}
	s.stats.Timeouts++
	flight := float64(s.sndNxt - s.sndUna)
	if flight < 1 {
		flight = 1
	}
	s.ssthresh = max2(flight/2, 2)
	s.cwnd = 1
	s.sndNxt = s.sndUna
	s.dupAcks = 0
	s.inRecovery = false
	s.timing = false
	if s.backoff < 12 {
		s.backoff++
	}
	s.transmit(s.sndNxt, true)
	s.sndNxt++
	s.armTimer()
}

// Deliver implements netsim.Sink for the reverse path: the sender consumes
// ACK packets.
func (s *Sender) Deliver(pkt *netsim.Packet) {
	seg, ok := pkt.Payload.(*ackSeg)
	if !ok {
		panic(fmt.Sprintf("tcpsim: flow %d: sender received non-ACK payload %T", s.flow, pkt.Payload))
	}
	s.onAck(seg.ack)
}

func (s *Sender) onAck(ack int64) {
	switch {
	case ack > s.sndUna:
		s.onNewAck(ack)
	case ack == s.sndUna && s.sndNxt > s.sndUna:
		s.onDupAck()
	default:
		// Stale ACK (below sndUna): ignore.
	}
}

func (s *Sender) onNewAck(ack int64) {
	if ack > s.sndNxt {
		// A timeout rolled sndNxt back to sndUna (go-back-N) but segments
		// sent before the timeout were in flight and got ACKed. Resume from
		// the ACK point instead of retransmitting already-received data.
		s.sndNxt = ack
	}
	newly := ack - s.sndUna
	for seq := s.sndUna; seq < ack; seq++ {
		s.buf[seq%int64(s.cfg.SndBufPkts)] = nil
	}
	s.sndUna = ack
	s.stats.AckedPkts += newly
	s.backoff = 0

	// RTT sample (Karn: timing is cleared on any retransmission event).
	if s.timing && ack > s.timedSeq {
		s.timing = false
		s.rttSample(s.sim.Now() - s.timedAt)
	}

	switch {
	case s.inRecovery && s.cfg.Flavor == NewReno && ack < s.recover:
		// Partial ACK: another segment of the loss window is missing.
		// Retransmit it, deflate by the amount acked, and stay in recovery
		// (RFC 6582).
		s.cwnd -= float64(newly)
		if s.cwnd < 1 {
			s.cwnd = 1
		}
		s.cwnd++
		s.transmit(s.sndUna, true)
	case s.inRecovery:
		// Recovery complete (Reno: any advancing ACK; NewReno: ACK covering
		// the whole loss window). Deflate to ssthresh.
		s.inRecovery = false
		s.dupAcks = 0
		s.cwnd = s.ssthresh
	default:
		s.dupAcks = 0
		// Classic RFC 2581 growth: one increment per ACK received, so
		// delayed ACKs halve the growth rate (the b=2 of the paper's model).
		if s.cwnd < s.ssthresh {
			s.cwnd++ // slow start
			if s.cwnd > s.ssthresh {
				s.cwnd = s.ssthresh
			}
		} else {
			s.cwnd += 1 / s.cwnd // congestion avoidance
		}
		if s.cwnd > s.cfg.MaxCwnd {
			s.cwnd = s.cfg.MaxCwnd
		}
	}

	if s.sndUna == s.sndNxt {
		s.cancelTimer()
	} else {
		s.armTimer()
	}
	s.trySend()
	s.notifyWritable()
	if s.sndUna == s.appSeq && s.OnAllAcked != nil {
		s.OnAllAcked()
	}
}

func (s *Sender) onDupAck() {
	s.dupAcks++
	switch {
	case s.dupAcks == 3 && !s.inRecovery:
		flight := float64(s.sndNxt - s.sndUna)
		s.ssthresh = max2(flight/2, 2)
		s.cwnd = s.ssthresh + 3
		s.inRecovery = true
		s.recover = s.sndNxt
		s.timing = false
		s.stats.FastRetransmits++
		s.transmit(s.sndUna, true)
		s.armTimer()
	case s.inRecovery:
		s.cwnd++ // window inflation: each dup ACK signals a departure
		if s.cwnd > s.cfg.MaxCwnd+float64(s.cfg.SndBufPkts) {
			s.cwnd = s.cfg.MaxCwnd + float64(s.cfg.SndBufPkts)
		}
		s.trySend()
	}
}

func (s *Sender) rttSample(m sim.Time) {
	if !s.hasSample {
		s.srtt = m
		s.rttvar = m / 2
		s.hasSample = true
	} else {
		d := s.srtt - m
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + m) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < s.cfg.MinRTO {
		s.rto = s.cfg.MinRTO
	}
	if s.rto > s.cfg.MaxRTO {
		s.rto = s.cfg.MaxRTO
	}
	s.stats.RTTSampleSum += m
	s.stats.RTTSamples++
	s.stats.RTOSampleSum += s.rto
}

func (s *Sender) notifyWritable() {
	if s.Writable != nil && s.CanWrite() {
		s.Writable()
	}
}

// ---------- Receiver ----------

// Deliver implements netsim.Sink for the forward path: the receiver consumes
// data segments.
func (r *Receiver) Deliver(pkt *netsim.Packet) {
	seg, ok := pkt.Payload.(*dataSeg)
	if !ok {
		panic(fmt.Sprintf("tcpsim: flow %d: receiver got non-data payload %T", r.flow, pkt.Payload))
	}
	switch {
	case seg.seq == r.rcvNxt:
		r.deliverApp(seg.seq, seg.app)
		r.rcvNxt++
		// Drain any buffered continuation.
		filledGap := false
		for {
			app, ok := r.ooo[r.rcvNxt]
			if !ok {
				break
			}
			delete(r.ooo, r.rcvNxt)
			r.deliverApp(r.rcvNxt, app)
			r.rcvNxt++
			filledGap = true
		}
		r.pending++
		if filledGap || r.pending >= r.cfg.AckEvery {
			r.sendAck()
		} else if r.delack == nil || !r.delack.Pending() {
			r.delack = r.sim.After(r.cfg.DelAckTimeout, r.sendAck)
		}
	case seg.seq > r.rcvNxt:
		if _, dup := r.ooo[seg.seq]; !dup {
			r.ooo[seg.seq] = seg.app
		}
		r.DupAcks++
		r.sendAck() // immediate duplicate ACK
	default:
		// Below rcvNxt: spurious retransmission; re-ACK immediately.
		r.sendAck()
	}
}

func (r *Receiver) deliverApp(seq int64, app any) {
	r.Delivered++
	if r.OnDeliver != nil {
		r.OnDeliver(seq, app)
	}
}

func (r *Receiver) sendAck() {
	r.pending = 0
	if r.delack != nil {
		r.delack.Cancel()
	}
	r.out.Deliver(&netsim.Packet{
		Flow:    r.flow,
		SizeB:   r.cfg.AckSizeB,
		Payload: &ackSeg{ack: r.rcvNxt},
	})
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
