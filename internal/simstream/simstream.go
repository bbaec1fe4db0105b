// Package simstream runs DMP-streaming inside the packet-level simulator.
//
// It implements the scheme of the paper's Section 3 verbatim: a CBR source
// places packets into a server queue; one TCP sender per path fetches packets
// from the head of the queue whenever it can send (send buffer not full),
// draining until it blocks or the queue empties. Because fetching is driven
// by send-buffer backpressure, paths with higher achievable TCP throughput
// automatically carry more packets — the "implicit bandwidth inference" at
// the heart of DMP-streaming.
//
// The client side records every delivered packet in a core.Trace, the same
// record the real implementation's receiver keeps, so one simulation run is
// analyzed for every startup delay τ afterwards, in both true playback order
// and arrival order (the paper's Figs 4a/5a), by the same code that analyzes
// a real session.
package simstream

import (
	"fmt"

	"dmpstream/internal/core"
	"dmpstream/internal/netsim"
	"dmpstream/internal/sim"
	"dmpstream/internal/tcpsim"
	"dmpstream/internal/trafficgen"
)

// VideoConfig describes the live CBR source.
type VideoConfig struct {
	Mu       float64  // playback/generation rate, packets per second
	Duration sim.Time // generation horizon (video length)
}

// Stream couples a CBR generator, the server queue, K TCP senders and the
// client-side trace.
type Stream struct {
	sim   *sim.Simulator
	cfg   VideoConfig
	conns []*tcpsim.Conn

	queue     []int64 // packet numbers awaiting a sender; head at [qhead]
	qhead     int
	generated int64
	rr        int      // round-robin start for the drain loop
	startAt   sim.Time // generation start (packet i is generated at startAt + i/µ)

	trace  core.Trace
	byPath []int64 // packets fetched per path
}

// New builds a stream over pre-wired connections (one per path). Call Start,
// then run the simulator past cfg.Duration plus drain time. It panics unless
// the rate is positive and µ × Duration packet numbers fit below
// core.EndMarker.
func New(s *sim.Simulator, cfg VideoConfig, conns []*tcpsim.Conn) *Stream {
	if !(cfg.Mu > 0) {
		panic(fmt.Sprintf("simstream: non-positive rate %v", cfg.Mu))
	}
	total := cfg.Duration.Seconds() * cfg.Mu
	if !(total < float64(core.EndMarker)) {
		panic(fmt.Sprintf("simstream: %v packets do not fit below the end marker", total))
	}
	if len(conns) == 0 {
		panic("simstream: no paths")
	}
	st := &Stream{sim: s, cfg: cfg, conns: conns, byPath: make([]int64, len(conns))}
	st.trace = core.Trace{Mu: cfg.Mu, Expected: int64(total)}
	for k, c := range conns {
		c.Snd.Writable = st.drain
		c.Rcv.OnDeliver = func(_ int64, app any) {
			pkt := app.(int64)
			// Gen is packet pkt's scheduled instant, the one its deadlines
			// are measured from; generate runs on accumulated 1/µ steps,
			// which drift from it by sub-µs.
			st.trace.Arrivals = append(st.trace.Arrivals, core.Arrival{
				Pkt:  uint32(pkt),
				Path: int32(k),
				Gen:  int64(st.startAt + sim.Seconds(float64(pkt)/cfg.Mu)),
				At:   int64(s.Now()),
			})
		}
	}
	return st
}

// Start begins CBR generation at packet 0, anchored at the current
// simulation time (lateness deadlines are relative to this instant).
func (st *Stream) Start() {
	st.startAt = st.sim.Now()
	st.generate()
}

func (st *Stream) generate() {
	total := st.trace.Expected
	if st.generated >= total {
		return
	}
	st.queue = append(st.queue, st.generated)
	st.generated++
	st.drain()
	if st.generated < total {
		st.sim.After(sim.Seconds(1/st.cfg.Mu), st.generate)
	}
}

// drain implements the server-queue fetch loop: visit senders round-robin;
// each writable sender fetches from the head of the queue until it blocks or
// the queue empties. The sim is single-threaded, so the paper's queue lock is
// implicit.
func (st *Stream) drain() {
	n := len(st.conns)
	for i := 0; i < n && st.qhead < len(st.queue); i++ {
		k := (st.rr + i) % n
		snd := st.conns[k].Snd
		for snd.CanWrite() && st.qhead < len(st.queue) {
			snd.Write(st.queue[st.qhead])
			st.queue[st.qhead] = 0
			st.qhead++
			st.byPath[k]++
		}
	}
	st.rr = (st.rr + 1) % n
	if st.qhead == len(st.queue) {
		st.queue = st.queue[:0]
		st.qhead = 0
	}
}

// Generated returns the number of packets generated so far.
func (st *Stream) Generated() int64 { return st.generated }

// QueueLen returns the current server-queue backlog.
func (st *Stream) QueueLen() int { return len(st.queue) - st.qhead }

// PathCounts returns per-path fetched-packet counts.
func (st *Stream) PathCounts() []int64 {
	out := make([]int64, len(st.byPath))
	copy(out, st.byPath)
	return out
}

// Trace returns the client-side record: one arrival per delivered packet,
// stamped in simulation nanoseconds, with the path that carried it. Expected
// is the planned µ × Duration, so a run stopped before the drain counts the
// packets it never delivered as late. The trace grows while the simulator
// runs; analyze it afterwards.
func (st *Stream) Trace() *core.Trace { return &st.trace }

// Dumbbell builds one bottleneck of the paper's Fig. 3 topology and returns
// the function that wires a flow through it. The bottleneck has rate mbps,
// one-way propagation delay and a buffer of bufPkts packets, with drop-tail
// admission or, when red is set, RED. ftp backlogged and http on/off
// background flows start on it at once, numbered from *next (HTTP flows take
// their numbers as their connections open). Every flow, background or
// attached, reaches the bottleneck over a 100 Mbps 10 ms head link, leaves
// it over a matching tail link, and returns over an uncongested 100 Mbps
// reverse link with the same total delay.
func Dumbbell(s *sim.Simulator, mbps float64, delay sim.Time, bufPkts int, red bool,
	ftp, http int, next *netsim.FlowID) (attach func(netsim.FlowID, *tcpsim.Conn)) {
	demux := make(map[netsim.FlowID]netsim.Sink)
	exit := netsim.SinkFunc(func(pkt *netsim.Packet) {
		if sink, ok := demux[pkt.Flow]; ok {
			sink.Deliver(pkt)
		}
	})
	var ingress netsim.Sink
	if red {
		_, ingress = netsim.NewREDLink(s, "bneck", mbps, delay, bufPkts, netsim.REDConfig{}, exit)
	} else {
		ingress = netsim.NewLink(s, "bneck", mbps, delay, bufPkts, exit)
	}
	attach = func(id netsim.FlowID, c *tcpsim.Conn) {
		head := netsim.NewLink(s, "head", 100, 10*sim.Millisecond, 1<<18, nil)
		tail := netsim.NewLink(s, "tail", 100, 10*sim.Millisecond, 1<<18, nil)
		demux[id] = netsim.NewPath(c.Rcv, tail)
		rev := netsim.NewLink(s, "rev", 100, delay+20*sim.Millisecond, 1<<18, nil)
		c.Wire(netsim.NewPath(ingress, head), netsim.NewPath(c.Snd, rev))
	}
	dial := func() *tcpsim.Conn {
		id := *next
		*next++
		c := tcpsim.NewConn(s, id, tcpsim.Config{})
		attach(id, c)
		return c
	}
	for i := 0; i < ftp; i++ {
		id := *next
		*next++
		f := trafficgen.NewFTP(s, id, tcpsim.Config{})
		attach(id, f.Conn)
		f.Start()
	}
	for i := 0; i < http; i++ {
		// trafficgen's defaults are calibrated against Table 2; see HTTPConfig.
		trafficgen.NewHTTP(s, trafficgen.HTTPConfig{}, dial).Start()
	}
	return attach
}
