// Package tcpmodel defines the per-flow TCP Reno Markov chain used by the
// paper's analytical model of DMP-streaming (Section 4.2).
//
// Each flow's state is the tuple the paper names: window size W, delayed-ACK
// phase C, packets lost in the previous round L, timeout/backoff state E, and
// retransmission flag Q. The paper's detailed transition structure lives in
// an unavailable technical report [32]; this package reconstructs it from the
// paper's description, the loss-process assumptions it cites ([23, 10]:
// rounds are independent, losses within a round are correlated — once one
// packet is lost the rest of the round is lost), and standard Reno behavior
// (PFTK [24]). The reconstruction adds one implementation component, the
// slow-start threshold, documented in DESIGN.md.
//
// Rounds last one RTT on average and are exponentially distributed, making
// the flow a continuous-time Markov chain. Every rate in the chain scales as
// 1/R (timeouts are expressed through the ratio T_O = RTO/RTT), so the
// stationary distribution is independent of R and the achievable throughput
// factorizes as σ = σ̂(p, T_O)/R. That factorization is what lets the
// parameter-space study (Section 7) sweep σ_a/µ by varying R or µ alone.
package tcpmodel

import (
	"fmt"
	"math"

	"dmpstream/internal/markov"
)

// Params are the per-path inputs of the paper's model.
type Params struct {
	P    float64 // per-packet loss probability
	R    float64 // round-trip time, seconds
	TO   float64 // ratio RTO/RTT (the paper's T_O); first timeout lasts TO·R
	Wmax int     // window cap in packets (default 32)

	// StrictDupAck selects the strict reading of the correlated-loss model:
	// fast retransmit is possible only when at least three packets of the
	// loss round itself survived (first loss at position ≥ 4). The default
	// (false) judges duplicate-ACK availability by the window size, matching
	// packet-level Reno where the continuing ACK clock supplies the
	// duplicates. Kept as a knob for the reconstruction ablation
	// (dmpbench -exp ablation-td).
	StrictDupAck bool
}

func (p Params) withDefaults() Params {
	if p.Wmax == 0 {
		p.Wmax = 32
	}
	return p
}

// validate refuses parameters the chain cannot be built from. Each check
// is written so that NaN fails it.
func (p Params) validate() error {
	p = p.withDefaults()
	if !(0 < p.P && p.P < 1) {
		return fmt.Errorf("tcpmodel: loss probability %v outside (0,1)", p.P)
	}
	if !(p.R > 0) || math.IsInf(p.R, 1) {
		return fmt.Errorf("tcpmodel: RTT %v is not finite and > 0", p.R)
	}
	if !(p.TO > 0) || math.IsInf(p.TO, 1) {
		return fmt.Errorf("tcpmodel: timeout ratio %v is not finite and > 0", p.TO)
	}
	if p.Wmax < 4 {
		return fmt.Errorf("tcpmodel: Wmax %d < 4", p.Wmax)
	}
	return nil
}

// State is the per-flow chain state (the paper's X_k plus the slow-start
// threshold SS). Field ranges are small, so the struct is a cheap map key.
type State struct {
	W  uint8 // congestion window, packets (1..Wmax)
	C  uint8 // delayed-ACK phase: window grows when C=1 in congestion avoidance
	L  uint8 // packets lost in the previous round, awaiting detection
	E  uint8 // 0 = normal; k≥1 = timeout phase with backoff 2^(k-1) (capped)
	Q  uint8 // 1 = the pending send in the timeout phase is a retransmission
	SS uint8 // slow-start threshold
}

// Initial returns the canonical start state: slow start from W=1 with a high
// threshold, as after connection establishment.
func Initial(p Params) State {
	p = p.withDefaults()
	return State{W: 1, C: 0, L: 0, E: 0, Q: 0, SS: uint8(p.Wmax / 2)}
}

const maxBackoffExp = 6 // RTO doubling caps at 2^6, as in BSD-lineage stacks

// Transitions returns the outgoing CTMC transitions of state s. The Tag of
// each transition is the number of packets delivered to the receiver by the
// round it represents.
func Transitions(par Params, s State) []markov.Transition[State] {
	par = par.withDefaults()
	if err := par.validate(); err != nil {
		panic(err)
	}
	switch {
	case s.E > 0:
		return timeoutTransitions(par, s)
	case s.L > 0:
		return detectionTransitions(par, s)
	default:
		return sendingTransitions(par, s)
	}
}

// sendingTransitions: a normal round transmitting W packets. With the
// correlated-loss assumption the first loss at position j wipes out the rest
// of the round: j-1 packets arrive, L = W-j+1 are lost.
func sendingTransitions(par Params, s State) []markov.Transition[State] {
	rate := 1 / par.R
	w := int(s.W)
	p := par.P
	trs := make([]markov.Transition[State], 0, w+1)

	// No loss: the whole round arrives and the window opens.
	pNone := math.Pow(1-p, float64(w))
	trs = append(trs, markov.Transition[State]{
		Rate: rate * pNone,
		Tag:  int32(w),
		Next: grow(par, s),
	})

	// First loss at position j. Fast retransmit needs three duplicate ACKs;
	// with a window of at least four, the continuing ACK clock (survivors of
	// this round plus the packets they release) supplies them, so the window
	// size — not the first-loss position — decides TD versus TO. This matches
	// packet-level Reno, where a mid-window loss almost always recovers via
	// fast retransmit when W ≥ 4 (validated by the calibration tests against
	// internal/tcpsim).
	pj := p // (1-p)^(j-1) · p, accumulated incrementally
	for j := 1; j <= w; j++ {
		lost := w - j + 1
		delivered := j - 1
		td := canFastRetransmit(s.W)
		if par.StrictDupAck {
			td = delivered >= 3
		}
		var next State
		if td {
			next = State{W: s.W, C: 0, L: uint8(lost), E: 0, Q: 0, SS: s.SS}
		} else {
			next = enterTimeout(s)
		}
		trs = append(trs, markov.Transition[State]{
			Rate: rate * pj,
			Tag:  int32(delivered),
			Next: next,
		})
		pj *= 1 - p
	}
	return trs
}

// canFastRetransmit reports whether a window can elicit the three duplicate
// ACKs Reno needs.
func canFastRetransmit(w uint8) bool { return w >= 4 }

// grow applies window growth after a fully successful round: doubling below
// the slow-start threshold, +1 every other round (delayed ACKs, the paper's
// b=2) in congestion avoidance.
func grow(par Params, s State) State {
	w, ss := int(s.W), int(s.SS)
	if w < ss { // slow start
		nw := w * 2
		if nw > ss {
			nw = ss
		}
		if nw > par.Wmax {
			nw = par.Wmax
		}
		return State{W: uint8(nw), C: 0, SS: s.SS}
	}
	// Congestion avoidance.
	if s.C == 0 {
		return State{W: s.W, C: 1, SS: s.SS}
	}
	nw := w + 1
	if nw > par.Wmax {
		nw = par.Wmax
	}
	return State{W: uint8(nw), C: 0, SS: s.SS}
}

// enterTimeout is the state entered when a loss round cannot be recovered by
// fast retransmit.
func enterTimeout(s State) State {
	return State{W: 1, C: 0, L: 0, E: 1, Q: 1, SS: halved(s.W)}
}

func halved(w uint8) uint8 {
	h := w / 2
	if h < 2 {
		h = 2
	}
	return h
}

// detectionTransitions: the round after a loss. The surviving packets' ACKs
// slid the window, so the sender transmitted W-L new packets alongside the
// duplicate ACKs that now trigger fast retransmit of the first hole; the
// retransmission is itself subject to loss. Classic Reno recovers one loss
// per window halving; remaining holes re-enter detection with the halved
// window, and when the halved window can no longer produce three duplicate
// ACKs the flow falls back to a timeout.
//
// Delivery accounting: the W-L new packets of this round are credited here
// (their own losses are folded into subsequent rounds' loss draws — at the
// paper's loss rates the correction is below p·(W-L) ≈ 0.2 packet), plus the
// retransmitted packet when it survives. Without this crediting the chain
// underestimates Reno throughput by ~40% against the packet-level
// simulator (see TestThroughputMatchesPacketSimulator).
func detectionTransitions(par Params, s State) []markov.Transition[State] {
	rate := 1 / par.R
	newPkts := int32(s.W) - int32(s.L)
	if newPkts < 0 {
		newPkts = 0
	}
	td := canFastRetransmit(s.W)
	if par.StrictDupAck {
		td = int(s.W)-int(s.L) >= 3
	}
	if !td {
		// The window cannot elicit fast retransmit.
		return []markov.Transition[State]{{Rate: rate, Tag: newPkts, Next: enterTimeout(s)}}
	}
	// One loss event costs one halving (PFTK's TD treatment): a successful
	// recovery round retransmits the hole(s) and resumes congestion
	// avoidance from W/2; a lost retransmission degenerates to a timeout.
	w := halved(s.W)
	afterSuccess := State{W: w, C: 0, SS: w}
	return []markov.Transition[State]{
		{Rate: rate * (1 - par.P), Tag: newPkts + 1, Next: afterSuccess},
		{Rate: rate * par.P, Tag: newPkts, Next: enterTimeout(s)},
	}
}

// timeoutTransitions: the flow idles for the backed-off timeout, then
// retransmits one packet (Q=1). Success re-enters slow start toward the
// halved threshold; failure doubles the backoff.
func timeoutTransitions(par Params, s State) []markov.Transition[State] {
	exp := int(s.E) - 1
	if exp > maxBackoffExp {
		exp = maxBackoffExp
	}
	dur := par.TO * par.R * math.Pow(2, float64(exp))
	rate := 1 / dur
	nextE := s.E + 1
	if int(nextE)-1 > maxBackoffExp {
		nextE = uint8(maxBackoffExp + 1)
	}
	return []markov.Transition[State]{
		{Rate: rate * (1 - par.P), Tag: 1, Next: State{W: 1, C: 0, SS: s.SS}},
		{Rate: rate * par.P, Tag: 0, Next: State{W: 1, C: 0, E: nextE, Q: 1, SS: s.SS}},
	}
}

// Generator adapts Transitions to the markov.Generator interface.
func Generator(par Params) markov.Generator[State] {
	par = par.withDefaults()
	return func(s State) []markov.Transition[State] { return Transitions(par, s) }
}

// Throughput computes the achievable TCP throughput σ (packets per second)
// of a backlogged flow with the given parameters, by exactly solving the
// per-flow chain. This is the σ_k of the paper's Section 2.2, computed from
// the same chain that drives the streaming model so that every σ_a/µ knob in
// the parameter study is self-consistent.
func Throughput(par Params) (float64, error) {
	par = par.withDefaults()
	if err := par.validate(); err != nil {
		return 0, err
	}
	g := Generator(par)
	pi, err := markov.Stationary(g, Initial(par), 200000, 1e-12, 200000)
	if err != nil {
		return 0, err
	}
	return markov.TagRate(g, pi), nil
}

// LossForThroughput inverts Throughput: it finds the loss probability p that
// yields the target σ for fixed R and T_O. Used to construct the paper's
// Case-2 heterogeneous paths (two paths differing only in loss rate but with
// a prescribed aggregate throughput). Throughput is decreasing in p, so
// bisection applies.
func LossForThroughput(target, r, to float64, wmax int) (float64, error) {
	// The bracket covers everything the paper's experiments need (p in
	// 0.004..0.05 and their Case-2 derivatives). Below ~1e-4 the chain is so
	// close to deterministic that Gauss-Seidel mixes impractically slowly.
	lo, hi := 2e-4, 0.9
	sigma := func(p float64) (float64, error) {
		return Throughput(Params{P: p, R: r, TO: to, Wmax: wmax})
	}
	sLo, err := sigma(lo)
	if err != nil {
		return 0, err
	}
	sHi, err := sigma(hi)
	if err != nil {
		return 0, err
	}
	if target > sLo || target < sHi {
		return 0, fmt.Errorf("tcpmodel: target throughput %.3f outside achievable range [%.3f, %.3f]", target, sHi, sLo)
	}
	for i := 0; i < 60; i++ {
		mid := math.Sqrt(lo * hi) // geometric: p spans orders of magnitude
		sMid, err := sigma(mid)
		if err != nil {
			return 0, err
		}
		if sMid > target {
			lo = mid
		} else {
			hi = mid
		}
		if hi/lo < 1+1e-9 {
			break
		}
	}
	return math.Sqrt(lo * hi), nil
}
