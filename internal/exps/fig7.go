package exps

import (
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"dmpstream/internal/core"
	"dmpstream/internal/dmpmodel"
	"dmpstream/internal/emunet"
	"dmpstream/internal/stats"
	"dmpstream/internal/tcpmodel"
)

func init() {
	register(Experiment{
		ID:    "fig7a",
		Paper: "Figure 7(a)",
		Short: "emulated-Internet experiments: out-of-order effect on the real implementation",
		Run:   runFig7a,
	})
	register(Experiment{
		ID:    "fig7b",
		Paper: "Figure 7(b)",
		Short: "emulated-Internet experiments: measured vs model late fraction",
		Run:   runFig7b,
	})
}

// emuScenario is one emulated wide-area setting. The paper streamed from a
// UConn server to PlanetLab nodes (two ADSL nodes in San Francisco for the
// homogeneous case; San Francisco + Hefei for the heterogeneous case); here
// each path is a loopback TCP connection through an emunet relay whose rate,
// delay and congestion episodes play the role of the Internet path.
type emuScenario struct {
	name    string
	mu      float64 // packets per second
	payload int     // bytes per packet
	rate    [2]float64
	delay   [2]time.Duration
	// Shared periodic congestion process (see emunet.NewPeriodicEpisodes):
	// every epPeriod both paths collapse to epFactor of their rate for
	// epDur, modeling correlated wide-area congestion. Deep shared dips are
	// what give the testbed the multi-second deficits real Internet paths
	// show; independent single-path dips are absorbed by the other path.
	// A deterministic schedule keeps short runs reproducible and hands the
	// model an exact duty cycle.
	epPeriod time.Duration
	epDur    time.Duration
	epFactor float64
}

// emuScenarios spans homogeneous and heterogeneous paths and the paper's
// range of video rates (it used 25/50 pkts/s homogeneous, 100 heterogeneous).
var emuScenarios = []emuScenario{
	{
		// Comfortable scenario, like most of the paper's runs: effective
		// sigma_a/mu ≈ 1.6 after the episode duty cycle; the late fraction
		// sits at or below the measurement floor (the paper saw exact zeros
		// in 6 of its 10 experiments).
		name: "homog-adsl mu=25", mu: 25, payload: 1000,
		rate:     [2]float64{25e3, 25e3},
		delay:    [2]time.Duration{40 * time.Millisecond, 40 * time.Millisecond},
		epPeriod: 20 * time.Second, epDur: 6 * time.Second, epFactor: 0.35,
	},
	{
		name: "homog-adsl mu=50", mu: 50, payload: 1000,
		rate:     [2]float64{55e3, 55e3},
		delay:    [2]time.Duration{40 * time.Millisecond, 40 * time.Millisecond},
		epPeriod: 20 * time.Second, epDur: 6 * time.Second, epFactor: 0.45,
	},
	{
		// Tight scenario: effective sigma_a/mu ≈ 1.05 with ten-second dips —
		// the upper-left region of the paper's Fig 7 scatter where late
		// fractions reach 1e-2..1e-1.
		name: "hetero-sf-hefei mu=100", mu: 100, payload: 1000,
		rate:     [2]float64{95e3, 48e3},
		delay:    [2]time.Duration{30 * time.Millisecond, 120 * time.Millisecond},
		epPeriod: 25 * time.Second, epDur: 10 * time.Second, epFactor: 0.35,
	},
}

// emuScale returns the wall-clock duration per scenario run and the number
// of repetitions. The paper ran 10 experiments of 3000 s each.
func emuScale(f Fidelity) (dur time.Duration, runs int) {
	if f == Full {
		return 300 * time.Second, 3
	}
	return 25 * time.Second, 1
}

// runEmuScenario streams the real implementation through two impairment
// relays and returns the client trace.
func runEmuScenario(sc emuScenario, dur time.Duration, seed int64) (*core.Trace, error) {
	count := int64(sc.mu * dur.Seconds())
	srv, err := core.NewServer(core.Config{Mu: sc.mu, PayloadSize: sc.payload, Count: count})
	if err != nil {
		return nil, err
	}
	sConns := make([]net.Conn, 2)
	cConns := make([]net.Conn, 2)
	// Offset the first episode by a seed-dependent phase so repeated runs
	// sample different alignments of content vs congestion.
	offset := time.Duration(seed%7) * sc.epPeriod / 7
	shared := emunet.NewPeriodicEpisodes(sc.epPeriod, sc.epDur, offset)
	defer shared.Stop()
	for k := 0; k < 2; k++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		relay, err := emunet.Listen("127.0.0.1:0", ln.Addr().String(), emunet.PathConfig{
			RateBps:       sc.rate[k],
			Delay:         sc.delay[k],
			BufferKiB:     16,
			EpisodeFactor: sc.epFactor,
			Shared:        shared,
			Seed:          seed + int64(k),
		})
		if err != nil {
			_ = ln.Close()
			return nil, err
		}
		defer relay.Close()
		acc := make(chan net.Conn, 1)
		go func(ln net.Listener) {
			c, err := ln.Accept()
			_ = ln.Close()
			if err == nil {
				acc <- c
			}
		}(ln)
		c, err := net.Dial("tcp", relay.Addr())
		if err != nil {
			return nil, err
		}
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetWriteBuffer(16 * 1024)
		}
		sConns[k] = c
		select {
		case cConns[k] = <-acc:
		case <-time.After(5 * time.Second):
			return nil, fmt.Errorf("exps: relay accept timeout on path %d", k)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var serveErr error
	go func() {
		defer wg.Done()
		_, serveErr = srv.Serve(sConns)
		for _, c := range sConns {
			_ = c.Close()
		}
	}()
	tr, err := core.Receive(cConns)
	wg.Wait()
	for _, c := range cConns {
		_ = c.Close()
	}
	if err != nil {
		return nil, err
	}
	if serveErr != nil {
		return nil, serveErr
	}
	return tr, nil
}

// emuModel derives analytical-model parameters for a scenario. The paper
// estimated p, R and RTO from tcpdump traces; with kernel TCP opaque to a
// userspace testbed, we instead invert the model's throughput function: the
// relay pins each path's achievable throughput (mean rate over episodes ÷
// packet size), the RTT is twice the configured one-way delay plus relay
// buffering, and T_O follows the paper's measured range. DESIGN.md records
// this substitution.
func emuModel(sc emuScenario) (dmpmodel.Model, error) {
	const to = 2.0
	epDuty := sc.epDur.Seconds() / sc.epPeriod.Seconds()
	paths := make([]tcpmodel.Params, 2)
	for k := 0; k < 2; k++ {
		meanRate := sc.rate[k] * ((1 - epDuty) + epDuty*sc.epFactor)
		sigma := meanRate / float64(sc.payload+16) // frame overhead
		rtt := 2*sc.delay[k].Seconds() + 0.050     // relay + kernel buffering
		loss, err := tcpmodel.LossForThroughput(sigma, rtt, to, 0)
		if err != nil {
			return dmpmodel.Model{}, fmt.Errorf("exps: scenario %s path %d: %w", sc.name, k, err)
		}
		paths[k] = tcpmodel.Params{P: loss, R: rtt, TO: to}
	}
	return dmpmodel.Model{Paths: paths, Mu: sc.mu}, nil
}

func runFig7a(f Fidelity, seed int64) ([]Table, error) {
	dur, runs := emuScale(f)
	t := Table{
		ID:      "fig7a",
		Title:   "Emulated-Internet runs: late fraction, playback order vs arrival order",
		Columns: []string{"scenario", "run", "tau (s)", "late (playback)", "late (arrival order)"},
	}
	for _, sc := range emuScenarios {
		for r := 0; r < runs; r++ {
			tr, err := runEmuScenario(sc, dur, seed+int64(r)*31)
			if err != nil {
				return nil, err
			}
			for _, tau := range []float64{4, 6, 8, 10} {
				pb, ao := tr.LateFraction(tau)
				t.Rows = append(t.Rows, []string{
					sc.name, fmt.Sprintf("%d", r+1), fmt.Sprintf("%g", tau), fmtF(pb), fmtF(ao),
				})
			}
		}
	}
	t.Notes = append(t.Notes, "paper's claim: the two orderings nearly coincide")
	return []Table{t}, nil
}

func runFig7b(f Fidelity, seed int64) ([]Table, error) {
	dur, runs := emuScale(f)
	budget := modelBudget(f)
	t := Table{
		ID:      "fig7b",
		Title:   "Emulated-Internet runs: measured vs model late fraction",
		Columns: []string{"scenario", "tau (s)", "measured", "model", "within 10x"},
	}
	for _, sc := range emuScenarios {
		model, err := emuModel(sc)
		if err != nil {
			return nil, err
		}
		byTau := map[float64][]float64{}
		for r := 0; r < runs; r++ {
			tr, err := runEmuScenario(sc, dur, seed+int64(r)*31)
			if err != nil {
				return nil, err
			}
			for _, tau := range []float64{4, 6, 8, 10} {
				pb, _ := tr.LateFraction(tau)
				byTau[tau] = append(byTau[tau], pb)
			}
		}
		for _, tau := range []float64{4, 6, 8, 10} {
			meas, _ := stats.MeanCI95(byTau[tau])
			res, err := model.FractionLate(tau, dmpmodel.Options{Seed: seed, MaxConsumptions: budget})
			if err != nil {
				return nil, err
			}
			within := "yes"
			if meas > 0 && res.F > 0 {
				r := res.F / meas
				if r > 10 || r < 0.1 {
					within = "no"
				}
			} else if (meas == 0) != (res.F == 0) {
				// The paper saw this too: several runs measured exactly zero
				// while the model predicted a small value (it attributes the
				// gap to insufficient samples). Call the pair consistent when
				// the non-zero side is itself small.
				within = "both-small"
				if math.Max(meas, res.F) > 3e-3 {
					within = "no"
				}
			}
			t.Rows = append(t.Rows, []string{sc.name, fmt.Sprintf("%g", tau), fmtF(meas), fmtF(res.F), within})
		}
	}
	t.Notes = append(t.Notes,
		"paper's acceptance band: scatter within the 10x diagonals of Fig 7(b)",
		"model parameters derived by throughput inversion (see emuModel)")
	return []Table{t}, nil
}
