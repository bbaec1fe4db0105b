package exps

import (
	"fmt"

	"dmpstream/internal/netsim"
	"dmpstream/internal/sim"
	"dmpstream/internal/simstream"
	"dmpstream/internal/tcpmodel"
	"dmpstream/internal/tcpsim"
)

// LinkConfig is one row of the paper's Table 1: a bottleneck link
// configuration together with its background load.
type LinkConfig struct {
	FTPFlows  int
	HTTPFlows int
	DelayMs   float64
	Mbps      float64
	BufPkts   int
}

// Table1Configs are the paper's four bottleneck configurations, verbatim.
var Table1Configs = [4]LinkConfig{
	{FTPFlows: 9, HTTPFlows: 40, DelayMs: 40, Mbps: 3.7, BufPkts: 50},
	{FTPFlows: 9, HTTPFlows: 40, DelayMs: 1, Mbps: 3.7, BufPkts: 50},
	{FTPFlows: 19, HTTPFlows: 40, DelayMs: 40, Mbps: 5.0, BufPkts: 50},
	{FTPFlows: 5, HTTPFlows: 20, DelayMs: 1, Mbps: 5.0, BufPkts: 30},
}

// setting pairs two Table-1 configurations with a playback rate, as in the
// paper's Tables 2 and 3.
type setting struct {
	name   string
	c1, c2 int // Table1Configs indices
	mu     float64
}

// independentSettings reproduces Table 2's rows (homogeneous then
// heterogeneous pairings).
var independentSettings = []setting{
	{"1-1", 0, 0, 50},
	{"2-2", 1, 1, 50},
	{"3-3", 2, 2, 30},
	{"4-4", 3, 3, 80},
	{"1-2", 0, 1, 50},
	{"1-3", 0, 2, 40},
	{"2-3", 1, 2, 40},
	{"3-4", 2, 3, 60},
}

// correlatedSettings reproduces Table 3's rows: both video flows share one
// bottleneck.
var correlatedSettings = []setting{
	{"1", 0, 0, 50},
	{"2", 1, 1, 50},
	{"3", 2, 2, 30},
	{"4", 3, 3, 80},
}

// videoPathStats are the per-path measurements the paper reports in
// Tables 2 and 3.
type videoPathStats struct {
	P  float64 // bottleneck loss probability seen by the video flow
	R  float64 // mean RTT, seconds
	TO float64 // mean RTO / mean RTT
}

// ModelParams converts the measurements into analytical-model inputs.
func (v videoPathStats) ModelParams() tcpmodel.Params {
	return tcpmodel.Params{P: v.P, R: v.R, TO: v.TO}
}

// links returns the setting's two bottleneck configurations.
func (st setting) links() []LinkConfig {
	return []LinkConfig{Table1Configs[st.c1], Table1Configs[st.c2]}
}

// simRun is one completed validation simulation.
type simRun struct {
	stream *simstream.Stream
	stats  []videoPathStats // per video flow
}

// simVariant selects ablation knobs for the validation topology.
type simVariant struct {
	videoTCP tcpsim.Config // TCP configuration of the video flows
	red      bool          // RED admission at the bottlenecks instead of drop-tail
}

// runValidationSimVar builds the paper's topology, one video flow per link,
// and runs DMP-streaming at mu for `duration` simulated seconds. Each link is
// its own Fig. 3 dumbbell with its own background load; correlated selects
// the Fig. 6 variant, where every video flow shares the dumbbell of
// links[0]. The background flows always use default TCP.
func runValidationSimVar(links []LinkConfig, correlated bool, mu, duration float64, seed int64, v simVariant) (*simRun, error) {
	s := sim.New(seed)
	var next netsim.FlowID = 100
	attach := make([]func(netsim.FlowID, *tcpsim.Conn), len(links))
	for i, lc := range links {
		if correlated && i > 0 {
			attach[i] = attach[0]
			continue
		}
		attach[i] = simstream.Dumbbell(s, lc.Mbps, sim.Seconds(lc.DelayMs/1e3), lc.BufPkts, v.red,
			lc.FTPFlows, lc.HTTPFlows, &next)
	}
	conns := make([]*tcpsim.Conn, len(links))
	for k := range conns {
		id := netsim.FlowID(k + 1)
		conns[k] = tcpsim.NewConn(s, id, v.videoTCP)
		attach[k](id, conns[k])
	}

	// Let the background traffic reach steady state before streaming starts.
	const warmup = 30.0
	s.Run(sim.Seconds(warmup))
	stream := simstream.New(s, simstream.VideoConfig{
		Mu: mu, Duration: sim.Seconds(duration),
	}, conns)
	stream.Start()
	s.Run(sim.Seconds(warmup+duration) + 120*sim.Second)

	run := &simRun{stream: stream, stats: make([]videoPathStats, len(conns))}
	for k, c := range conns {
		snd := c.Snd.Stats()
		if snd.Sent == 0 {
			return nil, fmt.Errorf("exps: video flow %d sent nothing", k)
		}
		if snd.RTTSamples == 0 {
			return nil, fmt.Errorf("exps: video flow %d has no RTT samples", k)
		}
		// The model's p is the probability that a packet is the FIRST loss of
		// its round (PFTK's convention; within-round losses are then modeled
		// as correlated). The sender-side estimator for that quantity is the
		// loss-event rate — each fast retransmit or timeout marks exactly one
		// loss event — not the raw bottleneck drop ratio, which counts whole
		// drop bursts and would make the correlated-loss model double-count.
		p := float64(snd.FastRetransmits+snd.Timeouts) / float64(snd.Sent)
		if p <= 0 {
			p = 1e-4 // model requires p > 0; losses were simply never observed
		}
		run.stats[k] = videoPathStats{
			P:  p,
			R:  snd.MeanRTT().Seconds(),
			TO: float64(snd.MeanRTO()) / float64(snd.MeanRTT()),
		}
	}
	return run, nil
}

// validationScale returns the video duration and repetition count for a
// fidelity level. The paper used 10,000-second videos and 30 runs.
func validationScale(f Fidelity) (duration float64, runs int) {
	if f == Full {
		return 10000, 30
	}
	return 400, 3
}
