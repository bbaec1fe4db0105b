package main

import "time"

// The constants below were calibrated once, on the commit that added the
// benchmark, on a 2-core box (see README.md, "Calibration"), so that every
// untraced run keeps roughly a third to a half of the cores busy — far
// enough below saturation that delays measure the code path and not a
// queue, busy enough that a change in per-frame cost moves
// cpu_us_per_kframe by more than the run-to-run spread. They are frozen: a
// later change is compared with its parent at the same operating point.

// fanoutParams sizes fanout_steady and fanout_overload.
type fanoutParams struct {
	Streams int           // live streams behind one registry
	Subs    int           // sink subscribers, spread round-robin over the streams
	Mu      float64       // packets per second per stream
	Payload int           // bytes
	Tau     time.Duration // startup delay the late fraction is taken at
	Ring    int           // hub LagWindow in packets

	// Overload only (all zero on fanout_steady).
	SlowShare   float64       // share of sinks that are throttled
	SlowRate    float64       // a throttled sink's intake as a share of Mu
	BudgetShare float64       // per-hub MaxBytes as a share of the unconstrained held peak
	ScrapeEvery time.Duration // Stats()+BytesHeld() polling period
	ChurnEvery  time.Duration // one join per ChurnEvery, each leaving after ChurnHold
	ChurnHold   time.Duration
}

// multipathParams sizes multipath_emu: Sessions independent copies of the
// paper's scheme — one core.Server, two emulated paths, one core.Receiver.
type multipathParams struct {
	Sessions int
	Mu       float64
	Payload  int
	Tau      time.Duration

	// Path 0 is the fast path and the one congestion episodes hit.
	RateBps   [2]float64
	Delay     [2]time.Duration
	BufferKiB int // relay and sender socket buffering: small, so backpressure reaches the sender

	// Deterministic congestion: every EpisodeEvery the fast path drops to
	// EpisodeFactor of its rate for EpisodeLen. The measured window is a
	// whole number of periods, so every run sees the same duty cycle
	// whatever phase its seed picks.
	EpisodeEvery  time.Duration
	EpisodeLen    time.Duration
	EpisodeFactor float64
}

// treeParams sizes tree_edge.
type treeParams struct {
	Mu         float64
	Payload    int
	Tau        time.Duration
	OriginSubs int // sinks attached to the origin hub directly
	LeafSubs   int // sinks attached to the relay's hub
	TCPLeaves  int // real loopback-TCP leaves read by core.Receiver
	UpPaths    int // relay → origin upstream paths
}

type params struct {
	Steady    fanoutParams
	Overload  fanoutParams
	Multipath multipathParams
	Tree      treeParams
}

// frozen is the operating point every reported number is taken at.
var frozen = params{
	Steady: fanoutParams{
		Streams: 2, Subs: 1000, Mu: 250, Payload: 256, Tau: 150 * time.Millisecond, Ring: 1024,
	},
	Overload: fanoutParams{
		// A two-second ring: a throttled sink is as far behind as the
		// budget lets it get by the time the warm-up ends, so the window
		// measures the steady state of the slow path and not its onset,
		// and a stall of the whole box would have to last two seconds
		// before a healthy subscriber lost a frame to it.
		Streams: 2, Subs: 1000, Mu: 250, Payload: 256, Tau: 150 * time.Millisecond, Ring: 512,
		SlowShare: 0.10, SlowRate: 0.5, BudgetShare: 0.6,
		ScrapeEvery: 100 * time.Millisecond,
		ChurnEvery:  100 * time.Millisecond, ChurnHold: 2 * time.Second,
	},
	// Four sessions share the box, their congestion in phase. emunet
	// forwards one chunk (at most 2 KiB) at a time in chunk/RateBps + Delay,
	// so a path's capacity is set by both, and by how full the chunks are:
	// one frame each while the sender keeps pace, more once it batches.
	// Driven to saturation (µ raised to 1500) a session carries about 790
	// packets/s on path 0 and 100 on path 1 outside congestion, about 480 on
	// path 0 inside it; at one frame a chunk the same arithmetic gives path
	// 0 roughly 490 and 360. Path 1 is always full — each idle sender wins about half the
	// packets, more than it can carry — so its standing queue sets the delay
	// tail, and path 0, lightly loaded, sets the median. During an episode
	// the total stays a good third above µ even at one frame a chunk: no
	// lasting backlog, but the split shifts and path 0 queues. (At
	// EpisodeFactor 0.3 the margin was an eighth, and a host that took a
	// fifth of the processor away during an episode — every sleep in emunet
	// then overshoots — put 4 % of the frames past Tau.) BufferKiB is as
	// small as the kernel allows, so a full path pushes back on the sender
	// within a few packets and its queue stays well under Tau.
	Multipath: multipathParams{
		Sessions: 4, Mu: 300, Payload: 1000, Tau: 500 * time.Millisecond,
		RateBps:      [2]float64{2e6, 197e3},
		Delay:        [2]time.Duration{time.Millisecond, 8 * time.Millisecond},
		BufferKiB:    4,
		EpisodeEvery: 4 * time.Second, EpisodeLen: time.Second, EpisodeFactor: 0.4,
	},
	Tree: treeParams{
		Mu: 250, Payload: 256, Tau: 150 * time.Millisecond,
		OriginSubs: 400, LeafSubs: 400, TCPLeaves: 2, UpPaths: 2,
	},
}

// scaled returns the operating point with subscriber counts divided by
// div, and rates and path shapes unchanged: the size of the reduced passes
// a traced run uses to fill in the layers its own workload does not
// exercise, and of the smoke test.
func (p params) scaled(div int) params {
	shrink := func(n int) int {
		if n = n / div; n < 4 {
			n = 4
		}
		return n
	}
	p.Steady.Subs = shrink(p.Steady.Subs)
	p.Overload.Subs = shrink(p.Overload.Subs)
	// A shorter ring too: a reduced pass lasts a few seconds, and its slow
	// sinks must be a full window behind before it is measured.
	if p.Overload.Ring /= div; p.Overload.Ring < 64 {
		p.Overload.Ring = 64
	}
	p.Multipath.Sessions = 1
	p.Tree.OriginSubs = shrink(p.Tree.OriginSubs)
	p.Tree.LeafSubs = shrink(p.Tree.LeafSubs)
	return p
}

// Run shape. A run measures for the --seconds it is given; these are the
// parts around the window.
const (
	setupReps  = 15                     // set-ups per untraced run; setup_s is their median
	warmup     = 2 * time.Second        // after the last set-up, before the window opens
	drainLimit = 20 * time.Second       // graceful end-of-stream gets this long; it takes well under one on a quiet box
	idleLimit  = 20 * time.Second       // every goroutine a run started must have exited this long after teardown
	liveLimit  = 20 * time.Second       // every subscriber must see a frame within this
	sampleEach = 64                     // traced runs mark one frame in 64
	pollEvery  = 200 * time.Microsecond // wait-loop granularity
)
