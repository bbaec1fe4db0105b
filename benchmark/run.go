package main

import (
	"fmt"
	"runtime"
	"time"

	"dmpstream/benchmark/trace"
)

// workloads lists the benchmark's workloads in the order a suite runs them.
var workloads = []string{"fanout_steady", "fanout_overload", "multipath_emu", "tree_edge"}

// instance is one set-up, running workload.
type instance interface {
	// groups returns the subscriber sets a window sums: "all" (every
	// measured subscriber), "healthy" (the ones delay metrics cover), and
	// any others the workload's layer metrics need.
	groups() map[string]*group
	// counters returns the instance's cumulative counters; a window
	// reports their increase.
	counters() map[string]float64
	// layers derives the in-situ per-layer metrics of a traced window and
	// the spans recorded during it.
	layers(w window, spans []trace.Span) map[string]float64
	// stages names the span chain a traced frame follows in this workload.
	stages() []trace.Stage
	// rate is how many frames a second the workload's sources are
	// scheduled to generate, all of them together.
	rate() float64
	// abort tears the instance down at once.
	abort()
	// finish ends the streams gracefully and checks the whole run.
	finish() verdict
}

// verdict is what finish found. It keeps two kinds of finding apart. A
// violation is output that is wrong — bytes that do not match their packet
// number, numbers going backwards, counts that do not add up, a pool handing
// out a buffer twice — and fails the run whatever the box was doing. A
// shortfall is the system falling behind and saying so: frames skipped by
// drop-oldest, a subscriber evicted, a join refused, a drain that ran out
// of time, a generator behind its schedule. On a shared box a shortfall is
// what a host that takes the processors away for a second looks like, so it
// does not fail the run: it is printed, and the frames it cost are in
// delivered_frac, ontime_frac and delivered_fps, which are bounded.
type verdict struct {
	bad   []string // violations; empty on a correct run
	short []string // shortfalls; empty on an undisturbed run
	// Frames offered over the whole run that never arrived and that no
	// subscriber saw as a sequence gap: joins refused, subscribers
	// evicted, packets missing from a receiver's trace. All zero on a good
	// run; when not, they count against the window's delivered_frac and
	// ontime_frac in full.
	lostAll, lostHealthy int64
}

// build sets one workload up and returns once every subscriber has seen a
// frame.
func build(name string, p params, seed int64, rec *trace.Recorder) (instance, error) {
	// Errors return an untyped nil: a nil *fanout wrapped in the interface
	// would not compare equal to nil.
	switch name {
	case "fanout_steady", "fanout_overload":
		fp := p.Steady
		if name == "fanout_overload" {
			fp = p.Overload
		}
		f, err := buildFanout(fp, seed, rec)
		if err != nil {
			return nil, err
		}
		return f, nil
	case "multipath_emu":
		m, err := buildMultipath(p.Multipath, seed, rec)
		if err != nil {
			return nil, err
		}
		return m, nil
	case "tree_edge":
		t, err := buildTree(p.Tree, seed, rec)
		if err != nil {
			return nil, err
		}
		return t, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// result is one run's outcome.
type result struct {
	Workload  string
	Metrics   map[string]float64
	Bad       []string             // violations: the run is incorrect
	Short     []string             // shortfalls: counted in the metrics, not against correctness
	Attempted int64                // frames offered to healthy subscribers in the window
	Failed    int64                // of those, frames that vanished: neither delivered nor skipped by the hub's counted policy
	Samples   int64                // delay samples behind the percentiles
	CPUShare  float64              // busy share of all cores during the window
	Stolen    float64              // share of all cores' time the host gave to other guests
	Slices    map[string][]float64 // per-slice values behind the reported ones, for -v
}

// checkIdle waits for the goroutines a run started to exit and reports a
// leak if they do not.
func checkIdle(baseline int) []string {
	deadline := time.Now().Add(idleLimit)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			return []string{fmt.Sprintf("%d goroutines still running after teardown (%d before the run)", runtime.NumGoroutine(), baseline)}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// shape is everything about a run except the workload's own constants and
// the window length: the full shape measures, the smoke test's shrinks
// every part so the whole suite fits in a few seconds.
type shape struct {
	p          params        // the measured workload's operating point
	reps       int           // set-ups per untraced run
	warm       time.Duration // after the last set-up, before the window opens
	reduced    params        // operating point of a traced run's reduced passes
	reducedFor time.Duration // their warm-up, and half their window
	ladderDiv  int           // divides the ladder's populations and iteration counts
	sample     int           // a traced run marks one frame in this many
}

var fullShape = shape{p: frozen, reps: setupReps, warm: warmup, reduced: frozen.scaled(5), reducedFor: time.Second, ladderDiv: 1, sample: sampleEach}

// checkRate reports a generator that fell behind its schedule: an open
// loop that slows with the system is no longer an open loop.
func checkRate(inst instance, w window) []string {
	if frac := w.counters["generated"] / (inst.rate() * w.elapsed); frac < 0.99 {
		return []string{fmt.Sprintf("the source generated only %.4f of its schedule", frac)}
	}
	return nil
}

// runUntraced is the end-to-end run: set the workload up sh.reps times, let
// the last one warm up, measure it for d with tracing off, end it
// gracefully and check it. setup_s is what a user waits for before the
// first measured frame: a set-up (the typical one of the sh.reps) plus the
// warm-up that follows the last.
func runUntraced(name string, sh shape, seed int64, d time.Duration) (result, error) {
	baseline := runtime.NumGoroutine()
	var inst instance
	var setups []float64
	for i := 0; i < sh.reps; i++ {
		if inst != nil {
			inst.abort()
		}
		t0 := time.Now()
		var err error
		if inst, err = build(name, sh.p, seed, nil); err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	built := time.Now()
	time.Sleep(sh.warm)
	runtime.GC() // every window starts from a collected heap
	warmed := time.Since(built).Seconds()
	w := measure(inst, d)
	v := inst.finish()
	v.short = append(v.short, checkRate(inst, w)...)
	v.bad = append(v.bad, checkIdle(baseline)...)
	res := result{
		Workload:  name,
		Metrics:   endToEnd(w, typical(setups)+warmed, v),
		Bad:       v.bad,
		Short:     v.short,
		Attempted: w.healthy.Frames + w.healthy.Gaps + v.lostHealthy,
		Failed:    v.lostHealthy,
		Samples:   w.healthy.Frames,
		CPUShare:  w.cpu.Seconds() / (w.elapsed * float64(runtime.NumCPU())),
		Stolen:    w.stolen,
		Slices: map[string][]float64{
			"delay_p50_ns": w.p50, "delay_p99_ns": w.p99, "cpu_us_per_kframe": w.cpuPerKf,
			"mem_inuse_bytes": w.memInUse, "required_tau_ns": w.blockTaus,
		},
	}
	res.Metrics["bench.allocs_per_frame"] = float64(w.mallocs) / float64(w.all.Frames)
	return res, nil
}

// tracedPass measures inst with the recorder on and returns the in-situ
// layer metrics, the spans and the window.
func tracedPass(name string, inst instance, rec *trace.Recorder, d time.Duration) (map[string]float64, []trace.Span, window) {
	rec.Enable(true)
	w := measure(inst, d)
	rec.Enable(false)
	spans := trace.Build(rec.Events(), name, inst.stages())
	return inst.layers(w, spans), spans, w
}

// reducedPass runs a short, small traced pass of one workload for the
// layer metrics only it produces.
func reducedPass(name string, sh shape, seed int64) (map[string]float64, verdict, error) {
	rec := trace.NewRecorder(sh.sample / 4) // a short pass samples more densely
	inst, err := build(name, sh.reduced, seed, rec)
	if err != nil {
		return nil, verdict{}, fmt.Errorf("%s (reduced): set-up: %w", name, err)
	}
	time.Sleep(sh.reducedFor)
	m, _, _ := tracedPass(name, inst, rec, 2*sh.reducedFor)
	return m, inst.finish(), nil
}

// runTraced is the per-layer run. It measures the workload for d/4 with
// the recorder off and d/4 with it on (their CPU cost per frame differ by
// the tracing overhead), climbs the ladder of single-layer fixtures, and
// fills the layers this workload does not exercise from reduced passes of
// the workloads that do — so every per-layer number is a measurement,
// never a placeholder. Profiles and spans go to out.
func runTraced(name string, sh shape, seed int64, d time.Duration, out string) (result, error) {
	baseline := runtime.NumGoroutine()
	rec := trace.NewRecorder(sh.sample)
	inst, err := build(name, sh.p, seed, rec)
	if err != nil {
		return result{}, fmt.Errorf("%s: set-up: %w", name, err)
	}
	time.Sleep(sh.warm)
	runtime.GC()
	plain := measure(inst, d/4)
	stopProfiles, err := startProfiles(out)
	if err != nil {
		inst.abort()
		return result{}, err
	}
	layers, spans, traced := tracedPass(name, inst, rec, d/4)
	if err := stopProfiles(); err != nil {
		inst.abort()
		return result{}, err
	}
	v := inst.finish()
	v.short = append(v.short, checkRate(inst, plain)...)
	// Delay and CPU cost are per-layer numbers (see README, "What gates
	// and what does not"); like every end-to-end number they are taken
	// with the recorder off.
	untraced := endToEnd(plain, 0, v)
	for _, name := range []string{"delay_p50_ms", "delay_p99_ms", "required_tau_ms", "cpu_us_per_kframe"} {
		layers[name] = untraced[name]
	}
	layers["bench.trace_overhead_frac"] = typical(traced.cpuPerKf)/typical(plain.cpuPerKf) - 1
	layers["bench.allocs_per_frame"] = float64(plain.mallocs) / float64(plain.all.Frames)
	layers["bench.spans"] = float64(len(spans))
	layers["bench.steal_frac"] = (plain.stolen + traced.stolen) / 2

	for _, other := range workloads[1:] { // fanout_steady's layers are a subset of fanout_overload's
		if other == name {
			continue
		}
		m, rv, err := reducedPass(other, sh, seed)
		if err != nil {
			return result{}, err
		}
		for _, b := range rv.bad {
			v.bad = append(v.bad, other+" (reduced): "+b)
		}
		for _, b := range rv.short {
			v.short = append(v.short, other+" (reduced): "+b)
		}
		for k, val := range m {
			if _, have := layers[k]; !have {
				layers[k] = val
			}
		}
	}
	pubSpans, short, err := ladder(seed, sh.ladderDiv, layers)
	if err != nil {
		return result{}, err
	}
	v.short = append(v.short, short...)
	v.bad = append(v.bad, checkIdle(baseline)...)
	if err := writeSpans(out, map[string][]trace.Span{name: spans, "hub.publish_1k": pubSpans}); err != nil {
		return result{}, err
	}
	return result{
		Workload:  name,
		Metrics:   layers,
		Bad:       v.bad,
		Short:     v.short,
		Attempted: traced.healthy.Frames + traced.healthy.Gaps + v.lostHealthy,
		Failed:    v.lostHealthy,
		Samples:   traced.healthy.Frames,
		CPUShare:  traced.cpu.Seconds() / (traced.elapsed * float64(runtime.NumCPU())),
		Stolen:    traced.stolen,
	}, nil
}
