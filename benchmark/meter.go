package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmpstream/benchmark/sink"
	"dmpstream/benchmark/stat"
)

// counted is anything that keeps cumulative subscriber counters: a sink, or
// the adapter a core.Receiver's OnPacket feeds.
type counted interface {
	AddTo(*sink.Counters)
	Frames() int64
}

// group is a set of subscribers summed together. Members are only ever
// added — one that leaves keeps its place — so the sum is monotone and two
// snapshots can be subtracted.
type group struct {
	mu      sync.Mutex
	members []counted
}

func (g *group) add(c counted) {
	g.mu.Lock()
	g.members = append(g.members, c)
	g.mu.Unlock()
}

// sum returns the members' merged cumulative counters.
func (g *group) sum() *sink.Counters {
	g.mu.Lock()
	members := g.members
	g.mu.Unlock()
	c := new(sink.Counters)
	for _, m := range members {
		m.AddTo(c)
	}
	return c
}

// frames returns the members' frames accepted so far, without the cost of
// merging their histograms.
func (g *group) frames() int64 {
	g.mu.Lock()
	members := g.members
	g.mu.Unlock()
	var n int64
	for _, m := range members {
		n += m.Frames()
	}
	return n
}

// diff returns b − a for two snapshots of the same group.
func diff(b, a *sink.Counters) *sink.Counters {
	d := *b
	d.Frames -= a.Frames
	d.Gaps -= a.Gaps
	d.Late -= a.Late
	d.Writes -= a.Writes
	d.Delay.Sub(&a.Delay)
	return &d
}

// liveGate counts subscribers' first frames and opens once all have seen
// one — the end of set-up.
type liveGate struct {
	want atomic.Int64
	got  atomic.Int64
}

func (l *liveGate) expect(n int) { l.want.Add(int64(n)) }
func (l *liveGate) arrived()     { l.got.Add(1) }

func (l *liveGate) wait(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for l.got.Load() < l.want.Load() {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d subscribers saw a frame within %v", l.got.Load(), l.want.Load(), limit)
		}
		time.Sleep(pollEvery)
	}
	return nil
}

// window is what one measured interval saw.
type window struct {
	from, to time.Time
	elapsed  float64                   // seconds
	g        map[string]*sink.Counters // each of the instance's groups, differenced
	all      *sink.Counters            // g["all"]: every measured subscriber
	healthy  *sink.Counters            // g["healthy"]: the subscribers delay metrics cover
	cpu      time.Duration             // process user+system time
	mallocs  uint64
	live     float64            // bytes of heap and stack in use after a collection at the window's end
	counters map[string]float64 // the instance's own cumulative counters, differenced
	routines int                // goroutines alive mid-window

	// One entry per slice of the window; see typical.
	p50, p99  []float64 // healthy subscribers' delay percentiles, ns
	cpuPerKf  []float64 // CPU µs per thousand frames delivered to anyone
	memInUse  []float64 // heap and stacks in use, bytes (one slice in five); for -v
	blockTaus []float64 // required startup delay of each tauBlock, ns
	stolen    float64   // share of the box's CPU time the host gave to others
}

const (
	// slice is how finely a window is cut. Short enough that a scheduling
	// hiccup of some milliseconds stays inside one or two slices, long
	// enough that a slice of the smallest workload still holds a few
	// hundred delay samples, and rare enough that summing two thousand
	// sinks' histograms stays under half a percent of one core.
	slice = 200 * time.Millisecond
	// tauBlock is the interval required_tau_ms is taken over: as long as
	// a congestion period of multipath_emu, so every block holds one whole
	// episode and the blocks are alike.
	tauBlock = 4 * time.Second
)

// typical reduces a window's per-slice values of a cost — a delay
// percentile, CPU per frame — to the one reported: their lower quartile.
// What disturbs a slice on a shared box (the host taking the processor
// away, a neighbour on the sibling hardware thread, a collection) only
// ever adds cost, and it comes and goes over seconds; the cleanest quarter
// of a hundred slices is the program's own cost, and it repeats where the
// mean, and even the median, follow the neighbours.
func typical(slices []float64) float64 { return stat.Quantile(slices, 0.25) }

// measure watches inst for d, slice by slice.
func measure(inst instance, d time.Duration) window {
	groups := inst.groups()
	all, healthy := groups["all"], groups["healthy"]
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w := window{from: time.Now()}
	mallocs0, cpu0, own0, steal0 := ms.Mallocs, stat.CPUTime(), inst.counters(), stat.StolenTime()
	g0 := make(map[string]*sink.Counters, len(groups))
	for name, g := range groups {
		g0[name] = g.sum()
	}
	prev, prevAll, prevCPU := g0["healthy"], g0["all"].Frames, cpu0
	block := prev
	for n, tick := 1, slice; ; n, tick = n+1, tick+slice {
		end := tick >= d
		if end {
			tick = d
		}
		time.Sleep(time.Until(w.from.Add(tick)))
		if tick >= d/2 && w.routines == 0 {
			w.routines = runtime.NumGoroutine()
		}
		cur, curAll, curCPU := healthy.sum(), all.frames(), stat.CPUTime()
		if part := diff(cur, prev); part.Frames > 0 && curAll > prevAll {
			w.p50 = append(w.p50, part.Delay.Quantile(0.50))
			w.p99 = append(w.p99, part.Delay.Quantile(0.99))
			w.cpuPerKf = append(w.cpuPerKf, float64((curCPU-prevCPU).Microseconds())/(float64(curAll-prevAll)/1000))
		}
		if n%5 == 0 || end {
			runtime.ReadMemStats(&ms)
			w.memInUse = append(w.memInUse, float64(ms.HeapInuse+ms.StackInuse))
		}
		prev, prevAll, prevCPU = cur, curAll, curCPU
		if tick%tauBlock == 0 || (end && len(w.blockTaus) == 0) {
			w.blockTaus = append(w.blockTaus, requiredTau(diff(cur, block)))
			block = cur
		}
		if end {
			break
		}
	}
	w.to = time.Now()
	runtime.ReadMemStats(&ms)
	w.mallocs = ms.Mallocs - mallocs0
	// What the running workload needs: heap still reachable after a
	// collection, plus goroutine stacks. Taken once the window has closed,
	// so the collection costs the measurement nothing; sampled in-window
	// values (memInUse) ride the collector's sawtooth and repeat to 15 %,
	// this repeats to 2.
	runtime.GC()
	runtime.ReadMemStats(&ms)
	w.live = float64(ms.HeapAlloc + ms.StackInuse)
	w.g = make(map[string]*sink.Counters, len(groups))
	for name, g := range groups {
		w.g[name] = diff(g.sum(), g0[name])
	}
	w.all, w.healthy = w.g["all"], w.g["healthy"]
	w.cpu = stat.CPUTime() - cpu0
	w.elapsed = w.to.Sub(w.from).Seconds()
	w.stolen = (stat.StolenTime() - steal0).Seconds() / (w.elapsed * float64(runtime.NumCPU()))
	w.counters = inst.counters()
	for k, v := range own0 {
		w.counters[k] -= v
	}
	return w
}

// endToEnd derives the user-visible metrics of one window. A frame is
// offered to a subscriber if it arrived, was skipped (a sequence gap) or is
// in the verdict's lost count; the last two count against delivered_frac,
// and against ontime_frac as frames late at any delay.
func endToEnd(w window, setup float64, v verdict) map[string]float64 {
	offeredAll := w.all.Frames + w.all.Gaps + v.lostAll
	offeredHealthy := w.healthy.Frames + w.healthy.Gaps + v.lostHealthy
	return map[string]float64{
		"setup_s":           setup,
		"delivered_fps":     float64(w.all.Frames) / w.elapsed,
		"delivered_frac":    ratio(w.all.Frames, offeredAll),
		"delay_p50_ms":      typical(w.p50) / 1e6,
		"delay_p99_ms":      typical(w.p99) / 1e6,
		"ontime_frac":       ratio(w.healthy.Frames-w.healthy.Late, offeredHealthy),
		"required_tau_ms":   typical(w.blockTaus) / 1e6,
		"cpu_us_per_kframe": typical(w.cpuPerKf),
		"mem_inuse_mb":      w.live / (1 << 20),
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// requiredTau is the smallest startup delay, in nanoseconds, that keeps at
// most 1 % of the frames offered in an interval late in playback order —
// the paper's question turned round. A frame skipped never arrives and is
// late at any delay, so skipped frames use up part of the 1 %; when they
// alone exceed it no delay is enough, and the slowest arrival is reported.
func requiredTau(c *sink.Counters) float64 {
	if c.Frames == 0 {
		return 0
	}
	q := 0.99 * float64(c.Frames+c.Gaps) / float64(c.Frames)
	if q > 1 {
		q = 1
	}
	return c.Delay.Quantile(q)
}
