package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dmpstream/benchmark/sink"
	"dmpstream/benchmark/stat"
	"dmpstream/benchmark/trace"
	"dmpstream/internal/core"
	"dmpstream/internal/hub"
	"dmpstream/internal/registry"
)

// fanout is one running fanout_steady or fanout_overload instance: a
// registry of hubs generating on their own CBR schedule, with sink
// subscribers attached through Route.
type fanout struct {
	p   fanoutParams
	rng *rand.Rand

	reg    *registry.Registry
	ids    []string
	hubs   []*hub.Hub
	probes []*stat.GenProbe // one per stream, fed by that stream's first sink

	gate      liveGate
	all, fit  group // every sink; the unthrottled ones
	slow      group
	permanent []*sink.Sink
	slowSink  []bool // permanent[i] is throttled
	maxBytes  int64

	// Overload machinery.
	stop     chan struct{}
	wg       sync.WaitGroup
	churned  []*sink.Sink // written by churn(), read after it has exited
	refused  atomic.Int64
	lostFit  atomic.Int64 // frames refused churn joiners would have been offered
	heldPeak atomic.Int64
	scrapeMu sync.Mutex
	statsNs  []float64 // Stats() call durations
	heldNs   []float64 // BytesHeld() call durations
	routeNs  []float64 // Route() call durations, guarded by scrapeMu
}

// newToken draws subscriber n's token: n in the eight bytes a hub hashes
// to pick the shard, seeded noise in the rest. Subscribers numbered in
// sequence therefore spread round-robin over the shards whatever the seed,
// and a seed changes which subscribers are which without changing how
// loaded each shard is.
func newToken(rng *rand.Rand, n int) core.Token {
	var tok core.Token
	binary.BigEndian.PutUint64(tok[:8], uint64(n))
	rng.Read(tok[8:])
	return tok
}

// buildFanout starts the hubs, attaches every sink and returns once each
// has seen a frame.
func buildFanout(p fanoutParams, seed int64, rec *trace.Recorder) (*fanout, error) {
	f := &fanout{p: p, rng: rand.New(rand.NewSource(seed)), stop: make(chan struct{})}
	nSlow := int(p.SlowShare*float64(p.Subs) + 0.5)
	if p.BudgetShare > 0 {
		// Unconstrained, a throttled sink lags a full ring: the hub then
		// holds the ring's payloads once plus one header per lagged frame
		// per slow subscriber.
		slowPerHub := (nSlow + p.Streams - 1) / p.Streams
		peak := float64(p.Ring) * float64(p.Payload+core.FrameHeaderSize*slowPerHub)
		f.maxBytes = int64(p.BudgetShare * peak)
	}
	reg, err := registry.New(registry.Config{Hub: hub.Config{
		Stream:    core.Config{Mu: p.Mu, PayloadSize: p.Payload, Fill: sink.Fill},
		LagWindow: p.Ring,
		MaxBytes:  f.maxBytes,
		// Sinks are single-path and never redial: a leaver frees its slot
		// at once instead of lingering as a lagging ghost for the grace.
		ReattachGrace: -1,
	}})
	if err != nil {
		return nil, err
	}
	f.reg = reg
	for i := 0; i < p.Streams; i++ {
		id := fmt.Sprintf("s%d", i)
		h, err := reg.Create(id)
		if err != nil {
			reg.Close()
			return nil, err
		}
		f.ids, f.hubs = append(f.ids, id), append(f.hubs, h)
		f.probes = append(f.probes, stat.NewGenProbe(p.Mu))
	}
	// The seed rotates which subscribers are slow; the pattern — one per
	// ten of each stream, one position further along in each ten — keeps
	// their number exact and spreads them evenly over streams and shards.
	every, turn := 0, 0
	if nSlow > 0 {
		every, turn = p.Subs/nSlow, f.rng.Intn(p.Subs/nSlow)
	}
	f.gate.expect(p.Subs)
	for i := 0; i < p.Subs; i++ {
		k := i / p.Streams // the sink's number within its stream
		slow := every > 0 && k%every == (turn+k/every)%every
		cfg := sink.Config{ID: int32(i), Tau: p.Tau, In: trace.SinkIn, Out: trace.SinkOut, OnFirst: f.gate.arrived}
		if i%8 == 0 {
			cfg.Trace = rec // an eighth of the sinks is plenty of chains per sampled frame
		}
		if i < p.Streams {
			cfg.Probe = f.probes[i]
		}
		if slow {
			cfg.Throttle = sink.NewThrottle(p.SlowRate * p.Mu)
		}
		s := sink.New(cfg)
		if err := f.route(s, i%p.Streams, k); err != nil {
			f.abort()
			return nil, fmt.Errorf("attach sink %d: %w", i, err)
		}
		f.permanent = append(f.permanent, s)
		f.slowSink = append(f.slowSink, slow)
		f.all.add(s)
		if slow {
			f.slow.add(s)
		} else {
			f.fit.add(s)
		}
	}
	if err := f.gate.wait(liveLimit); err != nil {
		f.abort()
		return nil, err
	}
	if p.ScrapeEvery > 0 {
		f.wg.Add(1)
		go f.scrape()
	}
	if p.ChurnEvery > 0 {
		f.wg.Add(1)
		go f.churn()
	}
	return f, nil
}

// route attaches one sink, the stream's n-th, through the registry, timing
// the call.
func (f *fanout) route(s *sink.Sink, stream, n int) error {
	j := core.Join{StreamID: f.ids[stream], Token: newToken(f.rng, n)}
	t0 := time.Now()
	err := f.reg.Route(s, j)
	d := float64(time.Since(t0))
	f.scrapeMu.Lock()
	f.routeNs = append(f.routeNs, d)
	f.scrapeMu.Unlock()
	return err
}

// scrape polls the observability reads an operator's dashboard would, so
// their cost — an O(subscribers) walk under the governor lock — is part of
// the overload workload.
func (f *fanout) scrape() {
	defer f.wg.Done()
	t := time.NewTicker(f.p.ScrapeEvery)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
		}
		var held int64
		for _, h := range f.hubs {
			t0 := time.Now()
			_ = h.Stats()
			t1 := time.Now()
			b := h.BytesHeld()
			t2 := time.Now()
			if b > held {
				held = b
			}
			f.scrapeMu.Lock()
			f.statsNs = append(f.statsNs, float64(t1.Sub(t0)))
			f.heldNs = append(f.heldNs, float64(t2.Sub(t1)))
			f.scrapeMu.Unlock()
		}
		if held > f.heldPeak.Load() {
			f.heldPeak.Store(held)
		}
	}
}

// churn joins one fresh sink every ChurnEvery and has it leave ChurnHold
// later, so joins and leaves each run at 1/ChurnEvery once the first hold
// has passed; joiners alternate between the streams.
func (f *fanout) churn() {
	defer f.wg.Done()
	t := time.NewTicker(f.p.ChurnEvery)
	defer t.Stop()
	type stay struct {
		s     *sink.Sink
		until time.Time
	}
	var staying []stay
	defer func() {
		for _, st := range staying {
			_ = st.s.Close()
		}
	}()
	for n := 0; ; n++ {
		select {
		case <-f.stop:
			return
		case now := <-t.C:
			for len(staying) > 0 && !staying[0].until.After(now) {
				_ = staying[0].s.Close()
				staying = staying[1:]
			}
		}
		s := sink.New(sink.Config{ID: int32(f.p.Subs + n), Tau: f.p.Tau})
		if err := f.route(s, n%f.p.Streams, f.p.Subs+n); err != nil {
			f.refused.Add(1)
			f.lostFit.Add(int64(f.p.ChurnHold.Seconds() * f.p.Mu))
			continue
		}
		f.churned = append(f.churned, s)
		f.all.add(s)
		f.fit.add(s)
		staying = append(staying, stay{s, time.Now().Add(f.p.ChurnHold)})
	}
}

func (f *fanout) groups() map[string]*group {
	return map[string]*group{"all": &f.all, "healthy": &f.fit, "slow": &f.slow}
}

func (f *fanout) counters() map[string]float64 {
	c := map[string]float64{}
	for _, h := range f.hubs {
		c["generated"] += float64(h.Generated())
		hubCounters(c, h)
		if f.p.ScrapeEvery > 0 {
			// No narrow accessor exposes these two; one Stats walk per hub
			// at each edge of the window is part of the scraping this
			// workload does anyway.
			st := h.Stats()
			c["sheds"] += float64(st.Shed)
			c["hub_rejected"] += float64(st.Rejected)
		}
	}
	return c
}

// hubCounters adds one hub's delivery-path counters to c.
func hubCounters(c map[string]float64, h *hub.Hub) {
	copied, writevs, batched := h.DeliveryCounters()
	c["bytes_copied"] += float64(copied)
	c["writevs"] += float64(writevs)
	c["frames_batched"] += float64(batched)
	c["pool_news"] += float64(h.PoolCheck().News)
}

// hubLayers derives the hub metrics every hub workload reports from a
// window's hubCounters; sinkFrames is how many of the window's frames went
// to sinks, which count their write calls.
func hubLayers(w window, rate, sinkFrames float64) map[string]float64 {
	return map[string]float64{
		"hub.generated_frac":         w.counters["generated"] / (rate * w.elapsed),
		"hub.goroutines":             float64(w.routines),
		"hub.frames_per_writev":      w.counters["frames_batched"] / w.counters["writevs"],
		"hub.bytes_copied_per_frame": w.counters["bytes_copied"] / w.counters["frames_batched"],
		"hub.write_calls_per_frame":  float64(w.all.Writes) / sinkFrames,
		"hub.pool_news_per_kframe":   w.counters["pool_news"] / (w.counters["frames_batched"] / 1000),
	}
}

// layers reports the in-situ per-layer numbers of one traced window.
func (f *fanout) layers(w window, _ []trace.Span) map[string]float64 {
	m := hubLayers(w, f.rate(), float64(w.all.Frames))
	var late []float64
	for _, p := range f.probes {
		late = append(late, p.Lateness(w.from.UnixNano(), w.to.UnixNano())...)
	}
	m["bench.generator_lag_p99_us"] = stat.Quantile(late, 0.99) / 1e3
	f.scrapeMu.Lock()
	m["registry.route_p50_us"] = stat.Median(f.routeNs) / 1e3
	f.scrapeMu.Unlock()
	if f.p.ScrapeEvery == 0 {
		return m
	}
	slow := w.g["slow"]
	f.scrapeMu.Lock()
	m["hub.stats_call_p50_us"] = stat.Median(f.statsNs) / 1e3
	m["hub.bytes_held_call_p50_us"] = stat.Median(f.heldNs) / 1e3
	f.scrapeMu.Unlock()
	m["hub.bytes_held_peak"] = float64(f.heldPeak.Load())
	m["hub.slow_dropped_frac"] = ratio(slow.Gaps, slow.Frames+slow.Gaps)
	m["hub.slow_delay_p50_ms"] = slow.Delay.Quantile(0.5) / 1e6
	m["hub.sheds_per_s"] = w.counters["sheds"] / w.elapsed
	m["registry.refused"] = w.counters["hub_rejected"] + float64(f.reg.Stats().Rejected)
	return m
}

func (f *fanout) stopHelpers() {
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	f.wg.Wait()
}

// abort tears the instance down without draining.
func (f *fanout) abort() {
	f.stopHelpers()
	f.reg.Close()
}

func (f *fanout) rate() float64 { return f.p.Mu * float64(f.p.Streams) }

func (f *fanout) stages() []trace.Stage {
	return []trace.Stage{
		{Name: "hub.deliver", From: trace.Gen, To: trace.SinkIn},
		{Name: "sink.write", From: trace.SinkIn, To: trace.SinkOut},
	}
}

// finish ends every stream gracefully and checks what the sinks saw
// against what the hubs say they did.
func (f *fanout) finish() verdict {
	f.stopHelpers()
	for _, s := range f.permanent {
		s.Release()
	}
	var v verdict
	if !f.reg.Drain(drainLimit) {
		v.short = append(v.short, fmt.Sprintf("streams did not drain within %v", drainLimit))
	}
	var hubDropped int64
	for _, h := range f.hubs {
		hubDropped += h.TotalDropped()
		if pc := h.PoolCheck(); pc.DoublePuts != 0 || pc.PoisonTrips != 0 {
			v.bad = append(v.bad, fmt.Sprintf("%s: pool double puts %d, poison trips %d", h.StreamID(), pc.DoublePuts, pc.PoisonTrips))
		}
		if copied, _, batched := h.DeliveryCounters(); batched > 0 && copied != batched*core.FrameHeaderSize {
			v.bad = append(v.bad, fmt.Sprintf("%s: %d bytes copied for %d frames, want %d a frame", h.StreamID(), copied, batched, core.FrameHeaderSize))
		}
	}
	// What a stream generated while its permanent sinks were attached, as
	// their end markers count it. They all joined within the few
	// milliseconds of the set-up, so the largest count stands for a sink
	// that lost its own marker to an eviction.
	finals := make([]sink.Final, len(f.permanent))
	offered := make([]int64, f.p.Streams)
	for i, s := range f.permanent {
		finals[i] = s.Final()
		if k := i % f.p.Streams; finals[i].Ended && finals[i].Generated > offered[k] {
			offered[k] = finals[i].Generated
		}
	}
	var sinkGaps, fitSkipped, evictedLost int64
	evicted := 0
	for i, s := range f.permanent {
		fin := finals[i]
		skipped := fin.Gaps + fin.TailGap
		sinkGaps += skipped
		bad, ended := checkSink(s.ID(), fin)
		v.bad = append(v.bad, bad...)
		lost := int64(0)
		if !ended {
			evicted++
			if lost = offered[i%f.p.Streams] - fin.Frames - fin.Gaps; lost < 0 {
				lost = 0
			}
			evictedLost += lost
		}
		v.lostAll += lost
		if !f.slowSink[i] {
			fitSkipped += skipped
			v.lostHealthy += lost
		}
	}
	for _, s := range f.churned {
		fin := s.Final()
		sinkGaps += fin.Gaps + fin.TailGap
		fitSkipped += fin.Gaps + fin.TailGap
		bad, _ := checkSink(s.ID(), fin) // a sink that left has no end marker to hold it to
		v.bad = append(v.bad, bad...)
	}
	if evicted > 0 {
		v.short = append(v.short, fmt.Sprintf("%d subscribers were cut off before the end marker, losing about %d frames", evicted, evictedLost))
	}
	if fitSkipped > 0 {
		v.short = append(v.short, fmt.Sprintf("unthrottled subscribers saw %d frames skipped", fitSkipped))
	}
	if sinkGaps != hubDropped {
		// Exact only while every skip is a throttled sink's, which stays to
		// read its end marker. Once the whole box stalls everyone lags: a
		// churned or evicted sink then leaves with skips it never saw.
		msg := fmt.Sprintf("sinks saw %d frames skipped, hubs count %d dropped", sinkGaps, hubDropped)
		if evicted == 0 && fitSkipped == 0 {
			v.bad = append(v.bad, msg)
		} else {
			v.short = append(v.short, msg)
		}
	}
	if peak := f.heldPeak.Load(); f.maxBytes > 0 && peak > f.maxBytes {
		v.bad = append(v.bad, fmt.Sprintf("bytes held peaked at %d, over the %d budget", peak, f.maxBytes))
	}
	if n := f.refused.Load(); n > 0 {
		v.short = append(v.short, fmt.Sprintf("%d joins refused on a registry with no caps", n))
	}
	lost := f.lostFit.Load()
	v.lostAll += lost
	v.lostHealthy += lost
	return v
}

// checkSink lists what is wrong with one finished sink's stream and says
// whether it read its end marker. A marker's count must equal the frames
// the sink got plus the ones it saw skipped: exact conservation.
func checkSink(id int32, fin sink.Final) (bad []string, ended bool) {
	if fin.BadStream+fin.BadPayload+fin.BadRebase > 0 || fin.Rejected != 0 {
		bad = append(bad, fmt.Sprintf("sink %d: bad stream %d, bad payload %d, bad rebase %d, reject %d",
			id, fin.BadStream, fin.BadPayload, fin.BadRebase, fin.Rejected))
	}
	if got := fin.Frames + fin.Gaps + fin.TailGap; fin.Ended && got != fin.Generated {
		bad = append(bad, fmt.Sprintf("sink %d: %d frames + %d skipped, end marker says %d generated", id, fin.Frames, fin.Gaps+fin.TailGap, fin.Generated))
	}
	return bad, fin.Ended
}
