package emunet

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestPeriodicEpisodesSchedule: a periodic schedule's edges fall exactly at
// offset, offset+dur and offset+period, and are still exact a thousand
// periods on.
func TestPeriodicEpisodesSchedule(t *testing.T) {
	const period, dur, offset = 200 * time.Millisecond, 80 * time.Millisecond, 50 * time.Millisecond
	e := NewPeriodicEpisodes(period, dur, offset)
	for _, c := range []struct {
		at   time.Duration
		want bool
	}{
		{0, false},
		{offset - 1, false},
		{offset, true},
		{offset + dur - 1, true},
		{offset + dur, false},
		{offset + period - 1, false},
		{offset + period, true},
		{offset + period + dur - 1, true},
		{offset + period + dur, false},
		{offset + 1000*period - 1, false},
		{offset + 1000*period, true},
		{offset + 1000*period + dur - 1, true},
		{offset + 1000*period + dur, false},
	} {
		if got := e.activeAt(c.at); got != c.want {
			t.Errorf("active at %v = %v, want %v", c.at, got, c.want)
		}
	}
	if NewPeriodicEpisodes(period, dur, time.Hour).Active() {
		t.Error("active before the offset")
	}
	if !NewPeriodicEpisodes(time.Hour, time.Minute, 0).Active() {
		t.Error("not active inside an episode that starts at once")
	}
}

func TestPeriodicEpisodesBadDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("dur >= period accepted")
		}
	}()
	NewPeriodicEpisodes(time.Second, time.Second, 0)
}

// TestEpisodesRejectImpossibleArguments: a schedule that could never advance
// (or would be on almost always, as a zero rate once was) panics instead.
func TestEpisodesRejectImpossibleArguments(t *testing.T) {
	for _, c := range []struct {
		name string
		make func()
	}{
		{"zero rate", func() { NewEpisodes(0, time.Second, 1) }},
		{"negative rate", func() { NewEpisodes(-1, time.Second, 1) }},
		{"NaN rate", func() { NewEpisodes(math.NaN(), time.Second, 1) }},
		{"infinite rate", func() { NewEpisodes(math.Inf(1), time.Second, 1) }},
		{"zero duration", func() { NewEpisodes(1, 0, 1) }},
		{"negative duration", func() { NewEpisodes(1, -time.Second, 1) }},
		{"zero period", func() { NewPeriodicEpisodes(0, time.Second, 0) }},
		{"zero periodic duration", func() { NewPeriodicEpisodes(time.Second, 0, 0) }},
		{"negative periodic duration", func() { NewPeriodicEpisodes(time.Second, -time.Millisecond, 0) }},
		{"negative offset", func() { NewPeriodicEpisodes(time.Second, time.Millisecond, -time.Millisecond) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", c.name)
				}
			}()
			c.make()
		}()
	}
}

func TestEpisodesStopIsIdempotent(t *testing.T) {
	e := NewEpisodes(10, 50*time.Millisecond, 1)
	e.Stop()
	e.Stop() // second stop must not panic
}

// edgesOf returns a random schedule's edges up to horizon, walking it with
// activeAt as Active would.
func edgesOf(e *Episodes, horizon time.Duration) []time.Duration {
	var out []time.Duration
	for {
		e.mu.Lock()
		next := e.edge
		e.mu.Unlock()
		if next > horizon {
			return out
		}
		e.activeAt(next)
		out = append(out, next)
	}
}

// onFraction is the share of [0, horizon) the schedule with these edges
// (off first) spends on.
func onFraction(edges []time.Duration, horizon time.Duration) float64 {
	var on time.Duration
	for i := 0; i+1 < len(edges); i += 2 {
		on += edges[i+1] - edges[i]
	}
	if len(edges)%2 == 1 {
		on += horizon - edges[len(edges)-1]
	}
	return float64(on) / float64(horizon)
}

// TestRandomEpisodesToggle: a random schedule is a function of its seed —
// the same seed gives the same edges, another seed other edges — and over
// a long run it is on for rate·dur/(1+rate·dur) of the time, within 5 %.
func TestRandomEpisodesToggle(t *testing.T) {
	for _, c := range []struct {
		rate float64
		dur  time.Duration
	}{
		{50, 20 * time.Millisecond},
		{8, 150 * time.Millisecond},
		{0.1, 2 * time.Second},
	} {
		cycle := time.Duration(float64(time.Second)/c.rate) + c.dur
		horizon := 20_000 * cycle
		a := edgesOf(NewEpisodes(c.rate, c.dur, 7), horizon)
		if len(a) < 2 {
			t.Fatalf("rate %v dur %v: %d edges in %v", c.rate, c.dur, len(a), horizon)
		}
		if b := edgesOf(NewEpisodes(c.rate, c.dur, 7), horizon); !slices.Equal(a, b) {
			t.Errorf("rate %v dur %v: the same seed gave different edges", c.rate, c.dur)
		}
		if b := edgesOf(NewEpisodes(c.rate, c.dur, 8), horizon); slices.Equal(a, b) {
			t.Errorf("rate %v dur %v: another seed gave the same edges", c.rate, c.dur)
		}
		rd := c.rate * c.dur.Seconds()
		want := rd / (1 + rd)
		if got := onFraction(a, horizon); math.Abs(got-want) > 0.05*want {
			t.Errorf("rate %v dur %v: on %.4f of the time, want %.4f ± 5 %%", c.rate, c.dur, got, want)
		}
	}
}

// TestEpisodesConcurrentActive: relays sharing a random schedule ask it
// from several goroutines at once, and the schedule they advance is still
// the one its seed gives.
func TestEpisodesConcurrentActive(t *testing.T) {
	const rate, dur, seed = 2000, 200 * time.Microsecond, 5
	e := NewEpisodes(rate, dur, seed)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); {
				e.Active()
			}
		}()
	}
	wg.Wait()
	e.mu.Lock()
	edge, on := e.edge, e.on
	e.mu.Unlock()
	// Before the i-th edge of the seed's schedule, i flips have been made.
	i := slices.Index(referenceEdges(rate, dur, seed, edge), edge)
	if i < 1 || (i%2 == 1) != on {
		t.Fatalf("next edge %v is edge %d of the seed's schedule, on = %v", edge, i, on)
	}
}

// referenceEdges draws a random schedule's edges up to horizon all at
// once, in the order a process that sleeps off, on, off, ... from one
// seeded rand would: the schedule NewEpisodes must answer lazily.
func referenceEdges(rate float64, dur time.Duration, seed int64, horizon time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	var at time.Duration
	for on := false; at <= horizon; on = !on {
		if on {
			at += time.Duration(rng.ExpFloat64() * dur.Seconds() * float64(time.Second))
		} else {
			at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		}
		out = append(out, at)
	}
	return out
}

// FuzzEpisodeSchedule: for any valid rate, duration and seed, and any
// non-decreasing instants, the lazily drawn schedule answers as the one
// drawn up front does.
func FuzzEpisodeSchedule(f *testing.F) {
	f.Add(uint16(5000), uint32(20_000), int64(7), []byte{1, 2, 3, 200, 0, 0, 255})
	f.Add(uint16(10), uint32(2_000_000), int64(1), []byte{255, 255, 255, 255})
	f.Add(uint16(0), uint32(0), int64(-3), []byte{0, 1, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, rateRaw uint16, durRaw uint32, seed int64, steps []byte) {
		if len(steps) > 256 {
			steps = steps[:256]
		}
		rate := 0.01 + float64(rateRaw)/100                                         // (0, 656] per second
		dur := time.Microsecond + time.Duration(durRaw%10_000_000)*time.Microsecond // up to 10 s
		step := (time.Duration(float64(time.Second)/rate) + dur) / 32
		var horizon time.Duration
		for _, s := range steps {
			horizon += time.Duration(s) * step
		}
		ref := referenceEdges(rate, dur, seed, horizon)
		e := NewEpisodes(rate, dur, seed)
		var at time.Duration
		for i, s := range steps {
			at += time.Duration(s) * step
			flips, _ := slices.BinarySearch(ref, at+1) // edges at or before at
			if want := flips%2 == 1; e.activeAt(at) != want {
				t.Fatalf("query %d at %v: active %v, the schedule drawn up front says %v", i, at, !want, want)
			}
		}
	})
}

func TestSharedEpisodesThrottleRelay(t *testing.T) {
	// A relay with a shared schedule that is permanently ON must forward at
	// the episode rate; with the schedule OFF, at full rate.
	run := func(active bool) time.Duration {
		b := newSinkBackend(t)
		var e *Episodes
		if active {
			// Zero offset: the episode starts immediately and lasts ~1h.
			e = NewPeriodicEpisodes(time.Hour, time.Hour-time.Second, 0)
			if !e.Active() {
				t.Fatal("shared schedule should be active")
			}
		} else {
			// First episode is an hour away: permanently inactive here.
			e = NewPeriodicEpisodes(time.Hour, time.Second, time.Hour)
		}
		r, err := Listen("127.0.0.1:0", b.ln.Addr().String(), PathConfig{
			RateBps:       400 * 1024,
			EpisodeFactor: 0.1,
			Shared:        e,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		start := time.Now()
		dialAndSend(t, r.Addr(), make([]byte, 32*1024))
		<-b.done
		return time.Since(start)
	}
	slow := run(true)
	fast := run(false)
	if slow < 3*fast {
		t.Fatalf("shared episode did not throttle: active %v vs inactive %v", slow, fast)
	}
}
