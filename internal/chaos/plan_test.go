package chaos

import (
	"reflect"
	"testing"
	"time"
)

// checkPlan pins the schedule contract for one topology: the same seed
// draws the same plan event for event, another seed a different one, and
// the plan is well formed — sorted, in range, every stall lifted, kills
// clear of the end and of each other.
func checkPlan(t *testing.T, cfg Config) []Event {
	t.Helper()
	cfg.Seed, cfg.Duration = 42, 5*time.Second
	a, b := Plan(cfg), Plan(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different plans")
	}
	if len(a) == 0 {
		t.Fatal("plan is empty")
	}
	other := cfg
	other.Seed++
	if reflect.DeepEqual(a, Plan(other)) {
		t.Fatal("different seeds drew identical plans")
	}
	stalled := make([]bool, relaysPerTier)
	lastKill := time.Duration(-1)
	for i, ev := range a {
		if ev.At < 0 || ev.At > cfg.Duration || (i > 0 && ev.At < a[i-1].At) {
			t.Fatalf("event %d at %v: out of order or outside [0, %v]", i, ev.At, cfg.Duration)
		}
		limit := 1
		switch ev.Kind {
		case Join, Burst, Breather, End:
			limit = cfg.Streams
		case Drop, Sever, Stall, Unstall:
			limit = relaysPerTier
		case Kill:
			limit = cfg.Depth * relaysPerTier
		}
		if ev.Target < 0 || ev.Target >= limit {
			t.Fatalf("event %d (%v) targets %d, want 0..%d", i, ev.Kind, ev.Target, limit-1)
		}
		switch ev.Kind {
		case Drop, Sever, Stall, Unstall, Kill:
			if cfg.Duration-ev.At < quietTail {
				t.Fatalf("event %d: %v at %v, inside the quiet tail of %v", i, ev.Kind, ev.At, cfg.Duration)
			}
		default:
			// Churn and the mid-run end may land anywhere.
		}
		switch ev.Kind {
		case Stall, Unstall:
			if stalled[ev.Target] == (ev.Kind == Stall) {
				t.Fatalf("event %d: %v on fault relay %d out of turn", i, ev.Kind, ev.Target)
			}
			stalled[ev.Target] = ev.Kind == Stall
		case Kill:
			if lastKill >= 0 && ev.At-lastKill < killSpacing {
				t.Fatalf("kill at %v: too close to the previous kill at %v", ev.At, lastKill)
			}
			lastKill = ev.At
		default:
			// The other kinds carry no pairing or spacing rule.
		}
	}
	for k, s := range stalled {
		if s {
			t.Fatalf("fault relay %d left stalled", k)
		}
	}
	if last := a[len(a)-1]; last.Kind != Breather || last.At != cfg.Duration {
		t.Fatalf("plan ends with %v at %v, want a breather at %v", last.Kind, last.At, cfg.Duration)
	}
	return a
}

func count(evs []Event, kinds ...Kind) int {
	n := 0
	for _, ev := range evs {
		for _, k := range kinds {
			if ev.Kind == k {
				n++
			}
		}
	}
	return n
}

// TestChaosSeededScheduleReproduces: a single hub's plan is churn and
// faults only.
func TestChaosSeededScheduleReproduces(t *testing.T) {
	p := checkPlan(t, Config{Streams: 1})
	if count(p, Join, Burst) == 0 || count(p, Drop, Sever, Stall) == 0 {
		t.Fatal("hub plan lacks churn or faults")
	}
	if count(p, Kill, End) != 0 {
		t.Fatal("hub plan kills relays or ends its only stream")
	}
}

// TestChurnScheduleReproduces: a registry's plan spreads churn across every
// stream and ends the last one exactly once, halfway.
func TestChurnScheduleReproduces(t *testing.T) {
	p := checkPlan(t, Config{Streams: 4})
	hit := map[int]bool{}
	for _, ev := range p {
		if ev.Kind == Join || ev.Kind == Burst {
			hit[ev.Target] = true
		}
		if ev.Kind == End && (ev.At != 5*time.Second/2 || ev.Target != 3) {
			t.Fatalf("stream %d ends at %v, want stream 3 halfway", ev.Target, ev.At)
		}
	}
	if len(hit) != 4 || count(p, End) != 1 {
		t.Fatalf("churn hit streams %v, %d ends; want all 4 and one end", hit, count(p, End))
	}
}

// TestTreeSeededScheduleReproduces: a tree's plan is faults and kills, no
// origin churn.
func TestTreeSeededScheduleReproduces(t *testing.T) {
	p := checkPlan(t, Config{Streams: 1, Depth: 2})
	if n := count(p, Kill); n == 0 || n > maxKills {
		t.Fatalf("%d kills, want 1..%d", n, maxKills)
	}
	if count(p, Join, Burst) != 0 {
		t.Fatal("tree plan churns the origin")
	}
}
