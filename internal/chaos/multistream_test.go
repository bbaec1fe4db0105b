package chaos

import (
	"reflect"
	"testing"
	"time"
)

// TestChaosMultiStream soaks a registry serving four concurrent streams
// under the seeded multi-stream churn schedule: joins and bursts land
// across all stream ids, stream 0 is ended mid-run (its joiners must see
// the stream-ended reject while siblings keep serving), and every stayer —
// including the one on the ended stream — must finish with a perfectly
// conserved stream. The nightly CI soak runs the same engine via
// cmd/dmpchaos -multi for 30s under the race detector.
func TestChaosMultiStream(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	rep, err := RunMulti(MultiConfig{
		Seed:     1,
		Duration: 3 * time.Second,
		Streams:  4,
		MaxBytes: 24 << 10,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if t.Failed() {
		t.Fatalf("seed %d failed; rerun with: go run ./cmd/dmpchaos -multi -seed %d -duration 3s",
			rep.Seed, rep.Seed)
	}
	if rep.Events == 0 {
		t.Fatal("schedule executed no events")
	}
	if rep.Joins+rep.Rejected == 0 {
		t.Fatal("no churn joins were attempted")
	}
	if len(rep.Stayers) != 4 {
		t.Fatalf("expected 4 stayer results, got %d", len(rep.Stayers))
	}
	for id, s := range rep.Stayers {
		if s.Err != "" || s.Received != s.Expected {
			t.Errorf("stayer on %s: received %d of %d (%s)", id, s.Received, s.Expected, s.Err)
		}
	}
	// The mid-run End must have left exactly one tombstone at snapshot time
	// and three live siblings.
	if got := len(rep.Final.Streams); got != 3 {
		t.Errorf("live streams at teardown = %d, want 3", got)
	}
	if len(rep.Final.Ended) != 1 || rep.Final.Ended[0] != rep.EndedMid {
		t.Errorf("ended streams = %v, want [%s]", rep.Final.Ended, rep.EndedMid)
	}
	if !rep.Drained {
		t.Fatal("registry drain failed")
	}
}

// TestChurnScheduleReproduces pins the schedule contract the multi-stream
// soak relies on: same seed, same event-for-event schedule.
func TestChurnScheduleReproduces(t *testing.T) {
	a := ChurnSchedule(42, 2*time.Second, 4, 100*time.Millisecond)
	b := ChurnSchedule(42, 2*time.Second, 4, 100*time.Millisecond)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different churn schedules")
	}
	if len(a) == 0 {
		t.Fatal("schedule is empty")
	}
	c := ChurnSchedule(43, 2*time.Second, 4, 100*time.Millisecond)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew identical schedules")
	}
	for i, ev := range a {
		if ev.Stream < 0 || ev.Stream >= 4 {
			t.Fatalf("event %d targets stream %d, want 0..3", i, ev.Stream)
		}
		if i > 0 && ev.At < a[i-1].At {
			t.Fatalf("event %d at %v before event %d at %v", i, ev.At, i-1, a[i-1].At)
		}
	}
}
