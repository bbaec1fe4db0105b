package chaos

import (
	"fmt"
	"testing"
	"time"
)

// TestChaosShortSoak runs the harness at a pinned seed in each topology for
// a few seconds: enough for faults, churn, overload bursts, the mid-run end
// and relay kills to land, while staying inside ordinary `go test` budgets.
// The nightly CI soak runs the same engine via cmd/dmpchaos for 30s under
// the race detector.
func TestChaosShortSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		subs int // conserving subscribers: stayers plus leaves
	}{
		// A tight budget so the governor acts on the hog within the run.
		{"hub", Config{Streams: 1, MaxBytes: 24 << 10}, 2},
		{"registry", Config{Streams: 4, MaxBytes: 24 << 10}, 8},
		{"tree", Config{Streams: 1, Depth: 2}, 2 + leaves},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed, cfg.Duration, cfg.Logf = 1, 2500*time.Millisecond, t.Logf
			rep, err := Run(cfg)
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			for _, v := range rep.Violations {
				t.Errorf("violation: %s", v)
			}
			if t.Failed() {
				cfg = cfg.withDefaults()
				t.Fatalf("rerun with: go run ./cmd/dmpchaos -seed %d -duration %v -streams %d -depth %d -max-bytes %d",
					cfg.Seed, cfg.Duration, cfg.Streams, cfg.Depth, cfg.MaxBytes)
			}
			if rep.Events == 0 || rep.Faults == 0 {
				t.Fatalf("schedule executed %d events, %d faults", rep.Events, rep.Faults)
			}
			if len(rep.Subscribers) != tc.subs {
				t.Fatalf("%d subscriber verdicts, want %d", len(rep.Subscribers), tc.subs)
			}
			if !rep.Drained {
				t.Fatal("origin drain failed")
			}
			switch {
			case cfg.Depth > 0:
				if rep.Kills == 0 {
					t.Error("tree schedule killed no relay")
				}
				if len(rep.Relays) != cfg.Depth*relaysPerTier {
					t.Errorf("relay reports: %d, want %d", len(rep.Relays), cfg.Depth*relaysPerTier)
				}
			case rep.Joins+rep.Rejected == 0:
				t.Error("no churn joins were attempted")
			}
			// The mid-run End must leave exactly one tombstone, the last
			// stream's, at snapshot time and the siblings live.
			if cfg.Streams > 1 {
				if got := len(rep.Final.Streams); got != cfg.Streams-1 {
					t.Errorf("live streams at teardown = %d, want %d", got, cfg.Streams-1)
				}
				if want := fmt.Sprintf("chaos-%d", cfg.Streams-1); len(rep.Final.Ended) != 1 || rep.Final.Ended[0] != want {
					t.Errorf("ended streams = %v, want [%s]", rep.Final.Ended, want)
				}
			}
		})
	}
}
