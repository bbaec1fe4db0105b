package main

import (
	"path/filepath"
	"testing"
	"time"
)

// smokeShape shrinks every part of a run: a few dozen subscribers, two
// set-ups, fractions of a second of warm-up, a twentieth of the ladder.
var smokeShape = shape{
	p:          frozen.scaled(40),
	reps:       2,
	warm:       150 * time.Millisecond,
	reduced:    frozen.scaled(60),
	reducedFor: 250 * time.Millisecond,
	ladderDiv:  20,
	sample:     4,
}

// TestSmoke runs every workload for a moment at tiny sizes, untraced and
// (one of them) traced, and holds the output to BENCHMARK.json: every
// workload it lists runs and passes its own correctness checks, and every
// metric it lists comes out exactly once, by that name, with a unit.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	check := func(t *testing.T, res result, want []metricSpec) {
		t.Helper()
		for _, b := range res.Bad {
			t.Errorf("%s: %s", res.Workload, b)
		}
		// A run lets a shortfall pass, since a shared box can cause one;
		// at these sizes and lengths nothing should.
		for _, b := range res.Short {
			t.Errorf("%s: shortfall: %s", res.Workload, b)
		}
		ln, err := resultLine(res, want)
		if err != nil {
			t.Fatal(err)
		}
		if len(ln.Metrics) != len(want) || !ln.Correct || ln.Failed != 0 {
			t.Fatalf("%s: %d metrics for %d listed, correct %v, failed %d", res.Workload, len(ln.Metrics), len(want), ln.Correct, ln.Failed)
		}
		for name, m := range ln.Metrics {
			if !nameRE.MatchString(name) || m.Unit == "" {
				t.Errorf("metric %q unit %q", name, m.Unit)
			}
		}
	}
	for _, w := range sp.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runUntraced(w.Name, smokeShape, 1, 600*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, sp.EndToEnd)
			if res.Metrics["delivered_fps"] <= 0 || res.Metrics["setup_s"] <= 0 {
				t.Errorf("%s: %v", w.Name, res.Metrics)
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		res, err := runTraced("tree_edge", smokeShape, 1, 1200*time.Millisecond, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		check(t, res, sp.PerLayer)
		if res.Metrics["bench.spans"] <= 0 || res.Metrics["hub.bytes_copied_per_frame"] != 12 {
			t.Errorf("spans %v, bytes copied per frame %v", res.Metrics["bench.spans"], res.Metrics["hub.bytes_copied_per_frame"])
		}
	})
}

// TestSpecRejectsMismatch: the program must refuse a definition that is
// not the one it implements.
func TestSpecRejectsMismatch(t *testing.T) {
	if _, err := loadSpec(filepath.Join("..", "go.mod")); err == nil {
		t.Fatal("loadSpec accepted a file that is not a benchmark definition")
	}
}
