//go:build !race

// The search below samples about 2·10⁸ consumptions (≈ 12 s on a 2-vCPU
// machine); it shares no state between goroutines, so it stays out of
// race runs, which would take ten times as long.

package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunThresholdPastWarmupCap: at µ = 5·10⁴ a 120 s search reaches past
// the delays the default warm-up can pay (100 s); the search starts there
// instead of refusing, and two fast paths still get their small answer.
func TestRunThresholdPastWarmupCap(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-paths", "0.01:0.2:4,0.01:0.2:4", "-mu", "5e4", "-threshold", "0.01", "-budget", "20000"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "required startup delay for late fraction < 0.01: 500ms") {
		t.Fatalf("output lacks the 500ms answer:\n%s", out.String())
	}
}
