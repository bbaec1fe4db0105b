package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestRunRefusesUnpayableWarmup: µ = 10¹² at τ = 1 s asks the default
// warm-up for 2·10¹³ consumptions; the command must refuse it within
// seconds, naming µτ, instead of sampling forever.
func TestRunRefusesUnpayableWarmup(t *testing.T) {
	done := make(chan error, 1)
	go func() { done <- run([]string{"-mu", "1e12", "-tau", "1"}, &bytes.Buffer{}) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "µτ = 1e+12") {
			t.Fatalf("run = %v, want a refusal naming µτ = 1e+12", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dmpmodel -mu 1e12 -tau 1 still running after 5 s")
	}
}

// TestRunPrintsFractionLate: a model inside the budget still prints its
// prediction.
func TestRunPrintsFractionLate(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-mu", "50", "-tau", "4", "-budget", "100000"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fraction of late packets at tau=4s: ") {
		t.Fatalf("output lacks the prediction:\n%s", out.String())
	}
}
