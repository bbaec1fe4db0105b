package dmpmodel

import (
	"math"
	"testing"

	"dmpstream/internal/markov"
	"dmpstream/internal/tcpmodel"
)

// TestTransientMatchesUniformization cross-validates the Monte-Carlo
// transient estimator against exact uniformization of the composed chain on
// a truncated instance: buildup phase [0, τ) without consumption, then
// playback with the late-probability integrated over the video horizon.
func TestTransientMatchesUniformization(t *testing.T) {
	p := smallPath()
	sigma, err := Sigma(p)
	if err != nil {
		t.Fatal(err)
	}
	mu := 2 * sigma / 1.25 // tight enough for measurable lateness
	const (
		nmax     = 10
		floor    = -60
		videoSec = 40.0
	)
	tau := float64(nmax) / mu

	// Phase 1: buffer buildup from empty, no consumption (floor at the cap).
	buildup := ExactGenerator(p, p, 0, nmax, nmax)
	init := Composite{F1: tcpmodel.Initial(p), F2: tcpmodel.Initial(p), N: 0}
	ts1, err := markov.NewTransientSolver(buildup, init, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Advance(tau)

	// Phase 2: playback dynamics; integrate µ·P(N ≤ 0) over the video.
	full := ExactGenerator(p, p, mu, nmax, floor)
	ts2, err := markov.NewTransientSolver(full, init, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts2.SetDist(ts1.Dist()); err != nil {
		t.Fatal(err)
	}
	const dt = 0.05
	var lateMass float64
	for tt := 0.0; tt < videoSec; tt += dt {
		ts2.Advance(dt)
		lateMass += mu * dt * ts2.Prob(func(c Composite) bool { return c.N <= 0 && c.N > floor })
	}
	exactF := lateMass / (mu * videoSec)

	// Monte-Carlo estimator with the same truncation-free dynamics (the
	// floor is far below anything the chain visits here).
	m := Model{Paths: []tcpmodel.Params{p, p}, Mu: mu}
	res, err := m.TransientFractionLate(tau, videoSec, false, Options{
		Seed: 5, MaxConsumptions: 3_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}

	if exactF <= 0 {
		t.Fatalf("exact transient late fraction = %v; test setting should produce lateness", exactF)
	}
	tol := 3*res.CI95 + 0.2*exactF
	if math.Abs(res.F-exactF) > tol {
		t.Fatalf("MC transient %v (CI %v) vs uniformization %v: beyond tolerance %v",
			res.F, res.CI95, exactF, tol)
	}
}
