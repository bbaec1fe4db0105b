package dmpmodel

import (
	"strings"
	"testing"
	"time"

	"dmpstream/internal/tcpmodel"
)

func ratioModel(t *testing.T, ratio, mu float64) Model {
	t.Helper()
	par, err := RForRatio(0.02, 4, 0, mu, ratio, 2)
	if err != nil {
		t.Fatal(err)
	}
	return Model{Paths: []tcpmodel.Params{par, par}, Mu: mu}
}

func TestTransientStoredBeatsLive(t *testing.T) {
	// The live cap N ≤ µτ throttles senders whenever the client is maximally
	// ahead; stored streaming has no such cap, so at a tight provisioning
	// ratio it must lose no more packets than live streaming.
	m := ratioModel(t, 1.2, 25)
	opts := Options{Seed: 9, MaxConsumptions: 3_000_000}
	live, err := m.TransientFractionLate(4, 200, false, opts)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := m.TransientFractionLate(4, 200, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	if live.F <= 0 {
		t.Fatalf("live f = %v at ratio 1.2; expected lateness", live.F)
	}
	if stored.F > live.F+stored.CI95+live.CI95 {
		t.Fatalf("stored (%v) worse than live (%v)", stored.F, live.F)
	}
}

func TestTransientMatchesStationaryRegime(t *testing.T) {
	// For long videos the transient live fraction should approach the
	// stationary estimate (same chain, same cap).
	m := ratioModel(t, 1.3, 25)
	opts := Options{Seed: 11, MaxConsumptions: 4_000_000}
	tr, err := m.TransientFractionLate(4, 2000, false, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.FractionLate(4, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Same order of magnitude (transient includes the startup ramp).
	if tr.F > st.F*5+0.02 || st.F > tr.F*5+0.02 {
		t.Fatalf("transient %v vs stationary %v diverge", tr.F, st.F)
	}
}

func TestTransientValidation(t *testing.T) {
	m := ratioModel(t, 1.5, 25)
	if _, err := m.TransientFractionLate(0, 100, false, Options{}); err == nil {
		t.Error("tau=0 accepted")
	}
	if _, err := m.TransientFractionLate(10, 5, false, Options{}); err == nil {
		t.Error("video shorter than tau accepted")
	}
}

func TestTransientDeterministic(t *testing.T) {
	m := ratioModel(t, 1.3, 25)
	opts := Options{Seed: 21, MaxConsumptions: 500_000}
	a, err := m.TransientFractionLate(4, 100, false, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.TransientFractionLate(4, 100, false, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.F != b.F || a.Replications != b.Replications {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestMorePathsHelpAtFixedAggregate(t *testing.T) {
	// The paper's future-work question: does K > 2 help further? At a fixed
	// σ_a/µ, more paths give finer-grained diversity; the late fraction
	// should not get worse as K grows.
	const mu, ratio, tau = 25.0, 1.4, 5.0
	var prev float64 = 1.1
	for _, k := range []int{1, 2, 4} {
		par, err := RForRatio(0.02, 4, 0, mu, ratio, k)
		if err != nil {
			t.Fatal(err)
		}
		paths := make([]tcpmodel.Params, k)
		for i := range paths {
			paths[i] = par
		}
		m := Model{Paths: paths, Mu: mu}
		res, err := m.FractionLate(tau, Options{Seed: 31, MaxConsumptions: 600_000})
		if err != nil {
			t.Fatal(err)
		}
		if res.F > prev+3*res.CI95+2e-3 {
			t.Fatalf("K=%d made things worse: f=%v (prev %v)", k, res.F, prev)
		}
		prev = res.F
	}
}

func TestPathSharesFollowThroughput(t *testing.T) {
	// A path with half the RTT has twice the achievable throughput and must
	// carry roughly twice the packets — the model-side mirror of DMP's
	// dynamic allocation.
	fast := tcpmodel.Params{P: 0.02, R: 0.08, TO: 2}
	slow := tcpmodel.Params{P: 0.02, R: 0.16, TO: 2}
	sf, _ := Sigma(fast)
	ss, _ := Sigma(slow)
	m := Model{Paths: []tcpmodel.Params{fast, slow}, Mu: (sf + ss) / 1.2}
	res, err := m.FractionLate(5, Options{Seed: 17, MaxConsumptions: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PathShares) != 2 {
		t.Fatalf("shares = %v", res.PathShares)
	}
	ratio := res.PathShares[0] / res.PathShares[1]
	if ratio < 1.5 || ratio > 2.6 {
		t.Fatalf("fast/slow share ratio %.2f, want ≈2", ratio)
	}
}

// TestTransientBounded: a video whose three replications alone are past the
// default warm-up's cap (µ = 10⁹ for 60 s is 1.8·10¹¹ consumptions, hours of
// sampling) is refused at once, with the count in the error.
func TestTransientBounded(t *testing.T) {
	m := Model{Paths: []tcpmodel.Params{{P: 0.02, R: 0.2, TO: 4}}, Mu: 1e9}
	start := time.Now()
	_, err := m.TransientFractionLate(1, 60, false, Options{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "1.8e+11 consumptions") {
		t.Fatalf("TransientFractionLate = %v, want a refusal naming 1.8e+11 consumptions", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("the refusal took %v", d)
	}
}
