package dmpmodel

import (
	"math"
	"strings"
	"testing"
	"time"

	"dmpstream/internal/tcpmodel"
)

// smallPath returns a tiny-window path whose composed chain is exactly
// solvable: Wmax=4 keeps the per-flow space to ~15 states.
func smallPath() tcpmodel.Params {
	return tcpmodel.Params{P: 0.1, R: 0.2, TO: 2, Wmax: 4}
}

func TestMonteCarloMatchesExactSolution(t *testing.T) {
	p := smallPath()
	sigma, err := Sigma(p)
	if err != nil {
		t.Fatal(err)
	}
	mu := 2 * sigma / 1.3 // σ_a/µ = 1.3: substantial late fraction, fast mixing
	const nmax, floor = 20, -80

	exact, err := ExactFractionLate(p, p, mu, nmax, floor, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if exact <= 0 || exact >= 1 {
		t.Fatalf("exact f = %v, expected in (0,1)", exact)
	}

	m := Model{Paths: []tcpmodel.Params{p, p}, Mu: mu}
	fl := int64(floor)
	tau := float64(nmax) / mu
	res, err := m.FractionLate(tau, Options{
		Seed:            1,
		MaxConsumptions: 3_000_000,
		FloorN:          &fl,
	})
	if err != nil {
		t.Fatal(err)
	}
	tol := 3*res.CI95 + 0.15*exact
	if math.Abs(res.F-exact) > tol {
		t.Fatalf("MC f = %v (CI %v), exact f = %v: disagreement beyond tolerance %v",
			res.F, res.CI95, exact, tol)
	}
}

func TestFractionLateMonotoneInTau(t *testing.T) {
	p := tcpmodel.Params{P: 0.02, R: 0.15, TO: 4}
	sigma, _ := Sigma(p)
	m := Model{Paths: []tcpmodel.Params{p, p}, Mu: 2 * sigma / 1.4}
	prev := 1.1
	for _, tau := range []float64{1, 2, 4, 8} {
		res, err := m.FractionLate(tau, Options{Seed: 2, MaxConsumptions: 400_000})
		if err != nil {
			t.Fatal(err)
		}
		if res.F > prev+3*res.CI95+0.002 {
			t.Fatalf("f(tau=%v) = %v rose above f at smaller tau (%v)", tau, res.F, prev)
		}
		prev = res.F
	}
}

func TestFractionLateDecreasesWithRatio(t *testing.T) {
	// The paper's Fig 8 shape: increasing σ_a/µ improves performance.
	var prev = 1.1
	for _, ratio := range []float64{1.2, 1.6, 2.0} {
		par, err := RForRatio(0.02, 4, 0, 25, ratio, 2)
		if err != nil {
			t.Fatal(err)
		}
		m := Model{Paths: []tcpmodel.Params{par, par}, Mu: 25}
		res, err := m.FractionLate(6, Options{Seed: 3, MaxConsumptions: 400_000})
		if err != nil {
			t.Fatal(err)
		}
		if res.F >= prev {
			t.Fatalf("f at ratio %v = %v, not below %v", ratio, res.F, prev)
		}
		prev = res.F
	}
}

func TestOverprovisionedIsNearlyLossless(t *testing.T) {
	par, err := RForRatio(0.004, 1, 0, 25, 3.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{Paths: []tcpmodel.Params{par, par}, Mu: 25}
	res, err := m.FractionLate(15, Options{Seed: 4, MaxConsumptions: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.F > 1e-3 {
		t.Fatalf("f = %v at σ_a/µ=3 with 15s delay", res.F)
	}
}

func TestUnderprovisionedIsBad(t *testing.T) {
	par, err := RForRatio(0.02, 4, 0, 25, 0.8, 2) // σ_a below µ: doomed
	if err != nil {
		t.Fatal(err)
	}
	m := Model{Paths: []tcpmodel.Params{par, par}, Mu: 25}
	res, err := m.FractionLate(5, Options{Seed: 5, MaxConsumptions: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.F < 0.05 {
		t.Fatalf("f = %v despite σ_a/µ=0.8", res.F)
	}
}

func TestRForRatioHitsTarget(t *testing.T) {
	for _, ratio := range []float64{1.2, 1.6, 2.0} {
		par, err := RForRatio(0.02, 4, 0, 50, ratio, 2)
		if err != nil {
			t.Fatal(err)
		}
		m := Model{Paths: []tcpmodel.Params{par, par}, Mu: 50}
		agg, err := m.AggregateThroughput()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(agg/50-ratio) > 1e-6 {
			t.Fatalf("ratio %v: got σ_a/µ = %v", ratio, agg/50)
		}
	}
}

func TestMuForRatioHitsTarget(t *testing.T) {
	mu, par, err := MuForRatio(0.02, 0.2, 4, 0, 1.6, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{Paths: []tcpmodel.Params{par, par}, Mu: mu}
	agg, err := m.AggregateThroughput()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(agg/mu-1.6) > 1e-6 {
		t.Fatalf("got σ_a/µ = %v", agg/mu)
	}
}

func TestCase1PreservesAggregateThroughput(t *testing.T) {
	homo := tcpmodel.Params{P: 0.01, R: 0.15, TO: 4}
	sigmaO, err := Sigma(homo)
	if err != nil {
		t.Fatal(err)
	}
	for _, gamma := range []float64{1.5, 2.0} {
		paths := Case1RTTHetero(homo, gamma)
		s1, _ := Sigma(paths[0])
		s2, _ := Sigma(paths[1])
		if math.Abs((s1+s2)-2*sigmaO)/(2*sigmaO) > 1e-9 {
			t.Fatalf("gamma %v: aggregate %v vs homogeneous %v", gamma, s1+s2, 2*sigmaO)
		}
		if paths[0].R != gamma*homo.R {
			t.Fatalf("R1 = %v", paths[0].R)
		}
	}
}

func TestCase2PreservesAggregateThroughput(t *testing.T) {
	homo := tcpmodel.Params{P: 0.02, R: 0.1, TO: 4}
	sigmaO, err := Sigma(homo)
	if err != nil {
		t.Fatal(err)
	}
	for _, gamma := range []float64{1.5, 2.0} {
		paths, err := Case2LossHetero(homo, gamma)
		if err != nil {
			t.Fatal(err)
		}
		s1, _ := Sigma(paths[0])
		s2, _ := Sigma(paths[1])
		if math.Abs((s1+s2)-2*sigmaO)/(2*sigmaO) > 0.02 {
			t.Fatalf("gamma %v: aggregate %v vs homogeneous %v", gamma, s1+s2, 2*sigmaO)
		}
		if paths[0].P != gamma*homo.P {
			t.Fatalf("p1 = %v", paths[0].P)
		}
		if paths[1].P >= homo.P {
			t.Fatalf("p2 = %v should be below p° = %v", paths[1].P, homo.P)
		}
	}
}

func TestRequiredStartupDelayMonotoneInRatio(t *testing.T) {
	get := func(ratio float64) float64 {
		par, err := RForRatio(0.02, 2, 0, 25, ratio, 2)
		if err != nil {
			t.Fatal(err)
		}
		m := Model{Paths: []tcpmodel.Params{par, par}, Mu: 25}
		tau, err := m.RequiredStartupDelay(1e-2, 1, 60, Options{Seed: 6, MaxConsumptions: 400_000})
		if err != nil {
			t.Fatal(err)
		}
		return tau
	}
	lo, hi := get(1.8), get(1.3)
	if lo > hi {
		t.Fatalf("required delay at ratio 1.8 (%v) exceeds ratio 1.3 (%v)", lo, hi)
	}
}

func TestRequiredStartupDelayInfeasible(t *testing.T) {
	par, err := RForRatio(0.02, 4, 0, 25, 0.9, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{Paths: []tcpmodel.Params{par, par}, Mu: 25}
	tau, err := m.RequiredStartupDelay(1e-4, 1, 10, Options{Seed: 7, MaxConsumptions: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(tau, 1) {
		t.Fatalf("tau = %v for infeasible ratio", tau)
	}
}

func TestStaticWorseThanDMP(t *testing.T) {
	// The paper's Fig 11 claim: static allocation needs (much) more buffer.
	par, err := RForRatio(0.02, 4, 0, 50, 1.4, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{Paths: []tcpmodel.Params{par, par}, Mu: 50}
	opts := Options{Seed: 8, MaxConsumptions: 800_000}
	tau := 3.0
	dmp, err := m.FractionLate(tau, opts)
	if err != nil {
		t.Fatal(err)
	}
	static, err := StaticFractionLate(m.Paths, m.Mu, tau, opts)
	if err != nil {
		t.Fatal(err)
	}
	if static.F <= dmp.F {
		t.Fatalf("static f (%v) not worse than DMP f (%v)", static.F, dmp.F)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	p := tcpmodel.Params{P: 0.02, R: 0.2, TO: 4}
	m := Model{Paths: []tcpmodel.Params{p, p}, Mu: 20}
	a, err := m.FractionLate(3, Options{Seed: 11, MaxConsumptions: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.FractionLate(3, Options{Seed: 11, MaxConsumptions: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if a.F != b.F || a.Late != b.Late {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestValidation(t *testing.T) {
	good := tcpmodel.Params{P: 0.02, R: 0.2, TO: 4}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []Model{
		{Paths: nil, Mu: 10},
		{Paths: []tcpmodel.Params{good}, Mu: 0},
		{Paths: []tcpmodel.Params{good}, Mu: nan},
		{Paths: []tcpmodel.Params{good}, Mu: inf},
		{Paths: []tcpmodel.Params{good}, Mu: -inf},
		{Paths: []tcpmodel.Params{{P: 2, R: 0.1, TO: 4}}, Mu: 10},
		{Paths: []tcpmodel.Params{{P: nan, R: 0.1, TO: 4}}, Mu: 10},
		{Paths: []tcpmodel.Params{{P: 0.02, R: 0, TO: 4}}, Mu: 10},
		{Paths: []tcpmodel.Params{{P: 0.02, R: -0.1, TO: 4}}, Mu: 10},
		{Paths: []tcpmodel.Params{{P: 0.02, R: nan, TO: 4}}, Mu: 10},
		{Paths: []tcpmodel.Params{{P: 0.02, R: inf, TO: 4}}, Mu: 10},
		{Paths: []tcpmodel.Params{{P: 0.02, R: 0.1, TO: nan}}, Mu: 10},
		{Paths: []tcpmodel.Params{{P: 0.02, R: 0.1, TO: inf}}, Mu: 10},
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d (%+v) accepted", i, m)
		}
	}
	m := Model{Paths: []tcpmodel.Params{good}, Mu: 10}
	for _, tau := range []float64{0, -1, nan, inf} {
		if _, err := m.FractionLate(tau, Options{}); err == nil {
			t.Errorf("tau=%v accepted", tau)
		}
	}
	if _, err := m.RequiredStartupDelay(1e-4, 0, 10, Options{}); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := m.RequiredStartupDelay(1e-4, nan, 10, Options{}); err == nil {
		t.Error("NaN step accepted")
	}
	if _, err := m.TransientFractionLate(nan, 60, false, Options{}); err == nil {
		t.Error("NaN transient tau accepted")
	}
}

// TestSigmaRefusesBadRTT: σ = σ̂/R is solved at R = 1, so Sigma checks R
// itself; an R of 0 used to come back as σ = +Inf and a NaN R as a
// negative or NaN σ.
func TestSigmaRefusesBadRTT(t *testing.T) {
	for _, r := range []float64{0, -0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if s, err := Sigma(tcpmodel.Params{P: 0.02, R: r, TO: 4}); err == nil {
			t.Errorf("R=%v accepted: sigma=%v", r, s)
		}
	}
	for _, par := range []tcpmodel.Params{
		{P: math.NaN(), R: 0.1, TO: 4},
		{P: 0.02, R: 0.1, TO: math.NaN()},
		{P: 0.02, R: 0.1, TO: math.Inf(1)},
	} {
		if s, err := Sigma(par); err == nil {
			t.Errorf("%+v accepted: sigma=%v", par, s)
		}
	}
	if s, err := Sigma(tcpmodel.Params{P: 0.02, R: 0.1, TO: 4}); err != nil || !(s > 0) {
		t.Errorf("good params: sigma=%v, err=%v", s, err)
	}
}

func TestSigmaCacheConsistency(t *testing.T) {
	p := tcpmodel.Params{P: 0.013, R: 0.27, TO: 3}
	a, err := Sigma(p)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := tcpmodel.Throughput(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-direct)/direct > 1e-9 {
		t.Fatalf("cached σ = %v, direct = %v", a, direct)
	}
	b, _ := Sigma(p) // cached path
	if a != b {
		t.Fatalf("cache changed value: %v vs %v", a, b)
	}
}

func TestSinglePathModelDegenerate(t *testing.T) {
	// K=1 reduces to the single-path streaming model of [31]; it must need a
	// higher σ/µ than K=2 for the same quality (the paper's core claim).
	p1, err := RForRatio(0.02, 4, 0, 25, 1.6, 1)
	if err != nil {
		t.Fatal(err)
	}
	single := Model{Paths: []tcpmodel.Params{p1}, Mu: 25}
	p2, err := RForRatio(0.02, 4, 0, 25, 1.6, 2)
	if err != nil {
		t.Fatal(err)
	}
	dual := Model{Paths: []tcpmodel.Params{p2, p2}, Mu: 25}
	opts := Options{Seed: 13, MaxConsumptions: 600_000}
	fs, err := single.FractionLate(8, opts)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := dual.FractionLate(8, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fd.F > fs.F+3*(fd.CI95+fs.CI95)+1e-3 {
		t.Fatalf("two paths (f=%v) not at least as good as one (f=%v) at equal σ_a/µ", fd.F, fs.F)
	}
}

func BenchmarkFractionLateJumpChain(b *testing.B) {
	p := tcpmodel.Params{P: 0.02, R: 0.15, TO: 4}
	m := Model{Paths: []tcpmodel.Params{p, p}, Mu: 30}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.FractionLate(5, Options{Seed: int64(i), MaxConsumptions: 100_000}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDefaultWarmupBounded: a µτ whose default warm-up (20·µτ consumptions)
// is past maxDefaultWarmup is refused at once, naming µτ (µ = 10¹² at
// τ = 1 s would otherwise sample for hours), an explicit warm-up still
// runs, and a model under the cap gives bit-identical results to the
// warm-up the default has always set.
func TestDefaultWarmupBounded(t *testing.T) {
	p := tcpmodel.Params{P: 0.02, R: 0.2, TO: 4}
	huge := Model{Paths: []tcpmodel.Params{p}, Mu: 1e12}
	start := time.Now()
	_, err := huge.FractionLate(1, Options{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "µτ = 1e+12") {
		t.Fatalf("FractionLate = %v, want a refusal naming µτ = 1e+12", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("the refusal took %v", d)
	}
	if _, err := huge.FractionLate(1, Options{Seed: 1, Warmup: 1000, MaxConsumptions: 20_000}); err != nil {
		t.Fatalf("an explicit warm-up refused: %v", err)
	}

	m := Model{Paths: []tcpmodel.Params{p, p}, Mu: 2000}
	const tau = 30 // 20·µτ = 1.2·10⁶, past the 20 000 floor
	def, err := m.FractionLate(tau, Options{Seed: 3, MaxConsumptions: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	set, err := m.FractionLate(tau, Options{Seed: 3, MaxConsumptions: 100_000, Warmup: 20 * 2000 * tau})
	if err != nil {
		t.Fatal(err)
	}
	if def.F != set.F || def.CI95 != set.CI95 || def.Late != set.Late || def.Consumptions != set.Consumptions {
		t.Fatalf("default warm-up gave %+v, the formula's %+v", def, set)
	}
}

// TestSearchDelayStopsAtWarmupCap: under the default warm-up a search
// starts at the largest grid delay maxDefaultTau allows (100 s at µ = 5·10⁴)
// rather than at maxTau, a miss there is an error naming it, a µ at which
// not even one step fits is refused, and an explicit warm-up searches the
// whole grid.
func TestSearchDelayStopsAtWarmupCap(t *testing.T) {
	search := func(mu float64, o Options, answer float64) (float64, []float64, error) {
		var probes []float64
		tau, err := searchDelay(mu, 0.5, 120, o, func(tau float64) (bool, error) {
			probes = append(probes, tau)
			return tau >= answer, nil
		})
		return tau, probes, err
	}
	tau, probes, err := search(5e4, Options{}, 2)
	if err != nil || tau != 2 || probes[0] != 100 {
		t.Fatalf("search = %v, %v after probes %v; want 2 with the first probe at 100", tau, err, probes)
	}
	for _, p := range probes {
		if p > maxDefaultTau(5e4) {
			t.Fatalf("probed %vs, past maxDefaultTau", p)
		}
	}
	if _, _, err := search(5e4, Options{}, 110); err == nil || !strings.Contains(err.Error(), "up to 100s") {
		t.Fatalf("a miss at the cap gave %v, want an error naming 100s", err)
	}
	if _, _, err := search(1e12, Options{}, 1); err == nil {
		t.Fatal("µ = 1e12 searched")
	}
	tau, probes, err = search(5e4, Options{Warmup: 1000}, 110)
	if err != nil || tau != 110 || probes[0] != 120 {
		t.Fatalf("explicit warm-up: %v, %v after probes %v; want 110 from 120", tau, err, probes)
	}
	tau, _, err = search(50, Options{}, 200)
	if err != nil || !math.IsInf(tau, 1) {
		t.Fatalf("a miss under the cap gave %v, %v; want +Inf", tau, err)
	}
}
