package markov

import (
	"math"
	"testing"
	"testing/quick"
)

// mm1 builds a truncated M/M/1 queue generator: states 0..cap, arrivals λ,
// service μ. Its stationary distribution is geometric: π_i ∝ ρ^i.
func mm1(lambda, mu float64, capN int) Generator[int] {
	return func(s int) []Transition[int] {
		var trs []Transition[int]
		if s < capN {
			trs = append(trs, Transition[int]{Rate: lambda, Next: s + 1, Tag: 1})
		}
		if s > 0 {
			trs = append(trs, Transition[int]{Rate: mu, Next: s - 1})
		}
		return trs
	}
}

func TestStationaryTwoState(t *testing.T) {
	// 0 →(a) 1 →(b) 0: π0 = b/(a+b).
	a, b := 2.0, 3.0
	g := func(s int) []Transition[int] {
		if s == 0 {
			return []Transition[int]{{Rate: a, Next: 1}}
		}
		return []Transition[int]{{Rate: b, Next: 0}}
	}
	pi, err := Stationary(g, 0, 10, 1e-12, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]-b/(a+b)) > 1e-9 || math.Abs(pi[1]-a/(a+b)) > 1e-9 {
		t.Fatalf("pi = %v", pi)
	}
}

func TestStationaryMM1Geometric(t *testing.T) {
	lambda, mu := 1.0, 2.0
	const capN = 30
	pi, err := Stationary(mm1(lambda, mu, capN), 0, 100, 1e-13, 100000)
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda / mu
	norm := (1 - rho) / (1 - math.Pow(rho, capN+1))
	for i := 0; i <= capN; i++ {
		want := norm * math.Pow(rho, float64(i))
		if math.Abs(pi[i]-want) > 1e-8 {
			t.Fatalf("pi[%d] = %v, want %v", i, pi[i], want)
		}
	}
}

func TestTagRateMM1Throughput(t *testing.T) {
	// Accepted-arrival rate in a truncated M/M/1 is λ(1-π_cap).
	lambda, mu := 3.0, 2.0 // overloaded, so blocking matters
	const capN = 10
	g := mm1(lambda, mu, capN)
	pi, err := Stationary(g, 0, 100, 1e-13, 100000)
	if err != nil {
		t.Fatal(err)
	}
	got := TagRate(g, pi)
	want := lambda * (1 - pi[capN])
	if math.Abs(got-want) > 1e-8 {
		t.Fatalf("TagRate = %v, want %v", got, want)
	}
}

func TestEnumerateCounts(t *testing.T) {
	states, index, err := Enumerate(mm1(1, 1, 5), 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 6 || len(index) != 6 {
		t.Fatalf("enumerated %d states", len(states))
	}
}

func TestEnumerateTooLarge(t *testing.T) {
	_, _, err := Enumerate(mm1(1, 1, 1000), 0, 10)
	if err != ErrStateSpaceTooLarge {
		t.Fatalf("err = %v", err)
	}
}

func TestAbsorbingStateRejected(t *testing.T) {
	g := func(s int) []Transition[int] {
		if s == 0 {
			return []Transition[int]{{Rate: 1, Next: 1}}
		}
		return nil // absorbing
	}
	if _, err := Stationary(g, 0, 10, 1e-10, 1000); err == nil {
		t.Fatal("absorbing chain accepted")
	}
}

func TestNegativeRateRejected(t *testing.T) {
	g := func(s int) []Transition[int] {
		return []Transition[int]{{Rate: -1, Next: s}}
	}
	if _, _, err := Enumerate(g, 0, 10); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestSelfLoopsIgnored(t *testing.T) {
	g := func(s int) []Transition[int] {
		trs := []Transition[int]{{Rate: 5, Next: s}} // self-loop
		if s == 0 {
			trs = append(trs, Transition[int]{Rate: 1, Next: 1})
		} else {
			trs = append(trs, Transition[int]{Rate: 1, Next: 0})
		}
		return trs
	}
	pi, err := Stationary(g, 0, 10, 1e-12, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]-0.5) > 1e-9 {
		t.Fatalf("pi = %v", pi)
	}
}

// Property: for random birth-death chains, the solver satisfies detailed
// balance (birth-death chains are reversible): π_i λ_i = π_{i+1} μ_{i+1}.
func TestPropertyDetailedBalance(t *testing.T) {
	f := func(rates [6]uint8) bool {
		lam := make([]float64, 6)
		mu := make([]float64, 6)
		for i, r := range rates {
			lam[i] = 0.5 + float64(r%10)
			mu[i] = 1 + float64(r%7)
		}
		g := func(s int) []Transition[int] {
			var trs []Transition[int]
			if s < 5 {
				trs = append(trs, Transition[int]{Rate: lam[s], Next: s + 1})
			}
			if s > 0 {
				trs = append(trs, Transition[int]{Rate: mu[s], Next: s - 1})
			}
			return trs
		}
		pi, err := Stationary(g, 0, 10, 1e-13, 100000)
		if err != nil {
			return false
		}
		for i := 0; i < 5; i++ {
			if math.Abs(pi[i]*lam[i]-pi[i+1]*mu[i+1]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: stationary probabilities are a distribution: non-negative, sum 1.
func TestPropertyDistribution(t *testing.T) {
	f := func(a, b, c uint8) bool {
		// Random 3-cycle with extra chords.
		r := []float64{1 + float64(a%9), 1 + float64(b%9), 1 + float64(c%9)}
		g := func(s int) []Transition[int] {
			next := (s + 1) % 3
			back := (s + 2) % 3
			return []Transition[int]{
				{Rate: r[s], Next: next},
				{Rate: 0.5, Next: back},
			}
		}
		pi, err := Stationary(g, 0, 10, 1e-12, 10000)
		if err != nil {
			return false
		}
		var sum float64
		for _, p := range pi {
			if p < 0 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStationaryMM1(b *testing.B) {
	g := mm1(1, 1.2, 200)
	for i := 0; i < b.N; i++ {
		if _, err := Stationary(g, 0, 300, 1e-10, 100000); err != nil {
			b.Fatal(err)
		}
	}
}
