package tcpmodel

import (
	"math"
	"testing"
	"testing/quick"

	"dmpstream/internal/markov"
)

func TestStateSpaceIsFiniteAndModest(t *testing.T) {
	par := Params{P: 0.02, R: 0.2, TO: 4}
	states, _, err := markov.Enumerate(Generator(par), Initial(par), 200000)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) < 50 || len(states) > 50000 {
		t.Fatalf("reachable states = %d; expected a modest finite chain", len(states))
	}
}

func TestStateInvariants(t *testing.T) {
	par := Params{P: 0.04, R: 0.1, TO: 2}
	states, _, err := markov.Enumerate(Generator(par), Initial(par), 200000)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range states {
		if s.W < 1 || int(s.W) > par.withDefaults().Wmax {
			t.Fatalf("window out of range: %+v", s)
		}
		if s.SS < 2 {
			t.Fatalf("ssthresh below 2: %+v", s)
		}
		if s.L > 0 && s.E > 0 {
			t.Fatalf("simultaneous detection and timeout: %+v", s)
		}
		if s.E == 0 && s.Q == 1 {
			t.Fatalf("retransmission flag outside timeout phase: %+v", s)
		}
		if s.E > 0 && (s.W != 1 || s.Q != 1) {
			t.Fatalf("malformed timeout state: %+v", s)
		}
	}
}

func TestRatesConserveProbability(t *testing.T) {
	// Transitions out of a sending round must have total rate 1/R (the round
	// outcomes partition the probability space).
	par := Params{P: 0.02, R: 0.25, TO: 4}
	states, _, err := markov.Enumerate(Generator(par), Initial(par), 200000)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range states {
		if s.E > 0 {
			continue // timeout states have their own slower clock
		}
		var total float64
		for _, tr := range Transitions(par, s) {
			total += tr.Rate
		}
		if math.Abs(total-1/par.R) > 1e-9 {
			t.Fatalf("state %+v: total outrate %v, want %v", s, total, 1/par.R)
		}
	}
}

func TestThroughputDecreasingInLoss(t *testing.T) {
	prev := math.Inf(1)
	for _, p := range []float64{0.004, 0.01, 0.02, 0.04, 0.08} {
		sigma, err := Throughput(Params{P: p, R: 0.2, TO: 4})
		if err != nil {
			t.Fatal(err)
		}
		if sigma >= prev {
			t.Fatalf("throughput not decreasing at p=%v: %v >= %v", p, sigma, prev)
		}
		prev = sigma
	}
}

func TestThroughputScalesInverseRTT(t *testing.T) {
	a, err := Throughput(Params{P: 0.02, R: 0.1, TO: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Throughput(Params{P: 0.02, R: 0.3, TO: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a/b-3) > 1e-6 {
		t.Fatalf("σ(R=0.1)/σ(R=0.3) = %v, want exactly 3", a/b)
	}
}

func TestThroughputAgreesWithPFTK(t *testing.T) {
	// The reconstructed chain should land in the same regime as the PFTK
	// full model across the paper's parameter ranges. The two models differ
	// structurally (our chain resolves recovery round-by-round), so accept a
	// factor-of-two band.
	for _, p := range []float64{0.004, 0.02, 0.04} {
		for _, to := range []float64{1, 2, 4} {
			r := 0.2
			got, err := Throughput(Params{P: p, R: r, TO: to})
			if err != nil {
				t.Fatal(err)
			}
			want := pftkThroughput(p, r, to*r, 2, 32)
			if got < want/2 || got > want*2 {
				t.Errorf("p=%v TO=%v: chain σ=%.2f, PFTK σ=%.2f (ratio %.2f)",
					p, to, got, want, got/want)
			}
		}
	}
}

func TestThroughputDecreasingInTimeoutRatio(t *testing.T) {
	s1, _ := Throughput(Params{P: 0.04, R: 0.2, TO: 1})
	s4, _ := Throughput(Params{P: 0.04, R: 0.2, TO: 4})
	if s4 >= s1 {
		t.Fatalf("σ(TO=4)=%v not below σ(TO=1)=%v", s4, s1)
	}
}

func TestLossForThroughputRoundTrip(t *testing.T) {
	r, to := 0.15, 4.0
	orig := Params{P: 0.02, R: r, TO: to}
	sigma, err := Throughput(orig)
	if err != nil {
		t.Fatal(err)
	}
	p, err := LossForThroughput(sigma, r, to, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.02)/0.02 > 0.02 {
		t.Fatalf("inverted p = %v, want 0.02", p)
	}
}

func TestLossForThroughputOutOfRange(t *testing.T) {
	if _, err := LossForThroughput(1e9, 0.1, 4, 0); err == nil {
		t.Fatal("absurd target accepted")
	}
}

func TestValidation(t *testing.T) {
	bad := []Params{
		{P: 0, R: 0.1, TO: 4},
		{P: 1.5, R: 0.1, TO: 4},
		{P: 0.01, R: 0, TO: 4},
		{P: 0.01, R: 0.1, TO: 0},
		{P: 0.01, R: 0.1, TO: 4, Wmax: 2},
		{P: math.NaN(), R: 0.1, TO: 4},
		{P: math.Inf(1), R: 0.1, TO: 4},
		{P: 0.01, R: -0.1, TO: 4},
		{P: 0.01, R: math.NaN(), TO: 4},
		{P: 0.01, R: math.Inf(1), TO: 4},
		{P: 0.01, R: math.Inf(-1), TO: 4},
		{P: 0.01, R: 0.1, TO: math.NaN()},
		{P: 0.01, R: 0.1, TO: math.Inf(1)},
	}
	for _, par := range bad {
		// validate itself must refuse: a NaN that slips past it can still
		// fail later in the solve, for the wrong reason.
		if err := par.validate(); err == nil {
			t.Errorf("params %+v passed validate", par)
		}
		if _, err := Throughput(par); err == nil {
			t.Errorf("params %+v accepted", par)
		}
	}
}

func TestFastRetransmitNeedsWindowOfFour(t *testing.T) {
	// From a window of 3, any loss must go straight to timeout: the ACK
	// clock cannot produce three duplicate ACKs.
	par := Params{P: 0.02, R: 0.2, TO: 4}
	s := State{W: 3, C: 0, SS: 2}
	for _, tr := range Transitions(par, s) {
		if tr.Next.L > 0 {
			t.Fatalf("W=3 loss produced detection state %+v", tr.Next)
		}
	}
	// From a window of 8, every loss must enter detection (fast retransmit),
	// not timeout, and the detection round must resolve in one halving.
	s = State{W: 8, C: 0, SS: 4}
	for _, tr := range Transitions(par, s) {
		if tr.Next.E > 0 {
			t.Fatalf("W=8 loss went straight to timeout: %+v", tr.Next)
		}
	}
	det := State{W: 8, C: 0, L: 3, SS: 4}
	for _, tr := range Transitions(par, det) {
		if tr.Next.E == 0 { // successful recovery
			if tr.Next.W != 4 || tr.Next.L != 0 {
				t.Fatalf("TD recovery did not halve once and finish: %+v", tr.Next)
			}
			if tr.Tag != int32(8-3+1) {
				t.Fatalf("TD recovery credited %d deliveries, want W-L+1=6", tr.Tag)
			}
		}
	}
}

func TestTimeoutBackoffCaps(t *testing.T) {
	par := Params{P: 0.5, R: 0.1, TO: 2}
	s := State{W: 1, E: 12, Q: 1, SS: 2}
	trs := Transitions(par, s)
	var total float64
	for _, tr := range trs {
		total += tr.Rate
		if tr.Next.E > 0 && int(tr.Next.E)-1 > maxBackoffExp {
			t.Fatalf("backoff exponent escaped cap: %+v", tr.Next)
		}
	}
	wantRate := 1 / (par.TO * par.R * math.Pow(2, float64(maxBackoffExp)))
	if math.Abs(total-wantRate) > 1e-9 {
		t.Fatalf("capped timeout rate %v, want %v", total, wantRate)
	}
}

// Property: for random valid parameters the chain is ergodic and its
// throughput is positive and bounded by Wmax/R.
func TestPropertyThroughputBounds(t *testing.T) {
	f := func(pRaw, toRaw uint16) bool {
		p := 0.001 + float64(pRaw%400)/4000.0 // 0.001..0.1
		to := 1 + float64(toRaw%7)/2          // 1..4
		par := Params{P: p, R: 0.2, TO: to}
		sigma, err := Throughput(par)
		if err != nil {
			return false
		}
		return sigma > 0 && sigma <= float64(par.withDefaults().Wmax)/par.R+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkThroughputSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Throughput(Params{P: 0.02, R: 0.2, TO: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
