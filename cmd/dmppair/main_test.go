package main

import (
	"math"
	"strings"
	"testing"
)

func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		lower, higher int
		p             float64
		verdict       string
	}{
		{0, 0, 1, "no difference"},
		{5, 5, 1, "no difference"},
		{3, 0, 0.25, "no difference"},
		{8, 2, 0.109375, "no difference"},
		{9, 1, 0.021484375, "change lower"},
		{0, 10, 0.001953125, "change higher"},
	} {
		p := signTest(c.lower, c.higher)
		if math.Abs(p-c.p) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %v, want %v", c.lower, c.higher, p, c.p)
		}
		if v := verdict(c.lower, c.higher, p); v != c.verdict {
			t.Errorf("verdict(%d, %d) = %q, want %q", c.lower, c.higher, v, c.verdict)
		}
	}
}

// TestSignedRank checks the signed-rank p against counts made by hand.
// Ratios 2, 4, 1/2, 8, 16: |log| ranks 1.5, 1.5, 3, 4, 5, the negative one
// 1.5, so 3 of the 32 sign assignments put at most 1.5 on the negative
// side: p = 2·3/32. Six pairs all higher: 1 of 64 on each side, p = 2/64.
// Equal pairs drop out, and a move off 0 ranks above any ratio.
func TestSignedRank(t *testing.T) {
	ones := []float64{1, 1, 1, 1, 1, 1}
	for _, c := range []struct {
		par, chg []float64
		p        float64
	}{
		{ones[:5], []float64{2, 4, 0.5, 8, 16}, 6.0 / 32},
		{ones, []float64{1.1, 1.2, 1.3, 1.4, 1.5, 1.6}, 2.0 / 64},
		{[]float64{1, 1, 1, 2, 1, 1, 1}, []float64{1.1, 1.2, 1.3, 2, 1.4, 1.5, 1.6}, 2.0 / 64},
		{ones[:3], []float64{0.5, 2, 0.5}, 1},
		{[]float64{0, 1, 1}, []float64{1, 0.5, 1.5}, 6.0 / 8},
		{ones[:3], ones[:3], 1},
	} {
		if p := signedRank(c.par, c.chg); math.Abs(p-c.p) > 1e-12 {
			t.Errorf("signedRank(%v, %v) = %v, want %v", c.par, c.chg, p, c.p)
		}
	}
}

func TestQuartiles(t *testing.T) {
	if q := quartiles([]float64{4, 1, 3, 2, 5}); q != [3]float64{2, 3, 4} {
		t.Errorf("quartiles of 1..5 = %v", q)
	}
	if q := quartiles([]float64{7}); q != [3]float64{7, 7, 7} {
		t.Errorf("quartiles of one value = %v", q)
	}
}

func TestParseBench(t *testing.T) {
	out := `goos: linux
BenchmarkTickFanout/paths=64-2   	    2000	     61234 ns/op	     13.50 tick-ns/op	       0 B/op	       0 allocs/op
BenchmarkGeneratorTick-2         	     300	      1234 ns/op
PASS`
	runs := map[metric][]float64{}
	parseBench(out, runs)
	parseBench(out, runs)
	if got := runs[metric{"BenchmarkTickFanout/paths=64-2", "tick-ns/op"}]; len(got) != 2 || got[0] != 13.5 {
		t.Errorf("tick-ns/op = %v", got)
	}
	if len(runs) != 5 {
		t.Errorf("%d metrics read, want 5", len(runs))
	}
	var b strings.Builder
	if err := report(&b, runs, runs, 2); err != nil {
		t.Fatal(err)
	}
	if strings.Count(b.String(), "no difference") != 5 {
		t.Errorf("a side against itself:\n%s", b.String())
	}
}
