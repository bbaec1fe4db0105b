package exps

import (
	"math"
	"testing"
)

// TestFig11ClaimHolds is Fig 11's claim as a test: on every one of the
// figure's 15 configurations, DMP-streaming reaches the quality threshold
// at a smaller startup delay than static allocation of the same packets
// over the same two paths. A static column computed with the DMP model
// reads the same delay as the DMP column and fails every row.
func TestFig11ClaimHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("several seconds of Monte-Carlo")
	}
	tables, err := runFig11(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 15 {
		t.Fatalf("fig11 has %d rows, want 15", len(tb.Rows))
	}
	tau := func(s string) float64 {
		if s == ">max" { // no delay on the search grid reaches the threshold
			return math.Inf(1)
		}
		return parseF(t, s)
	}
	for _, r := range tb.Rows {
		static, dmp := tau(r[3]), tau(r[4])
		if !(dmp < static) {
			t.Errorf("R %s ms, σa/µ %s, loss %s: τ DMP %s s is not below τ static %s s", r[0], r[1], r[2], r[4], r[3])
		}
	}
}
