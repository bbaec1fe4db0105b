package dmpmodel

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dmpstream/internal/tcpmodel"
)

// TestChainStepInvariants walks the composed chain's jump on a small
// two-path model, live and stored, with consumption switched off now and
// then as a floor or the startup delay does. After every draw each flow's
// kept rate must be its row's total, rate must be the sum of the enabled
// events' rates, N must stay at or below the live cap, and the draw must
// have carried out at most one event: the one apply reports.
func TestChainStepInvariants(t *testing.T) {
	m := Model{Paths: []tcpmodel.Params{smallPath(), {P: 0.05, R: 0.1, TO: 3, Wmax: 5}}, Mu: 30}
	for _, stored := range []bool{false, true} {
		nmax := int64(6)
		if stored {
			nmax = math.MaxInt64
		}
		c := newChain(&m, nmax)
		c.reset(0)
		rng := rand.New(rand.NewSource(7))
		seen := map[int]int{}
		atCap, low := 0, int64(0)
		for step := 0; step < 50_000; step++ {
			consume := step%4 != 0 || c.n >= c.nmax
			total := c.rate(consume)
			want := 0.0
			if consume {
				want = c.mu
			}
			if c.n < c.nmax {
				for i, ft := range c.tables {
					want += ft.row(c.cur[i]).total
				}
			}
			if total != want {
				t.Fatalf("stored=%v step %d: rate %v, enabled events sum to %v", stored, step, total, want)
			}
			n0, cur0, got0 := c.n, slices.Clone(c.cur), slices.Clone(c.delivered)
			ev := c.apply(rng.Float64() * total)
			seen[ev]++
			for i, ft := range c.tables {
				if c.rates[i] != ft.row(c.cur[i]).total {
					t.Fatalf("stored=%v step %d: flow %d keeps rate %v, its row's total is %v",
						stored, step, i, c.rates[i], ft.row(c.cur[i]).total)
				}
			}
			if !stored && c.n > nmax {
				t.Fatalf("step %d: N = %d past the cap %d", step, c.n, nmax)
			}
			if c.n == nmax {
				atCap++
			}
			low = min(low, c.n)
			for i := range c.cur {
				if i != ev && (c.cur[i] != cur0[i] || c.delivered[i] != got0[i]) {
					t.Fatalf("stored=%v step %d: event %d also moved flow %d", stored, step, ev, i)
				}
			}
			switch {
			case ev == evConsume:
				if !consume || c.n != n0-1 {
					t.Fatalf("stored=%v step %d: consumption (enabled %v) took N %d → %d", stored, step, consume, n0, c.n)
				}
			case ev >= 0:
				// The packets a flow adds lie between 0 and the most its
				// row's transitions deliver.
				most := slices.Max(c.tables[ev].row(cur0[ev]).s)
				if got := c.n - n0; n0 >= nmax || got != c.delivered[ev]-got0[ev] || got < 0 || got > int64(most) {
					t.Fatalf("stored=%v step %d: flow %d took N %d → %d and delivered %d", stored, step, ev, n0, c.n, c.delivered[ev]-got0[ev])
				}
			case c.n != n0:
				t.Fatalf("stored=%v step %d: no event, yet N %d → %d", stored, step, n0, c.n)
			}
			// A draw past the last rate, where float rounding can carry a
			// uniform, does nothing.
			n1, cur1 := c.n, slices.Clone(c.cur)
			if ev := c.apply(2 * c.rate(consume)); ev != evNone || c.n != n1 || !slices.Equal(c.cur, cur1) {
				t.Fatalf("stored=%v step %d: a draw past the last rate gave event %d", stored, step, ev)
			}
		}
		if seen[evConsume] == 0 || seen[0] == 0 || seen[1] == 0 {
			t.Fatalf("stored=%v: the walk missed an event: %v", stored, seen)
		}
		if !stored && atCap == 0 {
			t.Fatal("the live walk never reached the cap")
		}
		if stored && low >= 0 {
			t.Fatal("the stored walk never took N below 0, where the unbounded cap's clip could overflow")
		}
		t.Logf("stored=%v: events %v, %d draws left N at the live cap, lowest N %d", stored, seen, atCap, low)
	}
}
