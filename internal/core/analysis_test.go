package core

import (
	"math"
	"testing"
	"time"
)

// mkTrace builds a trace with the given per-packet slacks (seconds); a NaN
// slack marks a packet that never arrived.
func mkTrace(mu float64, slacks []float64) *Trace {
	tr := &Trace{Mu: mu, Expected: int64(len(slacks))}
	period := int64(1e9 / mu)
	for i, s := range slacks {
		if math.IsNaN(s) {
			continue
		}
		gen := int64(i) * period
		tr.Arrivals = append(tr.Arrivals, Arrival{
			Pkt: uint32(i), Gen: gen, At: gen + int64(s*1e9), Path: int32(i % 2),
		})
	}
	return tr
}

func TestSlacks(t *testing.T) {
	tr := mkTrace(10, []float64{0.1, 0.5, math.NaN(), 0.2})
	slacks := tr.Slacks()
	if len(slacks) != 4 {
		t.Fatalf("%d slacks", len(slacks))
	}
	inf := 0
	for _, s := range slacks {
		if math.IsInf(s, 1) {
			inf++
		}
	}
	if inf != 1 {
		t.Fatalf("%d infinite slacks, want 1", inf)
	}
}

func TestRequiredDelayExact(t *testing.T) {
	// 10 packets with slacks 1..10 seconds.
	slacks := make([]float64, 10)
	for i := range slacks {
		slacks[i] = float64(i + 1)
	}
	tr := mkTrace(10, slacks)
	d, ok := tr.RequiredDelay(0) // all packets on time → max slack
	if !ok || d != 10*time.Second {
		t.Fatalf("RequiredDelay(0) = %v, %v", d, ok)
	}
	d, ok = tr.RequiredDelay(0.1) // one packet may be late
	if !ok || d != 9*time.Second {
		t.Fatalf("RequiredDelay(0.1) = %v, %v", d, ok)
	}
	d, ok = tr.RequiredDelay(0.95) // nearly everything may be late
	if !ok || d > time.Second {
		t.Fatalf("RequiredDelay(0.95) = %v, %v", d, ok)
	}
}

func TestRequiredDelayConsistentWithLateFraction(t *testing.T) {
	slacks := []float64{0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 0.25, 1.25, 2.25, 3.25}
	tr := mkTrace(10, slacks)
	for _, q := range []float64{0, 0.1, 0.2, 0.5} {
		d, ok := tr.RequiredDelay(q)
		if !ok {
			t.Fatalf("q=%v infeasible", q)
		}
		pb, _ := tr.LateFraction(d.Seconds() + 1e-9)
		if pb > q+1e-12 {
			t.Errorf("q=%v: delay %v still gives late fraction %v", q, d, pb)
		}
	}
}

func TestRequiredDelayMissingPackets(t *testing.T) {
	tr := mkTrace(10, []float64{0.1, math.NaN(), math.NaN(), 0.2})
	if _, ok := tr.RequiredDelay(0.1); ok {
		t.Fatal("50% missing but 10% budget reported feasible")
	}
	if d, ok := tr.RequiredDelay(0.6); !ok || d > time.Second {
		t.Fatalf("60%% budget should be feasible cheaply: %v %v", d, ok)
	}
}

func TestPathGoodput(t *testing.T) {
	// 100 packets alternating between 2 paths over ~10 seconds.
	slacks := make([]float64, 100)
	for i := range slacks {
		slacks[i] = 0.05
	}
	tr := mkTrace(10, slacks)
	gp := tr.PathGoodput(2)
	// Each path carries every other packet: 5 pkts/s.
	for i, g := range gp {
		if g < 4 || g > 6 {
			t.Errorf("path %d goodput %v, want ≈5", i, g)
		}
	}
}

func TestGoodputSeriesBuckets(t *testing.T) {
	slacks := make([]float64, 40)
	tr := mkTrace(10, slacks) // 4 seconds of stream
	series := tr.GoodputSeries(2, time.Second)
	if len(series) != 2 {
		t.Fatalf("%d paths", len(series))
	}
	if len(series[0]) < 4 {
		t.Fatalf("%d buckets for a 4s stream", len(series[0]))
	}
	var total float64
	for _, s := range series {
		for _, v := range s {
			total += v
		}
	}
	if math.Abs(total-40) > 1e-9 { // pkts/s × 1s buckets sums to packet count
		t.Fatalf("series total %v, want 40", total)
	}
}

func TestGoodputSeriesEmpty(t *testing.T) {
	tr := &Trace{Mu: 10}
	series := tr.GoodputSeries(2, time.Second)
	if len(series) != 2 || series[0] != nil && len(series[0]) != 0 {
		t.Fatalf("unexpected series for empty trace: %v", series)
	}
}
