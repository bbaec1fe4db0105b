package stat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestBucketsCoverAndOrder(t *testing.T) {
	prev := -1
	for _, ns := range []int64{0, 1, 1023, 1024, 1025, 4096, 1e6, 1e6 + 1, 1e9, 16e9, 1 << 34, 1 << 40} {
		b := bucket(ns)
		if b < prev || b < 0 || b >= Buckets {
			t.Fatalf("bucket(%d) = %d after %d", ns, b, prev)
		}
		prev = b
		if lo, hi := bounds(b); b < Buckets-1 && (float64(ns) < lo || float64(ns) >= hi) {
			t.Fatalf("%d ns not in bucket %d = [%v,%v)", ns, b, lo, hi)
		}
	}
}

// An interpolated histogram quantile must land within a bucket width (3 %)
// of the exact sample quantile, at the tail as well as the middle.
func TestHistQuantileTracksExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Hist
	xs := make([]float64, 200000)
	for i := range xs {
		ns := int64(math.Exp(rng.NormFloat64()*1.2) * 3e5) // log-normal around 0.3 ms
		xs[i] = float64(ns)
		h.Record(ns)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want := xs[int(q*float64(len(xs)))]
		if got := h.Quantile(q); math.Abs(got-want)/want > 0.035 {
			t.Errorf("q%.3f: histogram %v, exact %v", q, got, want)
		}
	}
	if h.Count() != int64(len(xs)) {
		t.Fatalf("count %d", h.Count())
	}
}

func TestHistAddSub(t *testing.T) {
	var a, b Hist
	for i := int64(0); i < 1000; i++ {
		a.Record(i * 1000)
	}
	b.Add(&a)
	for i := int64(0); i < 500; i++ {
		b.Record(5e6)
	}
	b.Sub(&a)
	if b.Count() != 500 {
		t.Fatalf("count after Sub = %d", b.Count())
	}
	if q := b.Quantile(0.5); q < 4.8e6 || q > 5.2e6 {
		t.Fatalf("median after Sub = %v", q)
	}
	var empty Hist
	if empty.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Median(xs); got != 2.5 {
		t.Fatalf("median %v", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Fatalf("max %v", got)
	}
	if Quantile(nil, 0.5) != 0 || xs[0] != 4 {
		t.Fatal("empty input or input reordered")
	}
}

func TestGenProbe(t *testing.T) {
	p := NewGenProbe(1000) // one packet per millisecond
	const base = int64(5e9)
	late := []int64{0, 200e3, 0, 1500e3, 0}
	for n, l := range late {
		p.Observe(int64(n), base+int64(n)*1e6+l)
	}
	got := p.Lateness(0, math.MaxInt64)
	for n, l := range late {
		if math.Abs(got[n]-float64(l)) > 1 {
			t.Fatalf("packet %d lateness %v, want %d", n, got[n], l)
		}
	}
	if n := len(p.Lateness(base+1e6, base+3e6)); n != 2 {
		t.Fatalf("windowed lateness kept %d packets", n)
	}
}
