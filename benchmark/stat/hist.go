// Package stat holds the benchmark's estimators: a fixed-size log-linear
// delay histogram with interpolated quantiles, exact quantiles over small
// samples, and process CPU time and peak memory from getrusage.
package stat

import (
	"math"
	"math/bits"
	"sort"
)

const (
	// minExp is the power of two (in nanoseconds) below which every value
	// lands in bucket 0: 2^10 ns ≈ 1 µs, well under any delay the
	// benchmark resolves.
	minExp = 10
	// maxExp caps the range at 2^34 ns ≈ 17 s; longer delays saturate the
	// last bucket.
	maxExp = 34
	// subBits gives 32 linear sub-buckets per power of two: ~3 % bucket
	// width, and Quantile interpolates inside the bucket, so estimates move
	// continuously instead of in 3 % steps.
	subBits = 5
	sub     = 1 << subBits

	// Buckets is the histogram size.
	Buckets = (maxExp-minExp)*sub + 1
)

// Hist is a histogram of durations in nanoseconds. The zero value is
// ready to use. It is not safe for concurrent use; owners guard it.
type Hist struct {
	n [Buckets]uint32
}

// bucket maps a duration to its bucket index.
func bucket(ns int64) int {
	if ns < 1<<minExp {
		return 0
	}
	exp := bits.Len64(uint64(ns)) - 1
	if exp >= maxExp {
		return Buckets - 1
	}
	s := int(uint64(ns)>>(uint(exp)-subBits)) & (sub - 1)
	return (exp-minExp)*sub + s + 1
}

// bounds returns the half-open nanosecond range [lo, hi) bucket b covers.
func bounds(b int) (lo, hi float64) {
	if b == 0 {
		return 0, 1 << minExp
	}
	b--
	exp := uint(b/sub + minExp)
	s := uint64(b % sub)
	base := uint64(1) << exp
	step := base >> subBits
	return float64(base + s*step), float64(base + (s+1)*step)
}

// Record adds one observation.
func (h *Hist) Record(ns int64) { h.n[bucket(ns)]++ }

// Add folds o into h.
func (h *Hist) Add(o *Hist) {
	for i, c := range &o.n {
		h.n[i] += c
	}
}

// Sub removes o from h; o must be an earlier snapshot of the same
// cumulative histogram.
func (h *Hist) Sub(o *Hist) {
	for i, c := range &o.n {
		h.n[i] -= c
	}
}

// Count returns the number of observations.
func (h *Hist) Count() int64 {
	var n int64
	for _, c := range &h.n {
		n += int64(c)
	}
	return n
}

// Quantile returns the q-quantile (0..1) in nanoseconds, interpolating
// linearly inside the bucket that holds it. An empty histogram gives 0.
func (h *Hist) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range &h.n {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := bounds(i)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	_, hi := bounds(Buckets - 1)
	return hi
}

// Quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }
