package core

import (
	"math"
	"sort"
	"time"

	"dmpstream/internal/stats"
)

// Slacks returns each distinct packet's delivery slack — arrival time minus
// generation time — in seconds, one entry per packet the server generated.
// Packets that never arrived get +Inf. The slack of packet i is exactly the
// startup delay that would make it arrive on time.
func (t *Trace) Slacks() []float64 {
	var seen PacketSet
	out := make([]float64, 0, t.Expected)
	for _, a := range t.Arrivals {
		if !seen.Add(a.Pkt) {
			continue
		}
		out = append(out, float64(a.At-a.Gen)/1e9)
	}
	for int64(len(out)) < t.Expected {
		out = append(out, math.Inf(1))
	}
	return out
}

// Missing returns the packet numbers the server generated but the trace
// never received, in ascending order — the packets a path failure actually
// lost. Empty means the stream was conserved end to end.
func (t *Trace) Missing() []uint32 {
	var seen PacketSet
	for _, a := range t.Arrivals {
		seen.Add(a.Pkt)
	}
	var out []uint32
	for pkt := int64(0); pkt < t.Expected; pkt++ { // Expected may be 1<<32: count in int64
		if !seen.Has(uint32(pkt)) {
			out = append(out, uint32(pkt))
		}
	}
	return out
}

// RequiredDelay returns the smallest startup delay that would have kept the
// fraction of late packets at or below quality, computed exactly from the
// recorded trace (it is the (1-quality) slack quantile). A negative or NaN
// quality allows no late packet, as 0 does. ok is false when missing
// packets alone exceed the quality budget.
func (t *Trace) RequiredDelay(quality float64) (delay time.Duration, ok bool) {
	slacks := t.Slacks()
	if len(slacks) == 0 {
		return 0, true
	}
	sort.Float64s(slacks)
	if !(quality > 0) {
		quality = 0
	}
	// Allow floor(quality * n) late packets: the answer is the slack of the
	// last packet that must be on time.
	budget := int(min(quality, 1) * float64(len(slacks)))
	idx := len(slacks) - 1 - budget
	if idx < 0 {
		return 0, true
	}
	s := slacks[idx]
	if math.IsInf(s, 1) {
		return 0, false
	}
	if s < 0 {
		s = 0
	}
	return time.Duration(s * float64(time.Second)), true
}

// SlackQuantile returns the q-th quantile of delivery slack in seconds
// (missing packets count as +Inf).
func (t *Trace) SlackQuantile(q float64) float64 {
	return stats.Quantile(t.Slacks(), q)
}

// PathGoodput returns each path's goodput in packets per second over the
// trace, measured from first to last arrival on that path.
func (t *Trace) PathGoodput(numPaths int) []float64 {
	first := make([]int64, numPaths)
	last := make([]int64, numPaths)
	count := make([]int64, numPaths)
	for i := range first {
		first[i] = math.MaxInt64
	}
	for _, a := range t.Arrivals {
		if a.Path < 0 || int(a.Path) >= numPaths {
			continue
		}
		if a.At < first[a.Path] {
			first[a.Path] = a.At
		}
		if a.At > last[a.Path] {
			last[a.Path] = a.At
		}
		count[a.Path]++
	}
	out := make([]float64, numPaths)
	for i := range out {
		if count[i] >= 2 && last[i] > first[i] {
			out[i] = float64(count[i]-1) / (float64(last[i]-first[i]) / 1e9)
		}
	}
	return out
}

// GoodputSeries buckets arrivals into fixed windows and returns, per path,
// the packets-per-second series — the view dmpplay prints so a user can see
// load shifting between paths over time.
func (t *Trace) GoodputSeries(numPaths int, bucket time.Duration) [][]float64 {
	if len(t.Arrivals) == 0 || bucket <= 0 {
		return make([][]float64, numPaths)
	}
	start := t.Arrivals[0].At
	end := t.Arrivals[0].At
	for _, a := range t.Arrivals {
		if a.At < start {
			start = a.At
		}
		if a.At > end {
			end = a.At
		}
	}
	nb := int((end-start)/int64(bucket)) + 1
	out := make([][]float64, numPaths)
	for i := range out {
		out[i] = make([]float64, nb)
	}
	for _, a := range t.Arrivals {
		if a.Path < 0 || int(a.Path) >= numPaths {
			continue
		}
		b := int((a.At - start) / int64(bucket))
		out[a.Path][b]++
	}
	perSec := bucket.Seconds()
	for i := range out {
		for j := range out[i] {
			out[i][j] /= perSec
		}
	}
	return out
}
