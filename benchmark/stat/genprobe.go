package stat

import (
	"sync"
	"time"
)

// GenProbe measures, from the receiving side, how late a CBR generator
// ran. Packet n of a drift-free source is due at base + n·period, so
// stamp − n·period is the unknown base plus that packet's lateness; the
// smallest such value seen is the best estimate of the base, and every
// packet's excess over it is how late the generator produced it.
type GenProbe struct {
	period float64 // nanoseconds between packets

	mu    sync.Mutex
	base  float64
	stamp []int64
	off   []float64
}

// NewGenProbe returns a probe for a source generating mu packets a second.
func NewGenProbe(mu float64) *GenProbe {
	return &GenProbe{period: float64(time.Second) / mu}
}

// Observe records packet n (its absolute number) and its generation stamp.
func (p *GenProbe) Observe(n, stamp int64) {
	off := float64(stamp) - float64(n)*p.period
	p.mu.Lock()
	if len(p.off) == 0 || off < p.base {
		p.base = off
	}
	p.stamp = append(p.stamp, stamp)
	p.off = append(p.off, off)
	p.mu.Unlock()
}

// Lateness returns, in nanoseconds, how late each packet stamped in
// [from, to) was generated.
func (p *GenProbe) Lateness(from, to int64) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []float64
	for i, s := range p.stamp {
		if s >= from && s < to {
			out = append(out, p.off[i]-p.base)
		}
	}
	return out
}
