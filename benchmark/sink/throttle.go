package sink

import (
	"sync"
	"time"
)

// Throttle paces a slow consumer: it accepts frames at a fixed rate and
// tells a write how long to block first. An idle throttle lets the next
// write through at once and charges its frames afterwards, so a saturated
// sink takes exactly the configured rate and an idle one banks no burst.
type Throttle struct {
	period time.Duration // time one frame occupies

	mu   sync.Mutex
	next time.Time // when the bucket has room again
	off  bool
}

// NewThrottle returns a throttle accepting framesPerSec frames a second.
func NewThrottle(framesPerSec float64) *Throttle {
	return &Throttle{period: time.Duration(float64(time.Second) / framesPerSec)}
}

// Delay charges a write of the given number of frames arriving at now and
// returns how long it must block before it is accepted.
func (t *Throttle) Delay(now time.Time, frames int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.off {
		return 0
	}
	if t.next.Before(now) {
		t.next = now
	}
	d := t.next.Sub(now)
	t.next = t.next.Add(time.Duration(frames) * t.period)
	return d
}

// Release switches the throttle off for good.
func (t *Throttle) Release() {
	t.mu.Lock()
	t.off = true
	t.mu.Unlock()
}
