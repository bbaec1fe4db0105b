// Package clock is the hub's and relay's time seam: a Clock, the wall
// clock unless a test sets its own, and Countdown, their timers' one rule.
package clock

import "time"

// Clock tells the time and runs f once d has passed.
type Clock interface {
	Now() time.Time
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is the handle AfterFunc returns; *time.Timer is one.
type Timer interface {
	Reset(d time.Duration) bool
	Stop() bool
}

// Wall is the wall clock: time.Now and time.AfterFunc.
type Wall struct{}

func (Wall) Now() time.Time                            { return time.Now() }
func (Wall) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Countdown is a timer of an owner T, guarded by the owner's lock, kept by
// one rule: Arm starts it only while it is disarmed, Stop disarms it, and
// a firing is acted on only while it is Due — armed, and its time reached.
// So a firing that a Stop, or a Stop and a later Arm, came too late to
// cancel is dropped. Arm and Due take the owner's one clock, set before
// its first Arm, whose timer the first Arm makes. The zero value is
// disarmed.
type Countdown[T any] struct {
	t  Timer     // made by the first Arm
	at time.Time // when the armed countdown is due; zero while disarmed
}

// Arm starts the countdown d from now on c, unless it is armed already,
// and reports whether it did. At its end fire(owner) runs on a goroutine
// of c's; it must take the owner's lock and check Due.
func (cd *Countdown[T]) Arm(c Clock, d time.Duration, fire func(T), owner T) bool {
	if cd.Armed() {
		return false
	}
	if cd.at = c.Now().Add(d); cd.t == nil {
		cd.t = c.AfterFunc(d, func() { fire(owner) })
	} else {
		cd.t.Reset(d)
	}
	return true
}

// Stop disarms the countdown.
func (cd *Countdown[T]) Stop() {
	if cd.Armed() {
		cd.at = time.Time{}
		cd.t.Stop()
	}
}

// Armed reports whether the countdown is running.
func (cd *Countdown[T]) Armed() bool { return !cd.at.IsZero() }

// Due reports whether a firing now on c is to be acted on.
func (cd *Countdown[T]) Due(c Clock) bool { return cd.Armed() && !c.Now().Before(cd.at) }
