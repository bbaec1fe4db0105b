// Fixture for the lockguard analyzer.
package fixture

import (
	"sync"

	"dmpstream/internal/lockrank"
)

type Box struct {
	mu sync.Mutex
	n  int // guarded by mu
	m  int // unguarded: no annotation
}

func (b *Box) Good() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

func (b *Box) Bad() int {
	return b.n // want "guarded by mu"
}

func (b *Box) BadWrite(d int) {
	b.n += d // want "guarded by mu"
	b.mu.Lock()
	b.mu.Unlock()
}

func (b *Box) UnguardedOK() int {
	return b.m // ok: field not annotated
}

func (b *Box) addLocked(d int) {
	b.n += d // ok: *Locked naming convention means caller has the mutex
}

// bump assumes the caller holds b.mu.
func (b *Box) bump() {
	b.n++ // ok: doc comment declares the lock is held
}

func (b *Box) Suppressed() int {
	return b.n // nolint:lockguard fixture: single-threaded caller
}

// sumBoxes touches guarded state of a parameter, not a receiver.
func sumBoxes(a, b *Box) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n + b.n
}

// UseAfterUnlock is the false negative the interval model fixes: the
// hold ends at the mainline unlock, so the later access is unguarded.
func (b *Box) UseAfterUnlock() int {
	b.mu.Lock()
	n := b.n // ok: inside the held interval
	b.mu.Unlock()
	return n + b.n // want "guarded by mu"
}

// EarlyExitUnlock is the idiom that must stay quiet: the unlock on the
// early-return path does not end the mainline hold.
func (b *Box) EarlyExitUnlock(stop bool) int {
	b.mu.Lock()
	if stop {
		b.mu.Unlock()
		return 0
	}
	n := b.n // ok: mainline still holds the lock
	b.mu.Unlock()
	return n
}

// LitMustLock: a function literal is its own scope — a goroutine does
// not inherit the enclosing function's hold.
func (b *Box) LitMustLock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	go func() {
		b.n++ // want "guarded by mu"
	}()
}

// LitLocksItself: a literal taking the lock for itself is fine.
func (b *Box) LitLocksItself() func() {
	return func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.n++
	}
}

// global is package-level: reading its guarded field needs the lock too.
var global Box

func readGlobal() int {
	return global.n // want "guarded by mu"
}

func readGlobalLocked() int {
	global.mu.Lock()
	defer global.mu.Unlock()
	return global.n // ok: held
}

type RBox struct {
	mu sync.RWMutex
	v  int // guarded by mu
}

// ReadOK holds the read side for the whole scope.
func (r *RBox) ReadOK() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.v
}

// ReadPath: RLock/RUnlock pair independently of Lock/Unlock, and the
// read hold ends at the RUnlock.
func (r *RBox) ReadPath() int {
	r.mu.RLock()
	v := r.v // ok: read-held
	r.mu.RUnlock()
	return v + r.v // want "guarded by mu"
}

// Ranked is a lockrank-style mutex: lockguard tells mutexes apart by
// field name, not type, so a ranked lock guards its fields the same way.
type Ranked struct {
	mu lockrank.Mutex
	n  int // guarded by mu
}

func (r *Ranked) Good() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

func (r *Ranked) Bad() int {
	return r.n // want "guarded by mu"
}
