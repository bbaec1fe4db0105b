//go:build lockrank

package lockrank

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// Mutex is a sync.Mutex with a rank, checked on every Lock.
type Mutex struct {
	sync.Mutex
	rank Rank
}

// Init sets the lock's rank.
func (m *Mutex) Init(r Rank) { m.rank = r }

func (m *Mutex) Lock()   { acquire(m, m.rank); m.Mutex.Lock() }
func (m *Mutex) Unlock() { release(m); m.Mutex.Unlock() }

// RWMutex is a sync.RWMutex with a rank, checked on every Lock and RLock.
type RWMutex struct {
	sync.RWMutex
	rank Rank
}

// Init sets the lock's rank.
func (m *RWMutex) Init(r Rank) { m.rank = r }

func (m *RWMutex) Lock()    { acquire(m, m.rank); m.RWMutex.Lock() }
func (m *RWMutex) Unlock()  { release(m); m.RWMutex.Unlock() }
func (m *RWMutex) RLock()   { acquire(m, m.rank); m.RWMutex.RLock() }
func (m *RWMutex) RUnlock() { release(m); m.RWMutex.RUnlock() }

// hold is one lock a goroutine holds and where it took it.
type hold struct {
	lock any // *Mutex or *RWMutex
	rank Rank
	pcs  []uintptr
}

var (
	heldMu sync.Mutex
	held   = map[uint64][]hold{} // guarded by heldMu; goroutine id → locks held, oldest first
)

// acquire checks that the calling goroutine may take lock, of rank r, on
// top of what it holds, and records it as held. It panics before the
// lock is taken, so an inversion is reported instead of deadlocking.
func acquire(lock any, r Rank) {
	pcs := callers()
	if r == unranked {
		panic("lockrank: Lock of a mutex that was never Init'ed\n-- acquiring at:\n" + frames(pcs))
	}
	g := goid()
	heldMu.Lock()
	for _, h := range held[g] {
		if h.rank < r {
			continue
		}
		heldMu.Unlock()
		what := "lock order inversion"
		if h.rank == r {
			what = "same-rank nesting"
		}
		panic(fmt.Sprintf("lockrank: %s: acquiring %v (rank %d) while holding %v (rank %d)\n-- %v acquired at:\n%s-- %v acquiring at:\n%s",
			what, r, r, h.rank, h.rank, h.rank, frames(h.pcs), r, frames(pcs)))
	}
	held[g] = append(held[g], hold{lock: lock, rank: r, pcs: pcs})
	heldMu.Unlock()
}

// release forgets lock: from the calling goroutine's held set, or, for a
// lock handed off and unlocked by another goroutine, from its locker's.
func release(lock any) {
	g := goid()
	heldMu.Lock()
	defer heldMu.Unlock()
	if drop(g, lock) {
		return
	}
	for id := range held {
		if drop(id, lock) {
			return
		}
	}
}

// drop removes goroutine g's newest hold of lock. Caller holds heldMu.
func drop(g uint64, lock any) bool {
	hs := held[g]
	for i := len(hs) - 1; i >= 0; i-- {
		if hs[i].lock != lock {
			continue
		}
		if hs = append(hs[:i], hs[i+1:]...); len(hs) == 0 {
			delete(held, g)
		} else {
			held[g] = hs
		}
		return true
	}
	return false
}

// goid parses the calling goroutine's id from its stack header,
// "goroutine 18 [running]:".
func goid() uint64 {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	if len(f) < 2 {
		panic("lockrank: no goroutine header in runtime.Stack")
	}
	id, err := strconv.ParseUint(string(f[1]), 10, 64)
	if err != nil {
		panic("lockrank: goroutine header: " + err.Error())
	}
	return id
}

// callers records the stack above Lock/RLock.
func callers() []uintptr {
	pcs := make([]uintptr, 32)
	return pcs[:runtime.Callers(4, pcs)]
}

func frames(pcs []uintptr) string {
	var b strings.Builder
	fs := runtime.CallersFrames(pcs)
	for {
		f, more := fs.Next()
		fmt.Fprintf(&b, "\t%s\n\t\t%s:%d\n", f.Function, f.File, f.Line)
		if !more {
			return b.String()
		}
	}
}
