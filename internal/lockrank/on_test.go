//go:build lockrank

package lockrank

import (
	"strings"
	"testing"
)

// mustPanic runs f and returns its panic message, failing the test if f
// returns normally.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg, _ = r.(string)
	}()
	f()
	return ""
}

// heldBy reports how many locks the calling goroutine holds.
func heldBy() int {
	g := goid()
	heldMu.Lock()
	defer heldMu.Unlock()
	return len(held[g])
}

func TestInOrderNestingPasses(t *testing.T) {
	var gov, shard Mutex
	var ring RWMutex
	var pool Mutex
	gov.Init(Governor)
	shard.Init(Shard)
	ring.Init(Ring)
	pool.Init(Pool)

	gov.Lock()
	shard.Lock()
	ring.RLock()
	pool.Lock()
	if n := heldBy(); n != 4 {
		t.Fatalf("holding %d locks, want 4", n)
	}
	pool.Unlock()
	shard.Unlock() // released out of order: the rest stay held
	ring.RUnlock()
	gov.Unlock()
	if n := heldBy(); n != 0 {
		t.Fatalf("holding %d locks after releasing all, want 0", n)
	}

	// A lock unlocked by another goroutine than its locker leaves neither
	// goroutine's held set with it.
	shard.Lock()
	done := make(chan struct{})
	go func() { shard.Unlock(); close(done) }()
	<-done
	if n := heldBy(); n != 0 {
		t.Fatalf("holding %d locks after a handed-off unlock, want 0", n)
	}
	ring.Lock() // and the same lock again in order, nothing else held
	ring.Unlock()
}

func TestInversionPanics(t *testing.T) {
	var shard, ring Mutex
	shard.Init(Shard)
	ring.Init(Ring)
	ring.Lock()
	defer ring.Unlock()
	msg := mustPanic(t, shard.Lock)
	for _, want := range []string{
		"lock order inversion: acquiring hub.shard.mu (rank 6) while holding hub.ring.mu (rank 7)",
		"-- hub.ring.mu acquired at:", "-- hub.shard.mu acquiring at:",
		"TestInversionPanics",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic message lacks %q:\n%s", want, msg)
		}
	}
	if strings.Count(msg, "TestInversionPanics") < 2 {
		t.Errorf("panic message does not carry both acquisition stacks:\n%s", msg)
	}
	if n := heldBy(); n != 1 {
		t.Errorf("holding %d locks after the refused acquisition, want 1", n)
	}
}

func TestSameRankNestingPanics(t *testing.T) {
	var a, b RWMutex
	a.Init(Shard)
	b.Init(Shard)
	a.RLock()
	defer a.RUnlock()
	msg := mustPanic(t, b.RLock)
	if !strings.Contains(msg, "same-rank nesting: acquiring hub.shard.mu (rank 6) while holding hub.shard.mu (rank 6)") {
		t.Errorf("panic message:\n%s", msg)
	}
	// Relocking a held lock is the same-rank case, and a self-deadlock.
	if msg := mustPanic(t, a.Lock); !strings.Contains(msg, "same-rank nesting") {
		t.Errorf("relock panic message:\n%s", msg)
	}
}

func TestMissingInitPanics(t *testing.T) {
	var m Mutex
	msg := mustPanic(t, m.Lock)
	if !strings.Contains(msg, "never Init'ed") || !strings.Contains(msg, "TestMissingInitPanics") {
		t.Errorf("panic message:\n%s", msg)
	}
	var rw RWMutex
	if msg := mustPanic(t, rw.RLock); !strings.Contains(msg, "never Init'ed") {
		t.Errorf("RLock panic message:\n%s", msg)
	}
}
