//go:build !lockrank

package lockrank

import "sync"

// Mutex is a sync.Mutex with a rank.
type Mutex struct{ sync.Mutex }

// Init sets the lock's rank. Empty unless built with -tags lockrank.
func (m *Mutex) Init(Rank) {}

// RWMutex is a sync.RWMutex with a rank.
type RWMutex struct{ sync.RWMutex }

// Init sets the lock's rank. Empty unless built with -tags lockrank.
func (m *RWMutex) Init(Rank) {}
