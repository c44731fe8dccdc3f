//go:build !invariants

package lockcheck

import "sync"

// Enabled reports whether runtime lock-order checking is compiled in.
const Enabled = false

// Mutex is sync.Mutex when the invariants tag is absent. Lock, TryLock, and
// Unlock are promoted from the embedded primitive, so there is no wrapper
// overhead at all.
type Mutex struct {
	sync.Mutex
}

// Init names the lock and assigns its hierarchy rank. No-op in this build.
func (m *Mutex) Init(name string, rank Rank) {}

// AssertHeld states that the caller holds m. No-op in this build; under the
// invariants tag it panics when the calling goroutine does not hold m.
func (m *Mutex) AssertHeld() {}

// RWMutex is sync.RWMutex when the invariants tag is absent.
type RWMutex struct {
	sync.RWMutex
}

// Init names the lock and assigns its hierarchy rank. No-op in this build.
func (m *RWMutex) Init(name string, rank Rank) {}
