// Package lockcheck is a fixture stand-in for bess/internal/lockcheck: the
// analyzers recognize Mutex by name and package-path suffix, and read a
// mu.AssertHeld() call as the function's "caller holds mu" contract.
package lockcheck

import "sync"

// Rank is a lock's position in the hierarchy; 0 is unranked.
type Rank int

// Mutex is a sync.Mutex with a class name and a rank.
type Mutex struct{ sync.Mutex }

// Init names the lock and assigns its rank.
func (m *Mutex) Init(name string, rank Rank) {}

// AssertHeld states that the caller holds m.
func (m *Mutex) AssertHeld() {}
