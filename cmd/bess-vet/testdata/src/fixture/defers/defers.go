// Package defers reproduces unlock-pairing bugs: locks that escape the
// function on some exit path.
package defers

import (
	"errors"
	"sync"

	"fixture/internal/lockcheck"
)

// T carries one plain and one reader/writer lock.
type T struct {
	mu sync.Mutex
	rw sync.RWMutex
	v  int
}

// OK releases via defer on every path.
func (t *T) OK() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.v
}

// BranchOK releases explicitly on both paths.
func (t *T) BranchOK(c bool) int {
	t.mu.Lock()
	if c {
		t.mu.Unlock()
		return 0
	}
	t.mu.Unlock()
	return t.v
}

// LeakOnError returns with the lock still held on the failure path.
func (t *T) LeakOnError(fail bool) error {
	t.mu.Lock()
	if fail {
		return errors.New("boom") // want defers
	}
	t.mu.Unlock()
	return nil
}

// RLeak holds the read lock past one return.
func (t *T) RLeak(c bool) int {
	t.rw.RLock()
	if c {
		return t.v // want defers
	}
	t.rw.RUnlock()
	return 0
}

// TryLeak never releases the TryLock success arm.
func (t *T) TryLeak() {
	if t.mu.TryLock() {
		t.v++
	} // want defers
}

// TryOK is the idiomatic guarded-skip shape.
func (t *T) TryOK() bool {
	if !t.mu.TryLock() {
		return false
	}
	defer t.mu.Unlock()
	t.v++
	return true
}

// Reg keeps a count under a rank-checked lock whose helpers run under their
// callers' hold: AssertHeld is the contract, and an exit that gives the lock
// up breaks it.
type Reg struct {
	mu lockcheck.Mutex
	n  int // guarded by mu
}

// Bump holds r.mu across the helper.
func (r *Reg) Bump() {
	r.mu.Lock()
	r.bumpLocked()
	r.mu.Unlock()
}

// bumpLocked touches the guarded count under its caller's hold.
func (r *Reg) bumpLocked() {
	r.mu.AssertHeld()
	r.n++
}

// waitLocked drops r.mu around a wait and takes it back before it returns.
func (r *Reg) waitLocked(ch chan struct{}) {
	r.mu.AssertHeld()
	r.mu.Unlock()
	<-ch
	r.mu.Lock()
	r.n++
}

// resetLocked returns without the lock its caller holds.
func (r *Reg) resetLocked() {
	r.mu.AssertHeld()
	r.n = 0
	r.mu.Unlock()
} // want defers

// LeakAfterAssert is the plain leak: the helper's own Lock is not covered
// by a contract it does not state.
func (r *Reg) LeakAfterAssert(ch chan struct{}) {
	r.mu.Lock()
	r.waitLocked(ch)
} // want defers
