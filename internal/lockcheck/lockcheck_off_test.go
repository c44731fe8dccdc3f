//go:build !invariants

package lockcheck

import (
	"sync"
	"testing"
)

// The passthrough build must behave exactly like the sync primitives:
// nesting in any order, recursion-free usage, and sync.Cond interop.
func TestPassthrough(t *testing.T) {
	if Enabled {
		t.Fatal("Enabled must be false without the invariants tag")
	}
	var a, b Mutex
	a.Init("a", 10)
	b.Init("b", 20)
	b.Lock()
	a.Lock() // out of rank order: permitted, nothing is checked
	a.Unlock()
	b.Unlock()
	a.AssertHeld() // not held: permitted, nothing is checked

	var rw RWMutex
	rw.Init("rw", 0)
	rw.RLock()
	rw.RUnlock()
	rw.Lock()
	rw.Unlock()
	if !rw.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	rw.Unlock()

	var m Mutex
	c := sync.NewCond(&m)
	m.Lock()
	c.Broadcast()
	m.Unlock()
}
