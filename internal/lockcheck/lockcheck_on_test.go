//go:build invariants

package lockcheck

import (
	"strings"
	"sync"
	"testing"
)

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", want)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v is not a string", r)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	fn()
}

func TestHierarchyViolationPanics(t *testing.T) {
	var outer, inner Mutex
	outer.Init("outer", 10)
	inner.Init("inner", 20)

	// Correct order: outer (10) then inner (20).
	outer.Lock()
	inner.Lock()
	inner.Unlock()
	outer.Unlock()

	// Violating order: inner (20) held while acquiring outer (10).
	inner.Lock()
	defer inner.Unlock()
	mustPanic(t, "declared order requires", func() { outer.Lock() })
}

// TestInversionThroughCalleePanics: the inversion a static walk sees only
// across the call graph — holding the inner lock, call a helper that takes
// the outer one — panics where the helper locks.
func TestInversionThroughCalleePanics(t *testing.T) {
	var table, journal Mutex
	table.Init("table", 10)
	journal.Init("journal", 30)
	lockTable := func() {
		table.Lock()
		table.Unlock()
	}
	journal.Lock()
	defer journal.Unlock()
	mustPanic(t, "declared order requires table before journal", lockTable)
}

func TestEqualRankPanics(t *testing.T) {
	var a, b Mutex
	a.Init("shardA", 40)
	b.Init("shardB", 40)
	a.Lock()
	defer a.Unlock()
	mustPanic(t, "declared order requires", func() { b.Lock() })
}

func TestRecursiveLockPanics(t *testing.T) {
	var m Mutex
	m.Init("m", 0)
	m.Lock()
	defer m.Unlock()
	mustPanic(t, "re-acquires", func() { m.Lock() })
}

func TestRecursiveRLockPanics(t *testing.T) {
	var m RWMutex
	m.Init("rw", 0)
	m.RLock()
	defer m.RUnlock()
	mustPanic(t, "recursive RLock", func() { m.RLock() })
}

// TestAssertHeld: the "caller holds m" contract is silent for a caller that
// holds m and panics for one that does not — never having locked it, having
// released it, or holding it on another goroutine.
func TestAssertHeld(t *testing.T) {
	var m Mutex
	m.Init("Table.mu", 20)
	mustPanic(t, "does not hold Table.mu", func() { m.AssertHeld() })
	m.Lock()
	m.AssertHeld()
	done := make(chan any)
	go func() {
		defer func() { done <- recover() }()
		m.AssertHeld()
	}()
	if r := <-done; r == nil {
		t.Fatal("AssertHeld on a goroutine that does not hold the lock did not panic")
	}
	m.Unlock()
	mustPanic(t, "does not hold Table.mu", func() { m.AssertHeld() })
}

func TestUnrankedLocksIgnoreOrdering(t *testing.T) {
	var ranked, unranked Mutex
	ranked.Init("ranked", 30)
	unranked.Init("", 0)
	ranked.Lock()
	unranked.Lock() // unranked inside ranked: fine
	unranked.Unlock()
	ranked.Unlock()
	unranked.Lock()
	ranked.Lock() // ranked inside unranked: also fine
	ranked.Unlock()
	unranked.Unlock()
}

func TestHeldSetsArePerGoroutine(t *testing.T) {
	var hi, lo Mutex
	hi.Init("hi", 20)
	lo.Init("lo", 10)
	hi.Lock()
	defer hi.Unlock()
	// Another goroutine acquiring in opposite rank direction is not a
	// violation of the per-goroutine discipline by itself.
	done := make(chan struct{})
	go func() {
		defer close(done)
		lo.Lock()
		lo.Unlock()
	}()
	<-done
	hi.AssertHeld()
	mustPanic(t, "does not hold lo", func() { lo.AssertHeld() })
}

func TestCondInteropTracksWaitHandoff(t *testing.T) {
	// sync.Cond calls L.Unlock/L.Lock through the wrapper, so the held set
	// stays accurate across Wait.
	var m Mutex
	m.Init("cond-guard", 0)
	c := sync.NewCond(&m)
	ready := false
	go func() {
		m.Lock()
		ready = true
		c.Broadcast()
		m.Unlock()
	}()
	m.Lock()
	for !ready {
		c.Wait()
	}
	m.AssertHeld()
	m.Unlock()
	mustPanic(t, "does not hold cond-guard", func() { m.AssertHeld() })
}
