//go:build invariants

package lockcheck

import (
	"fmt"
	"runtime"
	"sync"
	"unsafe"
)

// Enabled reports whether runtime lock-order checking is compiled in.
const Enabled = true

// held is one entry in a goroutine's held-lock set.
type held struct {
	key    uintptr // identity of the lock instance
	name   string
	rank   Rank
	shared bool   // held via RLock
	site   string // file:line of the acquisition
}

var registry struct {
	mu sync.Mutex
	g  map[uint64][]held // goroutine id -> locks held, acquisition order
}

func init() { registry.g = make(map[uint64][]held) }

// gid returns the current goroutine's id by parsing the first line of its
// stack trace ("goroutine N [running]:"). Only compiled under the lockcheck
// tag, where the cost is accepted.
func gid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

func callsite() string {
	_, file, line, ok := runtime.Caller(2)
	if !ok {
		return "?"
	}
	return fmt.Sprintf("%s:%d", file, line)
}

// acquire validates and records taking the lock identified by key.
func acquire(key uintptr, name string, rank Rank, shared bool, site string) {
	g := gid()
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, h := range registry.g[g] {
		if h.key == key {
			kind := "Lock"
			if shared && h.shared {
				kind = "recursive RLock (deadlocks against a queued writer)"
			} else if shared || h.shared {
				kind = "read/write re-entry"
			}
			panic(fmt.Sprintf("lockcheck: goroutine %d re-acquires %s at %s (already held since %s): %s",
				g, lockName(name), site, h.site, kind))
		}
		if rank != 0 && h.rank != 0 && h.rank >= rank {
			panic(fmt.Sprintf("lockcheck: goroutine %d acquires %s (rank %d) at %s while holding %s (rank %d, taken at %s); declared order requires %s before %s",
				g, lockName(name), rank, site, lockName(h.name), h.rank, h.site, lockName(name), lockName(h.name)))
		}
	}
	registry.g[g] = append(registry.g[g], held{key: key, name: name, rank: rank, shared: shared, site: site})
}

// release removes the newest matching entry. Unlocking a lock this goroutine
// does not hold is ignored rather than flagged: hand-off patterns (lock in
// one goroutine, unlock in another) are legal for sync.Mutex.
func release(key uintptr, shared bool) {
	g := gid()
	registry.mu.Lock()
	defer registry.mu.Unlock()
	hs := registry.g[g]
	for i := len(hs) - 1; i >= 0; i-- {
		if hs[i].key == key && hs[i].shared == shared {
			registry.g[g] = append(hs[:i], hs[i+1:]...)
			if len(registry.g[g]) == 0 {
				delete(registry.g, g)
			}
			return
		}
	}
}

func lockName(name string) string {
	if name == "" {
		return "<unnamed lock>"
	}
	return name
}

// Mutex is a rank-checked mutual exclusion lock.
type Mutex struct {
	mu   sync.Mutex
	name string
	rank Rank
}

// Init names the lock and assigns its hierarchy rank. Call before first use
// (typically in the owning value's constructor).
func (m *Mutex) Init(name string, rank Rank) { m.name, m.rank = name, rank }

// Lock acquires the mutex after validating the hierarchy.
func (m *Mutex) Lock() {
	acquire(uintptr(unsafe.Pointer(m)), m.name, m.rank, false, callsite())
	m.mu.Lock()
}

// TryLock attempts the acquisition; the hierarchy is validated only on
// success (a failed try holds nothing).
func (m *Mutex) TryLock() bool {
	if !m.mu.TryLock() {
		return false
	}
	acquire(uintptr(unsafe.Pointer(m)), m.name, m.rank, false, callsite())
	return true
}

// Unlock releases the mutex.
func (m *Mutex) Unlock() {
	m.mu.Unlock()
	release(uintptr(unsafe.Pointer(m)), false)
}

// AssertHeld panics unless the calling goroutine holds m: a function that
// runs under its caller's lock states so with this call where it begins.
func (m *Mutex) AssertHeld() {
	key, g := uintptr(unsafe.Pointer(m)), gid()
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, h := range registry.g[g] {
		if h.key == key {
			return
		}
	}
	panic(fmt.Sprintf("lockcheck: goroutine %d does not hold %s at %s, which requires it held",
		g, lockName(m.name), callsite()))
}

// RWMutex is a rank-checked reader/writer lock.
type RWMutex struct {
	mu   sync.RWMutex
	name string
	rank Rank
}

// Init names the lock and assigns its hierarchy rank. Call before first use.
func (m *RWMutex) Init(name string, rank Rank) { m.name, m.rank = name, rank }

// Lock acquires the write lock after validating the hierarchy.
func (m *RWMutex) Lock() {
	acquire(uintptr(unsafe.Pointer(m)), m.name, m.rank, false, callsite())
	m.mu.Lock()
}

// TryLock attempts the write acquisition.
func (m *RWMutex) TryLock() bool {
	if !m.mu.TryLock() {
		return false
	}
	acquire(uintptr(unsafe.Pointer(m)), m.name, m.rank, false, callsite())
	return true
}

// Unlock releases the write lock.
func (m *RWMutex) Unlock() {
	m.mu.Unlock()
	release(uintptr(unsafe.Pointer(m)), false)
}

// RLock acquires the read lock. Recursive RLock of the same instance panics:
// with a writer queued between the two acquisitions, the second RLock blocks
// behind the writer, which blocks behind the first — a deadlock the race
// detector cannot see.
func (m *RWMutex) RLock() {
	acquire(uintptr(unsafe.Pointer(m)), m.name, m.rank, true, callsite())
	m.mu.RLock()
}

// TryRLock attempts the read acquisition.
func (m *RWMutex) TryRLock() bool {
	if !m.mu.TryRLock() {
		return false
	}
	acquire(uintptr(unsafe.Pointer(m)), m.name, m.rank, true, callsite())
	return true
}

// RUnlock releases the read lock.
func (m *RWMutex) RUnlock() {
	m.mu.RUnlock()
	release(uintptr(unsafe.Pointer(m)), true)
}
