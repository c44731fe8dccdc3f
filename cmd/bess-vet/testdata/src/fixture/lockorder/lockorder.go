// Package lockorder reproduces hierarchy violations against a declared
// lock order, including one only visible through the call graph. The order
// is what the Init calls say: Reg.tableMu < Reg.copyMu < Journal.mu.
package lockorder

import "fixture/internal/lockcheck"

const (
	rankTable   lockcheck.Rank = 10
	rankCopy    lockcheck.Rank = 20
	rankJournal lockcheck.Rank = rankCopy + 10 // a rank is whatever the constant folds to
)

// Journal is the innermost lock holder (like wal.Log).
type Journal struct {
	mu lockcheck.Mutex
	n  int
}

// Append takes the journal lock.
func (j *Journal) Append() {
	j.mu.Lock()
	j.n++
	j.mu.Unlock()
}

// Reg mirrors the server's striped registry locks.
type Reg struct {
	tableMu lockcheck.Mutex
	copyMu  lockcheck.Mutex
	j       Journal
}

// NewReg declares the hierarchy.
func NewReg() *Reg {
	r := &Reg{}
	r.tableMu.Init("Reg.tableMu", rankTable)
	r.copyMu.Init("Reg.copyMu", rankCopy)
	r.j.mu.Init("Journal.mu", rankJournal)
	return r
}

// InOrder nests along the declared direction: fine.
func (r *Reg) InOrder() {
	r.tableMu.Lock()
	r.copyMu.Lock()
	r.j.Append()
	r.copyMu.Unlock()
	r.tableMu.Unlock()
}

// Inverted acquires the outer lock while holding the inner one.
func (r *Reg) Inverted() {
	r.copyMu.Lock()
	r.tableMu.Lock() // want lockorder
	r.tableMu.Unlock()
	r.copyMu.Unlock()
}

// Recursive deadlocks on itself.
func (r *Reg) Recursive() {
	r.tableMu.Lock()
	r.tableMu.Lock() // want lockorder
	r.tableMu.Unlock()
	r.tableMu.Unlock()
}

// CallsUp holds the innermost lock and calls into a function that takes an
// outer one — the inversion is only visible interprocedurally.
func (r *Reg) CallsUp() {
	r.j.mu.Lock()
	r.lockTable() // want lockorder
	r.j.mu.Unlock()
}

func (r *Reg) lockTable() {
	r.tableMu.Lock()
	r.tableMu.Unlock()
}

// Sequential acquisition (release before the next) is always legal.
func (r *Reg) Sequential() {
	r.copyMu.Lock()
	r.copyMu.Unlock()
	r.tableMu.Lock()
	r.tableMu.Unlock()
}
