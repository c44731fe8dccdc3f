// Package baseline implements the comparison systems the paper positions
// BeSS against; the benchmark harness runs them beside the real thing.
//
//   - OIDTable: EOS-style inter-object references — every dereference is a
//     hash-table lookup on a 96-bit OID instead of following a swizzled
//     virtual-memory pointer (paper §5: "pointer dereference in EOS is
//     somewhat slow because inter-object references are OIDs"). E1.
//
//   - EagerReserver: ObjectStore/QuickStore-style greedy address-space
//     reservation — address ranges for both the slotted and data segments
//     of every segment in the database are reserved up front, rather than
//     as references are discovered (paper §2.1: BeSS "does not involve a
//     greedy allocation of virtual memory addresses"). E3.
//
//   - SoftwareDetect: the Exodus/early-EOS software approach to update
//     detection — the programmer explicitly marks dirty data, and compiled
//     code must conservatively request exclusive locks whenever an object
//     pointer escapes into a function (paper §2.3). E7.
//
//   - LRU (lru.go): the textbook replacement policy the two-level clock is
//     compared with. E4.
package baseline

import (
	"errors"
	"sync"

	"bess/internal/oid"
	"bess/internal/swizzle"
	"bess/internal/vmem"
)

// --- E1: OID-based references ---

// OIDObject is one object in the OID-addressed store: payload plus OID
// reference fields (the on-disk and in-memory representations coincide).
type OIDObject struct {
	Data []byte
	Refs []oid.OID
}

// OIDTable is the EOS-style object table: dereference = hash lookup.
type OIDTable struct {
	mu      sync.RWMutex
	objects map[oid.OID]*OIDObject
}

// NewOIDTable returns an empty table.
func NewOIDTable() *OIDTable {
	return &OIDTable{objects: make(map[oid.OID]*OIDObject)}
}

// Put stores an object.
func (t *OIDTable) Put(id oid.OID, o *OIDObject) {
	t.mu.Lock()
	t.objects[id] = o
	t.mu.Unlock()
}

// Deref looks an object up by OID — the slow path BeSS avoids.
func (t *OIDTable) Deref(id oid.OID) (*OIDObject, bool) {
	t.mu.RLock()
	o, ok := t.objects[id]
	t.mu.RUnlock()
	return o, ok
}

// Chase follows ref field `field` from id for n hops, returning the final
// OID. Each hop pays one hash lookup.
func (t *OIDTable) Chase(id oid.OID, field, n int) (oid.OID, error) {
	cur := id
	for i := 0; i < n; i++ {
		o, ok := t.Deref(cur)
		if !ok {
			return oid.Nil, errors.New("baseline: dangling OID")
		}
		if field >= len(o.Refs) {
			return oid.Nil, errors.New("baseline: no such ref field")
		}
		cur = o.Refs[field]
	}
	return cur, nil
}

// --- E3: eager address-space reservation ---

// SegLister enumerates every segment of a database with its slotted and
// data sizes, so the eager scheme can reserve everything up front.
type SegLister interface {
	ListSegments() (segs []swizzle.SegID, slottedPages, dataPages []int, err error)
}

// EagerReserver models the greedy scheme: on open it reserves address
// ranges for the slotted AND data segments of every segment in the
// database, whether or not they are ever referenced.
type EagerReserver struct {
	space    *vmem.Space
	Reserved int64 // frames reserved up front
}

// NewEagerReserver performs the up-front reservation sweep.
func NewEagerReserver(space *vmem.Space, lister SegLister) (*EagerReserver, error) {
	segs, slotted, data, err := lister.ListSegments()
	if err != nil {
		return nil, err
	}
	e := &EagerReserver{space: space}
	for i := range segs {
		if _, err := space.Reserve(slotted[i]); err != nil {
			return nil, err
		}
		e.Reserved += int64(slotted[i])
		if _, err := space.Reserve(data[i]); err != nil {
			return nil, err
		}
		e.Reserved += int64(data[i])
	}
	return e, nil
}

// --- E7: software update detection ---

// SoftwareDetect models explicit dirty calls plus the conservative lock
// acquisition a compiler must emit when it cannot prove a callee does not
// write through an object pointer.
type SoftwareDetect struct {
	mu sync.Mutex
	// dirty is the explicitly-marked write set.
	dirty map[swizzle.SegID]map[int]bool
	// Locks tallies exclusive lock requests; conservative passes request X
	// even for read-only uses.
	Locks int64
}

// NewSoftwareDetect returns an empty tracker.
func NewSoftwareDetect() *SoftwareDetect {
	return &SoftwareDetect{dirty: make(map[swizzle.SegID]map[int]bool)}
}

// MarkDirty is the explicit dirty call the programmer must remember.
func (d *SoftwareDetect) MarkDirty(seg swizzle.SegID, pageIdx int) {
	d.mu.Lock()
	set := d.dirty[seg]
	if set == nil {
		set = make(map[int]bool)
		d.dirty[seg] = set
	}
	set[pageIdx] = true
	d.Locks++ // the dirty call requests the exclusive lock
	d.mu.Unlock()
}

// PassPointer models passing an object pointer to a separately-compiled
// function: the compiler conservatively requests an exclusive lock even if
// the function never writes (§2.3).
func (d *SoftwareDetect) PassPointer(seg swizzle.SegID, pageIdx int) {
	d.mu.Lock()
	d.Locks++
	d.mu.Unlock()
}

// Dirty reports whether (seg, pageIdx) was marked.
func (d *SoftwareDetect) Dirty(seg swizzle.SegID, pageIdx int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dirty[seg][pageIdx]
}
