// Package names implements the BeSS named ("root") object directory
// (paper §2.5): any object can be given a name; the directory is a pair of
// hash tables (name→OID and OID→name), and BeSS enforces referential
// integrity between root objects and their names — removing a root object
// removes its name.
package names

import (
	"errors"
	"sort"
	"sync"

	"bess/internal/oid"
)

// Errors returned by the directory.
var (
	ErrExists   = errors.New("names: name already bound")
	ErrNotFound = errors.New("names: no such name")
	ErrNilOID   = errors.New("names: cannot bind the nil OID")
	ErrBadName  = errors.New("names: empty or oversized name")
)

// MaxNameLen bounds the length of a name.
const MaxNameLen = 1 << 16

// Directory is the pair of hash tables. Safe for concurrent use.
type Directory struct {
	mu     sync.RWMutex
	byName map[string]oid.OID
	byOID  map[oid.OID]string
}

// New returns an empty directory.
func New() *Directory {
	return &Directory{
		byName: make(map[string]oid.OID),
		byOID:  make(map[oid.OID]string),
	}
}

// Bind names an object. A name maps to exactly one object and an object has
// at most one name; rebinding either side fails (unbind first).
func (d *Directory) Bind(name string, o oid.OID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.canBind(name, o); err != nil {
		return err
	}
	d.byName[name] = o
	d.byOID[o] = name
	return nil
}

// CanBind reports the error Bind(name, o) would return, changing nothing: the
// server checks a binding before it logs it.
func (d *Directory) CanBind(name string, o oid.OID) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.canBind(name, o)
}

func (d *Directory) canBind(name string, o oid.OID) error {
	if name == "" || len(name) >= MaxNameLen {
		return ErrBadName
	}
	if o.IsNil() {
		return ErrNilOID
	}
	if _, dup := d.byName[name]; dup {
		return ErrExists
	}
	if _, dup := d.byOID[o]; dup {
		return ErrExists
	}
	return nil
}

// Lookup resolves a name.
func (d *Directory) Lookup(name string) (oid.OID, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	o, ok := d.byName[name]
	if !ok {
		return oid.Nil, ErrNotFound
	}
	return o, nil
}

// NameOf returns the name bound to o, if any.
func (d *Directory) NameOf(o oid.OID) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n, ok := d.byOID[o]
	return n, ok
}

// Unbind removes a name, leaving the object itself alone.
func (d *Directory) Unbind(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	o, ok := d.byName[name]
	if !ok {
		return ErrNotFound
	}
	delete(d.byName, name)
	delete(d.byOID, o)
	return nil
}

// ObjectRemoved enforces referential integrity: when a root object is
// deleted from the database its name is removed too. Reports whether a
// binding existed.
func (d *Directory) ObjectRemoved(o oid.OID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	name, ok := d.byOID[o]
	if !ok {
		return false
	}
	delete(d.byOID, o)
	delete(d.byName, name)
	return true
}

// Len returns the number of bindings.
func (d *Directory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.byName)
}

// Names returns all bound names, sorted.
func (d *Directory) Names() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.byName))
	for n := range d.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
