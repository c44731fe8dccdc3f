// Package atomicmix reproduces atomic access by convention: a plain field
// touched through sync/atomic's functions, next to the typed atomics that make
// the mixed access and the 32-bit alignment trap unrepresentable.
package atomicmix

import (
	"sync/atomic"
	"unsafe"
)

// Counter's hits field is atomic only where somebody remembered, and the
// leading uint32 leaves it 4-aligned on 32-bit layouts.
type Counter struct {
	pad  uint32
	hits int64
	next unsafe.Pointer
}

func (c *Counter) Inc() {
	atomic.AddInt64(&c.hits, 1) // want atomicmix
}

// Read is the plain load the function-style API cannot rule out.
func (c *Counter) Read() int64 { return c.hits }

func (c *Counter) Load() int64 { return atomic.LoadInt64(&c.hits) } // want atomicmix

func (c *Counter) Reset() {
	atomic.StoreInt64(&c.hits, 0)                   // want atomicmix
	atomic.CompareAndSwapPointer(&c.next, nil, nil) // want atomicmix
	_ = atomic.SwapInt64(&c.hits, 1)                // want atomicmix
}

// Typed atomics carry their own atomicity and alignment: clean, methods and
// all.
type Typed struct {
	n    atomic.Int64
	done atomic.Bool
	p    atomic.Pointer[Typed]
}

func (t *Typed) Bump() int64 {
	t.n.Add(1)
	t.done.Store(true)
	t.p.CompareAndSwap(nil, t)
	return t.n.Load()
}
