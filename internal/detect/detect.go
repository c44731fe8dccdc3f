// Package detect implements BeSS's automatic update detection (paper §2.3).
//
// BeSS manages page locking "in an automatic and transparent way by using the
// virtual memory protection mechanisms provided by the underlying hardware":
// when an application gains access to a database page the page is protected;
// the protection violation raised by the first real access invokes the BeSS
// interrupt handler, which performs locking and grants access before the
// offending instruction is resumed.
//
// A Detector wraps a swizzle.Mapper's fault handler with this policy and
// reports each page's first read and first write of a transaction to its
// AccessFunc, which keeps whatever sets the transaction needs (the client
// session's touched segments and X locks). It is the hardware-based
// alternative to the software approach (explicit dirty calls) that the paper
// criticizes; package baseline implements that software approach for
// comparison (experiment E7).
package detect

import (
	"sync"

	"bess/internal/swizzle"
	"bess/internal/vmem"
)

// PageKey names one database page a transaction accesses.
type PageKey struct {
	Seg  swizzle.SegID
	Page int // page index within the segment's data range
}

// AccessFunc is consulted before access is granted: it performs locking (and,
// for writes, ensures log records will be written). A non-nil error denies
// the access — e.g. a lock conflict surfaces as a failed write.
type AccessFunc func(k PageKey, write bool) error

// Detector observes a transaction's page accesses by manipulating page
// protections: fresh data pages are mapped ProtNone, so a page's first read
// faults, and its first write faults again to lift it to read-write. Safe for
// the single-process access model of the mapper it wraps (one goroutine
// faulting at a time).
type Detector struct {
	m     *swizzle.Mapper
	space *vmem.Space

	mu       sync.Mutex
	onAccess AccessFunc
}

// New wraps the mapper with update detection.
func New(m *swizzle.Mapper) *Detector {
	d := &Detector{m: m, space: m.Space()}
	d.space.SetHandler(d.handle)
	return d
}

// SetAccessFunc installs the locking callback.
func (d *Detector) SetAccessFunc(f AccessFunc) {
	d.mu.Lock()
	d.onAccess = f
	d.mu.Unlock()
}

func (d *Detector) handle(f vmem.Fault) error {
	id, kind, pageIdx, ok := d.m.FrameInfo(f.Frame)
	if !ok {
		return d.m.HandleFault(f)
	}
	switch f.Kind {
	case vmem.FaultNoBacking:
		// Let the mapper fetch/map (waves 2–3), then demote fresh data
		// pages so their first genuine access is observed.
		if err := d.m.HandleFault(f); err != nil {
			return err
		}
		if _, k2, _, ok2 := d.m.FrameInfo(f.Frame); ok2 && (k2 == swizzle.FrameData || k2 == swizzle.FrameLarge) {
			d.demoteSegment(f.Frame)
		}
		return nil
	case vmem.FaultProtRead:
		if kind != swizzle.FrameData && kind != swizzle.FrameLarge {
			return d.m.HandleFault(f)
		}
		k := PageKey{Seg: id, Page: pageIdx}
		if err := d.access(k, false); err != nil {
			return err
		}
		return d.space.Protect(vmem.FrameAddr(f.Frame), 1, vmem.ProtRead)
	case vmem.FaultProtWrite:
		if kind != swizzle.FrameData && kind != swizzle.FrameLarge {
			// Writes to slotted segments stay denied: corruption prevention.
			return d.m.HandleFault(f)
		}
		k := PageKey{Seg: id, Page: pageIdx}
		if err := d.access(k, true); err != nil {
			return err
		}
		return d.space.Protect(vmem.FrameAddr(f.Frame), 1, vmem.ProtReadWrite)
	default:
		return d.m.HandleFault(f)
	}
}

// demoteSegment re-protects the whole data range containing frame to
// ProtNone right after it was mapped, so per-page reads fault individually.
func (d *Detector) demoteSegment(frame int64) {
	for _, r := range d.m.MappedDataRanges() {
		if frame >= r.Base.Frame() && frame < r.Base.Frame()+int64(r.Pages) {
			_ = d.space.Protect(r.Base, r.Pages, vmem.ProtNone)
			return
		}
	}
}

func (d *Detector) access(k PageKey, write bool) error {
	d.mu.Lock()
	cb := d.onAccess
	d.mu.Unlock()
	if cb == nil {
		return nil
	}
	return cb(k, write)
}

// EndTransaction re-protects every mapped data page so the next
// transaction's accesses are detected afresh (the per-transaction protection
// cycle of §2.3).
func (d *Detector) EndTransaction() {
	for _, r := range d.m.MappedDataRanges() {
		_ = d.space.Protect(r.Base, r.Pages, vmem.ProtNone)
	}
}
