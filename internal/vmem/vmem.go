// Package vmem simulates the virtual-memory facilities BeSS obtains from the
// hardware and the UNIX mmap/mprotect interface (paper §2.1–§2.3, §4).
//
// A Space models one process' virtual address range (the paper's PVMA). It
// is a sparse table of fixed-size frames, each either unreserved, reserved
// (no backing store, access-protected), or mapped to a backing byte slice
// with a protection of None, Read, or ReadWrite. Reserving a range consumes
// no memory — exactly the property BeSS exploits to reserve address ranges
// for data segments lazily and cheaply.
//
// Every access goes through Read/Write, which check the frame protection and,
// on a violation, deliver a Fault to the registered handler — the analogue of
// the hardware raising SIGSEGV and the BeSS interrupt handler running. If the
// handler returns nil the access is retried, as the hardware resumes the
// offending instruction.
//
// Substitution note (see DESIGN.md §2): Go cannot take a recoverable fault on
// an ordinary pointer dereference, so "dereference a virtual address" is an
// explicit call here; all protection, reservation, and fault *accounting* —
// the quantities the paper reasons about — is preserved.
package vmem

import (
	"errors"
	"fmt"
	"sync/atomic"

	"bess/internal/lockcheck"
	"bess/internal/page"
)

// FrameSize is the size of one virtual frame, equal to the BeSS page size.
const FrameSize = page.Size

// Prot is a frame protection level.
type Prot uint8

// Protection levels, in increasing permissiveness.
const (
	ProtNone Prot = iota // reserved/invalid: any access faults
	ProtRead             // reads allowed, writes fault
	ProtReadWrite
)

// String names the protection level.
func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "none"
	case ProtRead:
		return "read"
	case ProtReadWrite:
		return "read-write"
	default:
		return fmt.Sprintf("prot(%d)", uint8(p))
	}
}

// Addr is a virtual address within a Space.
type Addr uint64

// NilAddr is the null virtual address. Frame 0 is never handed out, so no
// valid object address is ever 0.
const NilAddr Addr = 0

// Frame returns the frame index containing a.
func (a Addr) Frame() int64 { return int64(a) / FrameSize }

// Offset returns the byte offset of a within its frame.
func (a Addr) Offset() int { return int(int64(a) % FrameSize) }

// FrameAddr returns the base address of frame f.
func FrameAddr(f int64) Addr { return Addr(f * FrameSize) }

// FaultKind classifies an access violation.
type FaultKind uint8

// Fault kinds.
const (
	FaultUnreserved FaultKind = iota // access to an unreserved address (true SIGSEGV)
	FaultNoBacking                   // reserved but unmapped frame (BeSS segment fault)
	FaultProtRead                    // read of a ProtNone mapped frame
	FaultProtWrite                   // write of a read-only or ProtNone mapped frame
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultUnreserved:
		return "unreserved"
	case FaultNoBacking:
		return "no-backing"
	case FaultProtRead:
		return "prot-read"
	case FaultProtWrite:
		return "prot-write"
	default:
		return fmt.Sprintf("fault(%d)", uint8(k))
	}
}

// Fault describes one access violation delivered to a handler.
type Fault struct {
	Addr  Addr
	Frame int64
	Kind  FaultKind
	Write bool // the faulting access was a write
}

// Handler is invoked on an access violation, like a SIGSEGV handler. If it
// returns nil the faulting access is retried; an error aborts the access.
type Handler func(Fault) error

// Errors returned by Space operations.
var (
	ErrUnreserved   = errors.New("vmem: address not reserved")
	ErrViolation    = errors.New("vmem: access violation")
	ErrNoHandler    = errors.New("vmem: fault with no handler installed")
	ErrFaultStorm   = errors.New("vmem: fault handler did not resolve violation")
	ErrBadRange     = errors.New("vmem: bad address range")
	ErrDoubleMap    = errors.New("vmem: frame already mapped")
	ErrWrongBacking = errors.New("vmem: backing slice must be FrameSize bytes")
)

// maxRetries bounds handler retry loops; real hardware would loop forever on
// a handler that fixes nothing, we fail fast instead.
const maxRetries = 8

type frame struct {
	prot Prot
	data []byte // nil while reserved-but-unmapped
}

// Stats are cumulative counters for one Space. They are the measurable
// quantities the paper's evaluation reasons about: faults taken, protection
// changes (the "system calls" of §2.2), and reservation footprint.
type Stats struct {
	Faults         int64 // total faults delivered
	FaultsByKind   [4]int64
	ProtectCalls   int64 // Protect invocations (mprotect analogue)
	ReservedFrames int64 // current
	MappedFrames   int64 // current
}

// rankSpaceMu places Space.mu in the lock hierarchy
// (internal/server/lockorder.go): a leaf — a fault handler runs with it
// released — taken under a shared-memory slot latch by an access inside
// shm.Process.WithLatch.
const rankSpaceMu lockcheck.Rank = 80

// Space is one simulated virtual address space.
type Space struct {
	mu      lockcheck.RWMutex
	frames  map[int64]*frame
	next    int64 // next unreserved frame index (bump reservation)
	handler atomic.Pointer[Handler]

	stats struct {
		faults       atomic.Int64
		faultsByKind [4]atomic.Int64
		protects     atomic.Int64
		reserved     atomic.Int64
		mapped       atomic.Int64
	}
}

// New returns an empty Space. Frame 0 is pre-burned so that address 0 is
// never valid (the null reference).
func New() *Space {
	s := &Space{frames: make(map[int64]*frame), next: 1}
	s.mu.Init("Space.mu", rankSpaceMu)
	return s
}

// SetHandler installs the fault handler (nil uninstalls).
func (s *Space) SetHandler(h Handler) {
	if h == nil {
		s.handler.Store(nil)
		return
	}
	s.handler.Store(&h)
}

// Reserve reserves n contiguous frames, access-protected and unmapped, and
// returns the base address of the range. Reservation allocates no backing
// memory.
func (s *Space) Reserve(n int) (Addr, error) {
	if n <= 0 {
		return NilAddr, ErrBadRange
	}
	s.mu.Lock()
	base := s.next
	s.next += int64(n)
	for i := int64(0); i < int64(n); i++ {
		s.frames[base+i] = &frame{prot: ProtNone}
	}
	s.mu.Unlock()
	s.stats.reserved.Add(int64(n))
	return FrameAddr(base), nil
}

// Release un-reserves n frames starting at the frame containing base,
// discarding any mappings.
func (s *Space) Release(base Addr, n int) error {
	if n <= 0 || base.Offset() != 0 {
		return ErrBadRange
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f0 := base.Frame()
	for i := int64(0); i < int64(n); i++ {
		fr, ok := s.frames[f0+i]
		if !ok {
			return ErrUnreserved
		}
		if fr.data != nil {
			s.stats.mapped.Add(-1)
		}
		delete(s.frames, f0+i)
	}
	s.stats.reserved.Add(-int64(n))
	return nil
}

// Map attaches backing bytes to the reserved frame containing addr and sets
// its protection. backing must be exactly FrameSize bytes; it is aliased, not
// copied, so several Spaces may map the same slice (the shared cache).
func (s *Space) Map(addr Addr, backing []byte, prot Prot) error {
	if len(backing) != FrameSize {
		return ErrWrongBacking
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fr, ok := s.frames[addr.Frame()]
	if !ok {
		return ErrUnreserved
	}
	if fr.data != nil {
		return ErrDoubleMap
	}
	fr.data = backing
	fr.prot = prot
	s.stats.mapped.Add(1)
	return nil
}

// Unmap detaches the backing of the frame containing addr; the frame stays
// reserved and access-protected. This is how a process "disables both read
// and write access" to a PVMA frame whose cache slot was replaced (paper
// §4.1.2).
func (s *Space) Unmap(addr Addr) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fr, ok := s.frames[addr.Frame()]
	if !ok {
		return ErrUnreserved
	}
	if fr.data != nil {
		fr.data = nil
		s.stats.mapped.Add(-1)
	}
	fr.prot = ProtNone
	return nil
}

// Remap atomically replaces the backing of the frame containing addr,
// mapping it whether or not it was previously mapped.
func (s *Space) Remap(addr Addr, backing []byte, prot Prot) error {
	if len(backing) != FrameSize {
		return ErrWrongBacking
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fr, ok := s.frames[addr.Frame()]
	if !ok {
		return ErrUnreserved
	}
	if fr.data == nil {
		s.stats.mapped.Add(1)
	}
	fr.data = backing
	fr.prot = prot
	return nil
}

// Protect changes the protection of n frames starting at the frame
// containing base. Each call counts once toward the ProtectCalls statistic —
// the "system call" cost of §2.2.
func (s *Space) Protect(base Addr, n int, prot Prot) error {
	if n <= 0 {
		return ErrBadRange
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f0 := base.Frame()
	for i := int64(0); i < int64(n); i++ {
		fr, ok := s.frames[f0+i]
		if !ok {
			return ErrUnreserved
		}
		fr.prot = prot
	}
	s.stats.protects.Add(1)
	return nil
}

// ProtOf returns the protection of the frame containing addr and whether the
// frame is mapped.
func (s *Space) ProtOf(addr Addr) (prot Prot, mapped, reserved bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fr, ok := s.frames[addr.Frame()]
	if !ok {
		return ProtNone, false, false
	}
	return fr.prot, fr.data != nil, true
}

// classify returns the fault for an access, or ok=true if permitted.
func (s *Space) classify(addr Addr, write bool) (Fault, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fr, ok := s.frames[addr.Frame()]
	switch {
	case !ok:
		return Fault{Addr: addr, Frame: addr.Frame(), Kind: FaultUnreserved, Write: write}, false
	case fr.data == nil:
		return Fault{Addr: addr, Frame: addr.Frame(), Kind: FaultNoBacking, Write: write}, false
	case write && fr.prot != ProtReadWrite:
		return Fault{Addr: addr, Frame: addr.Frame(), Kind: FaultProtWrite, Write: true}, false
	case !write && fr.prot == ProtNone:
		return Fault{Addr: addr, Frame: addr.Frame(), Kind: FaultProtRead, Write: false}, false
	default:
		return Fault{}, true
	}
}

// deliver runs the fault handler for f, counting the fault.
func (s *Space) deliver(f Fault) error {
	s.stats.faults.Add(1)
	s.stats.faultsByKind[f.Kind].Add(1)
	hp := s.handler.Load()
	if hp == nil {
		return fmt.Errorf("%w: %s at %#x", ErrNoHandler, f.Kind, uint64(f.Addr))
	}
	return (*hp)(f)
}

// access performs op on the frame bytes once protection checks pass,
// delivering faults and retrying as the handler resolves them. The
// half-open byte range [addr, addr+n) must lie within a single frame.
func (s *Space) access(addr Addr, n int, write bool, op func(data []byte)) error {
	if n < 0 || addr.Offset()+n > FrameSize {
		return ErrBadRange
	}
	for try := 0; try <= maxRetries; try++ {
		if f, ok := s.classify(addr, write); !ok {
			if err := s.deliver(f); err != nil {
				return fmt.Errorf("%w: %s at %#x: %v", ErrViolation, f.Kind, uint64(f.Addr), err)
			}
			continue
		}
		s.mu.RLock()
		fr := s.frames[addr.Frame()]
		// Re-check under the lock: the handler may run concurrently with
		// other mutators.
		if fr == nil || fr.data == nil ||
			(write && fr.prot != ProtReadWrite) || (!write && fr.prot == ProtNone) {
			s.mu.RUnlock()
			continue
		}
		op(fr.data[addr.Offset() : addr.Offset()+n])
		s.mu.RUnlock()
		return nil
	}
	return ErrFaultStorm
}

// ReadAt copies len(buf) bytes at addr into buf. The range must not cross a
// frame boundary (BeSS objects never span pages within a data segment read;
// multi-frame copies use ReadRange).
func (s *Space) ReadAt(addr Addr, buf []byte) error {
	return s.access(addr, len(buf), false, func(data []byte) { copy(buf, data) })
}

// WriteAt copies buf to addr, subject to write protection.
func (s *Space) WriteAt(addr Addr, buf []byte) error {
	return s.access(addr, len(buf), true, func(data []byte) { copy(data, buf) })
}

// ReadRange copies len(buf) bytes starting at addr, spanning frames.
func (s *Space) ReadRange(addr Addr, buf []byte) error {
	for len(buf) > 0 {
		n := FrameSize - addr.Offset()
		if n > len(buf) {
			n = len(buf)
		}
		if err := s.ReadAt(addr, buf[:n]); err != nil {
			return err
		}
		buf = buf[n:]
		addr += Addr(n)
	}
	return nil
}

// WriteRange copies buf starting at addr, spanning frames.
func (s *Space) WriteRange(addr Addr, buf []byte) error {
	for len(buf) > 0 {
		n := FrameSize - addr.Offset()
		if n > len(buf) {
			n = len(buf)
		}
		if err := s.WriteAt(addr, buf[:n]); err != nil {
			return err
		}
		buf = buf[n:]
		addr += Addr(n)
	}
	return nil
}

// Touch performs a protection check at addr (read or write) without moving
// data, faulting exactly as a real access would. The swizzle layer uses it
// to trigger segment faults.
func (s *Space) Touch(addr Addr, write bool) error {
	return s.access(addr, 0, write, func([]byte) {})
}

// Snapshot returns the current statistics.
func (s *Space) Snapshot() Stats {
	var st Stats
	st.Faults = s.stats.faults.Load()
	for i := range st.FaultsByKind {
		st.FaultsByKind[i] = s.stats.faultsByKind[i].Load()
	}
	st.ProtectCalls = s.stats.protects.Load()
	st.ReservedFrames = s.stats.reserved.Load()
	st.MappedFrames = s.stats.mapped.Load()
	return st
}
