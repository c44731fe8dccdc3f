// Package shm implements the BeSS shared-memory operation mode
// (paper §4.1.2, Figures 3 and 4).
//
// Several application processes on one node attach to a shared cache — a
// contiguous sequence of page-size slots — plus control data. Pointers in
// the shared space must be valid for every process, so they are treated
// uniformly as offsets from the beginning of a fictitious shared virtual
// address space (SVMA). Each process reserves the same number of private
// virtual frames (PVMA); a shared mapping table (SMT) assigns every cached
// page to one SVMA frame, so all processes see a page at the same frame
// (though at different absolute addresses). The Ref type performs the
// shm_ref<T> translation between process addresses and shared offsets.
//
// Concurrent access is synchronized with latches (atomic test-and-set in
// the paper, lockcheck.Mutex here), and cleanup of shared structures after a
// process failure follows the action-tracking approach of Rdb/VMS [20].
package shm

import (
	"errors"
	"fmt"
	"sync/atomic"

	"bess/internal/cache"
	"bess/internal/lockcheck"
	"bess/internal/page"
	"bess/internal/vmem"
)

// Errors returned by the shm layer.
var (
	ErrNoFrames   = errors.New("shm: shared virtual address space exhausted")
	ErrNoVictim   = errors.New("shm: cache full and no process will release a slot")
	ErrDetached   = errors.New("shm: process detached")
	ErrStaleFrame = errors.New("shm: frame no longer maps a cached page")
	ErrNotMapped  = errors.New("shm: page not accessible in this process")
)

// Backing supplies pages to the shared cache and accepts write-backs: in a
// node server this is the path to the owning BeSS servers. A write-back is
// of the bytes at which data, the page, differs from fill, the image it was
// filled from — what the cache's processes changed — over the page as it is
// committed, which may have changed since the fill; it returns the page as
// written.
type Backing interface {
	Fetch(id page.ID) ([]byte, error)
	WriteBack(id page.ID, fill, data []byte) ([]byte, error)
}

// Ref is an SVMA offset — the shared-space pointer representation. Ref 0 is
// nil (frame 0 exists but offset 0 is never handed out for object data; we
// simply reserve it).
type Ref uint64

// NilRef is the null shared reference.
const NilRef Ref = 0

// FrameOf returns the SVMA frame index of r.
func (r Ref) FrameOf() int { return int(uint64(r) / vmem.FrameSize) }

// OffsetOf returns the byte offset within the frame.
func (r Ref) OffsetOf() int { return int(uint64(r) % vmem.FrameSize) }

// MakeRef builds a Ref from an SVMA frame and intra-page offset.
func MakeRef(frame, off int) Ref {
	return Ref(uint64(frame)*vmem.FrameSize + uint64(off))
}

// The shared cache's place in the lock hierarchy
// (internal/server/lockorder.go). A slot latch is outermost of all: a flush
// writes the slot back through the node server's upstream connection while it
// holds the latch (rpc.Peer's locks, rank 2 and 5, nest inside it), and
// WithLatch runs the caller's reads and writes under it, which take
// Process.mu, vmem.Space.mu and cache.Pool.mu. Process.mu is a leaf.
const (
	rankSlotLatch lockcheck.Rank = 1
	rankProcessMu lockcheck.Rank = 70
)

// SharedCache is the node-wide cache plus SMT. Safe for concurrent use.
type SharedCache struct {
	mu      lockcheck.Mutex
	pool    *cache.Pool
	backing Backing
	nframes int
	// SMT: SVMA frame → cached page, and the inverse.
	smt      []page.ID
	assigned []bool
	frameOf  map[page.ID]int
	free     []int
	procs    map[int]*Process
	nextProc int

	// slotLatch[i] serializes access to pool slot i — the paper's latches
	// for atomic read/write of cached objects.
	slotLatch []lockcheck.Mutex

	// invalidations counts Invalidate calls. A fill, refresh or write-back
	// that saw it move while it fetched may have missed its page's: the
	// slot is left stale.
	invalidations atomic.Uint64
}

// NewSharedCache builds a cache of nslots pages with an SVMA of nframes
// frames (nframes >= nslots; the PVMA "may be much larger than the size of
// the shared cache").
func NewSharedCache(nslots, nframes int, backing Backing) (*SharedCache, error) {
	if nframes < nslots {
		return nil, fmt.Errorf("shm: nframes %d < nslots %d", nframes, nslots)
	}
	sc := &SharedCache{
		pool:      cache.NewPool(nslots),
		backing:   backing,
		nframes:   nframes,
		smt:       make([]page.ID, nframes),
		assigned:  make([]bool, nframes),
		frameOf:   make(map[page.ID]int),
		procs:     make(map[int]*Process),
		slotLatch: make([]lockcheck.Mutex, nslots),
	}
	sc.mu.Init("SharedCache.mu", 0) // unranked: a leaf, held only over the SMT and the process table
	for i := range sc.slotLatch {
		sc.slotLatch[i].Init("SharedCache.slotLatch", rankSlotLatch)
	}
	// Frame 0 is reserved so Ref 0 can be nil.
	sc.assigned[0] = true
	for f := nframes - 1; f >= 1; f-- {
		sc.free = append(sc.free, f)
	}
	return sc, nil
}

// Pool exposes the underlying slot pool (stats, tests).
func (sc *SharedCache) Pool() *cache.Pool { return sc.pool }

// assignFrameLocked gives id an SVMA frame, reusing an existing assignment.
func (sc *SharedCache) assignFrameLocked(id page.ID) (int, error) {
	if f, ok := sc.frameOf[id]; ok {
		return f, nil
	}
	if len(sc.free) == 0 {
		return 0, ErrNoFrames
	}
	f := sc.free[len(sc.free)-1]
	sc.free = sc.free[:len(sc.free)-1]
	sc.frameOf[id] = f
	sc.smt[f] = id
	sc.assigned[f] = true
	return f, nil
}

func (sc *SharedCache) releaseFrameLocked(id page.ID) {
	f, ok := sc.frameOf[id]
	if !ok {
		return
	}
	delete(sc.frameOf, id)
	sc.smt[f] = page.ID{}
	sc.assigned[f] = false
	sc.free = append(sc.free, f)
}

// acquireSlot brings id into the cache (fetching on miss), handling
// eviction write-back and SMT maintenance, and returns the pin on its slot,
// brought up to date if it was stale (refresh). A failed write-back or fetch
// gives the claimed slot back untouched: the victim keeps its bytes and its
// dirty flag, and id is cached nowhere.
func (sc *SharedCache) acquireSlot(id page.ID) (*cache.Pin, error) {
	for attempt := 0; attempt < 3; attempt++ {
		pin, err := sc.pool.Acquire(id)
		if err == cache.ErrNoVictim {
			// Two-level clock, level 1: press the resident processes to
			// demote/invalidate their frames (§4.2).
			sc.mu.Lock()
			procs := make([]*Process, 0, len(sc.procs))
			for _, p := range sc.procs {
				procs = append(procs, p)
			}
			sc.mu.Unlock()
			freed := 0
			for _, p := range procs {
				freed += p.fclock.Pressure(1)
			}
			if freed == 0 {
				return nil, ErrNoVictim
			}
			continue
		}
		if err == nil && !pin.Hit() {
			err = sc.fill(pin, id)
		}
		if err == nil {
			err = sc.refresh(pin, id)
		}
		if err != nil {
			return nil, err
		}
		return pin, nil
	}
	return nil, ErrNoVictim
}

// fill completes pin's miss of id: it writes the victim back if it is dirty,
// and fills the slot with id's page. On an error the pin is released.
func (sc *SharedCache) fill(pin *cache.Pin, id page.ID) error {
	ev := pin.Victim()
	var err error
	if ev != nil && ev.Dirty {
		_, err = sc.backing.WriteBack(ev.ID, ev.Fill, ev.Data)
	}
	var data []byte
	n := sc.invalidations.Load()
	if err == nil {
		data, err = sc.backing.Fetch(id)
	}
	if err != nil {
		pin.Release()
		return err
	}
	if ev != nil {
		// The victim leaves the cache: free its SVMA frame while the
		// processes waiting for it are still parked on the claim, so the
		// one that brings it back assigns it a frame afresh.
		sc.mu.Lock()
		sc.releaseFrameLocked(ev.ID)
		sc.mu.Unlock()
	}
	// Slot bytes change hands under the slot latch (FlushDirty reads
	// them under it).
	sc.slotLatch[pin.Slot()].Lock()
	pin.Fill(data)
	sc.settled(id, n)
	sc.slotLatch[pin.Slot()].Unlock()
	return nil
}

// Invalidate is a callback of page id: the slot that holds it becomes stale
// and every process's mapping of it goes, so the next access to the page
// refreshes it to the committed image — a dirty slot by its write-back, which
// ships what its processes changed over that image.
func (sc *SharedCache) Invalidate(id page.ID) {
	sc.invalidations.Add(1)
	slot, ok := sc.pool.Invalidate(id)
	if !ok {
		return
	}
	sc.mu.Lock()
	procs := make([]*Process, 0, len(sc.procs))
	for _, p := range sc.procs {
		procs = append(procs, p)
	}
	sc.mu.Unlock()
	for _, p := range procs {
		p.fclock.InvalidateSlot(slot)
	}
}

// settled is called once id's slot holds what was fetched or written back
// after the invalidation count read n. If the count has moved since, an
// invalidation of id may have come in between: the slot is stale again.
func (sc *SharedCache) settled(id page.ID, n uint64) {
	if sc.invalidations.Load() != n {
		sc.pool.Invalidate(id)
	}
}

// refresh brings the slot pin holds for id up to the committed image while it
// is stale: a clean one is fetched again, a dirty one written back. On an
// error the pin is released.
func (sc *SharedCache) refresh(pin *cache.Pin, id page.ID) error {
	slot := pin.Slot()
	if s, _ := sc.pool.Slot(slot); !s.Stale {
		return nil
	}
	sc.slotLatch[slot].Lock()
	defer sc.slotLatch[slot].Unlock()
	for s, _ := sc.pool.Slot(slot); s.Stale; s, _ = sc.pool.Slot(slot) {
		n := sc.invalidations.Load()
		var data []byte
		var err error
		if s.Dirty {
			data, err = sc.writeBack(slot, id)
		} else {
			data, err = sc.backing.Fetch(id)
		}
		if err != nil {
			pin.Release()
			return err
		}
		sc.pool.Refresh(slot, data)
		sc.settled(id, n)
	}
	return nil
}

// writeBack writes slot's page id back. The caller holds the slot latch.
func (sc *SharedCache) writeBack(slot int, id page.ID) ([]byte, error) {
	return sc.backing.WriteBack(id, append([]byte(nil), sc.pool.FillData(slot)...), append([]byte(nil), sc.pool.SlotData(slot)...))
}

// FlushDirty writes every dirty slot back to the backing store (shutdown,
// commit boundaries in the node server).
func (sc *SharedCache) FlushDirty() error {
	for _, id := range sc.pool.DirtyPages() {
		if err := sc.flushPage(id); err != nil {
			return err
		}
	}
	return nil
}

// flushPage writes id back if it is still cached. Slot bytes change hands
// only under the slot latch, so a slot that still holds id once the latch is
// taken holds it until the latch is let go.
func (sc *SharedCache) flushPage(id page.ID) error {
	slot, ok := sc.pool.Peek(id)
	if !ok {
		return nil
	}
	sc.slotLatch[slot].Lock()
	defer sc.slotLatch[slot].Unlock()
	if cur, ok := sc.pool.Peek(id); !ok || cur != slot {
		return nil // replaced meanwhile: the miss that took the slot wrote it back
	}
	n := sc.invalidations.Load()
	data, err := sc.writeBack(slot, id)
	if err != nil {
		return err
	}
	sc.pool.Refresh(slot, data)
	sc.settled(id, n)
	return nil
}

// Process is one application process attached to the shared cache, with its
// own PVMA (a vmem.Space) whose frames mirror the SVMA one-to-one.
type Process struct {
	id     int
	sc     *SharedCache
	space  *vmem.Space
	base   vmem.Addr
	fclock *cache.FrameClock

	mu       lockcheck.Mutex
	detached bool
	// Action tracking for failure cleanup [20]: latches currently held.
	heldLatches map[int]struct{}
	mapped      map[int]int // PVMA frame → pool slot
}

// Attach registers a new process: it reserves nframes PVMA frames, all
// access-protected and unmapped.
func (sc *SharedCache) Attach() (*Process, error) {
	space := vmem.New()
	base, err := space.Reserve(sc.nframes)
	if err != nil {
		return nil, err
	}
	p := &Process{
		sc:          sc,
		space:       space,
		base:        base,
		heldLatches: make(map[int]struct{}),
		mapped:      make(map[int]int),
	}
	p.mu.Init("Process.mu", rankProcessMu)
	p.fclock = cache.NewFrameClock(sc.pool, sc.nframes, func(frame, slot int) {
		// Level-1 invalidation revokes this process' access.
		_ = space.Unmap(base + vmem.Addr(frame*vmem.FrameSize))
		p.mu.Lock()
		delete(p.mapped, frame)
		p.mu.Unlock()
	})
	space.SetHandler(p.handleFault)
	sc.mu.Lock()
	sc.nextProc++
	p.id = sc.nextProc
	sc.procs[p.id] = p
	sc.mu.Unlock()
	return p, nil
}

// AddrOf translates a shared reference to this process' address — the
// shm_ref<T> conversion.
func (p *Process) AddrOf(r Ref) vmem.Addr {
	if r == NilRef {
		return vmem.NilAddr
	}
	return p.base + vmem.Addr(r)
}

// handleFault resolves PVMA faults: an unmapped-but-assigned frame is
// re-acquired through the SMT; a protected frame gets its second chance.
func (p *Process) handleFault(f vmem.Fault) error {
	frame := int(f.Frame - p.base.Frame())
	if frame < 0 || frame >= p.sc.nframes {
		return vmem.ErrUnreserved
	}
	switch f.Kind {
	case vmem.FaultNoBacking:
		// Not under a slot latch: re-mapping waits on slot latches (the fill
		// in acquireSlot), maybe the one this process holds. The level-1 clock
		// took the frame after Access; the caller Accesses again outside it.
		p.mu.Lock()
		latched := len(p.heldLatches) > 0
		p.mu.Unlock()
		if latched {
			return ErrNotMapped
		}
		p.sc.mu.Lock()
		id := p.sc.smt[frame]
		assigned := p.sc.assigned[frame] && frame != 0
		p.sc.mu.Unlock()
		if !assigned {
			return ErrStaleFrame
		}
		_, err := p.ensureMapped(id)
		return err
	case vmem.FaultProtRead, vmem.FaultProtWrite:
		// Second chance: the frame was demoted by the level-1 clock.
		if err := p.fclock.Touch(frame); err != nil {
			return ErrStaleFrame
		}
		return p.space.Protect(vmem.FrameAddr(f.Frame), 1, vmem.ProtReadWrite)
	default:
		return fmt.Errorf("shm: unhandled fault %v", f.Kind)
	}
}

// ensureMapped makes page id accessible in this process and returns its
// SVMA frame.
func (p *Process) ensureMapped(id page.ID) (int, error) {
	p.mu.Lock()
	if p.detached {
		p.mu.Unlock()
		return 0, ErrDetached
	}
	p.mu.Unlock()

	pin, err := p.sc.acquireSlot(id)
	if err != nil {
		return 0, err
	}
	defer pin.Release()
	slot := pin.Slot()
	// The SMT entry is taken under the pin: a pinned page is not evicted, so
	// its frame cannot be released between here and the mapping below.
	p.sc.mu.Lock()
	frame, err := p.sc.assignFrameLocked(id)
	p.sc.mu.Unlock()
	if err != nil {
		return 0, err
	}

	p.mu.Lock()
	cur, have := p.mapped[frame]
	p.mu.Unlock()
	if have && cur == slot {
		// Already mapped; make sure it is accessible (may be demoted).
		_ = p.fclock.Touch(frame)
		_ = p.space.Protect(p.base+vmem.Addr(frame*vmem.FrameSize), 1, vmem.ProtReadWrite)
		return frame, nil
	}
	if err := p.fclock.MapFrame(frame, slot); err != nil {
		return 0, err
	}
	addr := p.base + vmem.Addr(frame*vmem.FrameSize)
	if err := p.space.Remap(addr, p.sc.pool.SlotData(slot), vmem.ProtReadWrite); err != nil {
		return 0, err
	}
	p.mu.Lock()
	p.mapped[frame] = slot
	p.mu.Unlock()
	return frame, nil
}

// Access makes page id accessible and returns the shared reference to its
// first byte. This is the Fig. 4 walkthrough: SMT assignment, cache fill,
// PVMA mapping.
func (p *Process) Access(id page.ID) (Ref, error) {
	frame, err := p.ensureMapped(id)
	if err != nil {
		return NilRef, err
	}
	return MakeRef(frame, 0), nil
}

// Read copies n bytes at shared reference r; faults re-establish mappings
// transparently.
func (p *Process) Read(r Ref, buf []byte) error {
	p.mu.Lock()
	if p.detached {
		p.mu.Unlock()
		return ErrDetached
	}
	p.mu.Unlock()
	return p.space.ReadAt(p.AddrOf(r), buf)
}

// Write copies buf to shared reference r and marks the slot dirty.
func (p *Process) Write(r Ref, buf []byte) error {
	p.mu.Lock()
	if p.detached {
		p.mu.Unlock()
		return ErrDetached
	}
	p.mu.Unlock()
	if err := p.space.WriteAt(p.AddrOf(r), buf); err != nil {
		return err
	}
	if slot := p.fclock.SlotOf(r.FrameOf()); slot >= 0 {
		_ = p.sc.pool.MarkDirty(slot)
	}
	return nil
}

// WithLatch runs fn holding the latch of the slot behind shared frame
// r.FrameOf() — the atomic read/write primitive of §4.1.2.
func (p *Process) WithLatch(r Ref, fn func() error) error {
	slot := p.fclock.SlotOf(r.FrameOf())
	if slot < 0 {
		return ErrNotMapped
	}
	p.sc.slotLatch[slot].Lock()
	p.mu.Lock()
	p.heldLatches[slot] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.heldLatches, slot)
		p.mu.Unlock()
		p.sc.slotLatch[slot].Unlock()
	}()
	return fn()
}

// Detach cleanly releases the process' frames and counters.
func (p *Process) Detach() {
	p.mu.Lock()
	if p.detached {
		p.mu.Unlock()
		return
	}
	p.detached = true
	p.mu.Unlock()
	p.fclock.Release()
	p.sc.mu.Lock()
	delete(p.sc.procs, p.id)
	p.sc.mu.Unlock()
}

// Crash simulates abrupt process failure; the shared cache's cleanup code
// releases whatever the process held (latches, slot counters), as in [20].
func (p *Process) Crash() {
	p.mu.Lock()
	if p.detached {
		p.mu.Unlock()
		return
	}
	p.detached = true
	held := make([]int, 0, len(p.heldLatches))
	for s := range p.heldLatches {
		held = append(held, s)
	}
	p.heldLatches = make(map[int]struct{})
	p.mu.Unlock()
	// Cleanup performed by the surviving system using the action log.
	for _, s := range held {
		p.sc.slotLatch[s].Unlock()
	}
	p.fclock.Release()
	p.sc.mu.Lock()
	delete(p.sc.procs, p.id)
	p.sc.mu.Unlock()
}
