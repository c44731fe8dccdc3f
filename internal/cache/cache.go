// Package cache implements the BeSS cache and its replacement machinery
// (paper §4.2).
//
// BeSS cannot run the textbook clock algorithm because, under the memory
// mapping architecture, the cache manager does not see which slots were
// accessed recently. Instead the clock is driven by virtual frame states:
// each frame is invalid (access-protected, no cache slot), protected
// (access-protected, has a slot), or accessible. The sweep converts
// accessible frames to protected and picks the slot behind a protected
// frame for replacement.
//
// In shared-memory mode a slot may be mapped by several processes, so the
// clock splits in two levels: level 1 is the per-process frame clock, which
// invalidates protected frames and decrements the per-slot reference
// counter; level 2 sweeps the cache slots and replaces one whose counter has
// dropped to zero.
package cache

import (
	"errors"
	"fmt"
	"sync"

	"bess/internal/lockcheck"
	"bess/internal/page"
)

// Errors returned by the cache layer.
var (
	ErrNoVictim = errors.New("cache: no replaceable slot (all pinned or referenced)")
	ErrBadSlot  = errors.New("cache: slot index out of range")
	ErrFull     = errors.New("cache: full")
)

// Slot is one cache slot's metadata.
type Slot struct {
	ID      page.ID
	Valid   bool
	Dirty   bool
	Pins    int
	Counter int // number of processes that can access this slot (§4.2)
	// Stale: the page was called back since the slot's bytes were filled
	// (Invalidate); they are to be brought up to date (Refresh) before
	// anyone reads them again.
	Stale bool

	// claimed: a Pin taken on a miss is replacing this slot's page. The slot
	// is a hit for nobody until the pin Fills it or lets it go.
	claimed bool
}

// Evicted describes a page leaving its slot so the caller can write back dirty
// data.
type Evicted struct {
	ID    page.ID
	Dirty bool
	Data  []byte // copy of the evicted bytes when dirty, nil otherwise
	Fill  []byte // copy of the image the slot was filled from when dirty
}

// Stats are cumulative pool counters.
type Stats struct {
	Hits, Misses, Evictions int64
	SweepSteps              int64 // level-2 clock hand movements
}

// RankPoolMu places Pool.mu in the lock hierarchy (internal/server/lockorder.go):
// a leaf, taken under a shared-memory slot latch when a fill or a flush
// hands a slot's bytes over, and holding nothing else itself.
const RankPoolMu lockcheck.Rank = 75

// Pool is the shared cache: a fixed array of page-size slots plus the
// level-2 clock. Safe for concurrent use.
type Pool struct {
	mu      lockcheck.Mutex
	settled *sync.Cond // on mu: a claimed slot was filled or given back
	// data is deliberately unguarded: SlotData hands out slices into the
	// arena and pin counts, not mu, keep concurrent users apart.
	data   []byte          // nslots * page.Size, one contiguous arena (Figure 3)
	fill   []byte          // each slot's page as it was filled or last refreshed: what its processes changed is the difference
	slots  []Slot          // guarded by mu
	lookup map[page.ID]int // guarded by mu
	hand   int             // guarded by mu
	stats  Stats           // guarded by mu
}

// NewPool creates a pool of nslots page frames.
func NewPool(nslots int) *Pool {
	if nslots < 1 {
		nslots = 1
	}
	p := &Pool{
		data:   make([]byte, nslots*page.Size),
		fill:   make([]byte, nslots*page.Size),
		slots:  make([]Slot, nslots),
		lookup: make(map[page.ID]int, nslots),
	}
	p.mu.Init("Pool.mu", RankPoolMu)
	p.settled = sync.NewCond(&p.mu)
	return p
}

// SlotData returns the backing bytes of slot i. The slice aliases the cache
// arena; processes map it into their address spaces.
func (p *Pool) SlotData(i int) []byte {
	return p.data[i*page.Size : (i+1)*page.Size]
}

// FillData returns the image slot i was filled from, or last refreshed to. It
// changes only under a pin, with the slot's bytes.
func (p *Pool) FillData(i int) []byte {
	return p.fill[i*page.Size : (i+1)*page.Size]
}

// Peek finds the slot holding id's bytes without counting a hit or a miss. A
// slot claimed for id does not hold them yet; the page it is replacing does
// until the Fill.
func (p *Pool) Peek(id page.ID) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.lookup[id]
	return i, ok && p.slots[i].Valid && p.slots[i].ID == id
}

// Slot returns a copy of slot i's metadata.
func (p *Pool) Slot(i int) (Slot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.slots) {
		return Slot{}, ErrBadSlot
	}
	return p.slots[i], nil
}

// Acquire pins a slot for id and returns the hold on it. On a hit the slot
// holds id's bytes. On a miss (Pin.Hit reports false) the level-2 clock has
// chosen a slot and the pin has claimed it: the caller writes Pin.Victim back
// if it is dirty, then either Fills the slot with id's bytes or Releases the
// pin, which puts the slot back as it was — victim, bytes and dirty flag.
// Until one of the two happens, an Acquire of id or of the victim by anyone
// else waits, so nobody sees a claimed slot's bytes under either name.
func (p *Pool) Acquire(id page.ID) (*Pin, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		i, ok := p.lookup[id]
		if !ok {
			break
		}
		if !p.slots[i].claimed {
			p.stats.Hits++
			p.slots[i].Pins++
			return &Pin{p: p, slot: i, hit: true}, nil
		}
		p.settled.Wait()
	}
	p.stats.Misses++
	i, err := p.victimLocked()
	if err != nil {
		return nil, err
	}
	s := &p.slots[i]
	h := &Pin{p: p, slot: i, id: id, claim: true}
	if s.Valid {
		h.victim = &Evicted{ID: s.ID, Dirty: s.Dirty}
		if s.Dirty {
			h.victim.Data = append([]byte(nil), p.SlotData(i)...)
			h.victim.Fill = append([]byte(nil), p.FillData(i)...)
		}
	}
	s.claimed, s.Pins = true, 1
	p.lookup[id] = i
	return h, nil
}

// victimLocked runs the level-2 clock: sweep slots, take one with counter
// zero and no pins — an empty one, or a page to replace. The page stays
// cached until the claim on its slot is filled.
func (p *Pool) victimLocked() (int, error) {
	p.mu.AssertHeld()
	n := len(p.slots)
	for step := 0; step < 2*n; step++ {
		i := p.hand
		p.hand = (p.hand + 1) % n
		p.stats.SweepSteps++
		if s := &p.slots[i]; s.Pins == 0 && s.Counter == 0 {
			return i, nil
		}
	}
	return 0, ErrNoVictim
}

// Pin is one hold on a pool slot: the slot is not replaced while the pin
// lives. Release ends it and spends the handle — releasing twice, or asking a
// released pin for its slot, is a bug in the caller and panics rather than
// touch a slot that may by then be someone else's. A Pin is used by one
// goroutine.
type Pin struct {
	p      *Pool
	slot   int
	hit    bool
	id     page.ID  // the page the slot is claimed for (miss only)
	victim *Evicted // the page the claim replaces, if any (miss only)
	claim  bool     // claimed on a miss and not yet filled
	spent  bool
}

func (h *Pin) live(op string) {
	if h.spent {
		panic("cache: " + op + " on a released pin")
	}
}

// Slot returns the index of the pinned slot.
func (h *Pin) Slot() int {
	h.live("Slot")
	return h.slot
}

// Hit reports whether the slot already held the page when it was acquired;
// false means the caller owes the pin a Fill or a Release.
func (h *Pin) Hit() bool { return h.hit }

// Victim returns the page a miss is about to replace, nil when the claimed
// slot was empty. Data is set when the page is dirty: write it back before
// Fill lets the page go.
func (h *Pin) Victim() *Evicted { return h.victim }

// Fill completes a miss: data becomes the slot's bytes, the victim leaves the
// cache, and the slot is a hit for the page from here on.
func (h *Pin) Fill(data []byte) {
	h.live("Fill")
	if !h.claim {
		panic("cache: Fill on a pin whose slot is already filled")
	}
	// Unlocked: nobody else can reach a claimed slot's bytes.
	copy(h.p.SlotData(h.slot), data)
	copy(h.p.FillData(h.slot), data)
	h.p.mu.Lock()
	if s := &h.p.slots[h.slot]; s.Valid {
		delete(h.p.lookup, s.ID)
		h.p.stats.Evictions++
	}
	h.p.slots[h.slot] = Slot{ID: h.id, Valid: true, Pins: 1}
	h.claim = false
	h.p.settled.Broadcast()
	h.p.mu.Unlock()
}

// Release ends the hold. Before Fill it also gives the claim up: the slot is
// again what it was — empty, or the victim with its bytes and dirty flag.
func (h *Pin) Release() {
	h.live("Release")
	h.spent = true
	h.p.mu.Lock()
	s := &h.p.slots[h.slot]
	s.Pins--
	if h.claim {
		delete(h.p.lookup, h.id)
		s.claimed = false
		h.p.settled.Broadcast()
	}
	h.p.mu.Unlock()
}

// Refresh makes data the bytes of slot i, and the image it was filled from:
// the slot is clean and current. The caller keeps the slot's page in it, and
// its users off its bytes (a shared-memory slot latch); the copy is made
// under mu, as a miss that takes the slot copies a dirty victim.
func (p *Pool) Refresh(i int, data []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	copy(p.SlotData(i), data)
	copy(p.FillData(i), data)
	s := &p.slots[i]
	s.Dirty, s.Stale = false, false
}

// Invalidate marks the slot that holds id's bytes stale (Slot.Stale) and
// returns it; ok is false if no slot holds them — a slot claimed for id does
// not yet.
func (p *Pool) Invalidate(id page.ID) (slot int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.lookup[id]
	if !ok || p.slots[i].claimed || !p.slots[i].Valid || p.slots[i].ID != id {
		return 0, false
	}
	p.slots[i].Stale = true
	return i, true
}

// MarkDirty flags slot i for write-back on eviction.
func (p *Pool) MarkDirty(i int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.slots) || !p.slots[i].Valid {
		return ErrBadSlot
	}
	p.slots[i].Dirty = true
	return nil
}

// MarkClean clears the dirty flag (after write-back).
func (p *Pool) MarkClean(i int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.slots) || !p.slots[i].Valid {
		return ErrBadSlot
	}
	p.slots[i].Dirty = false
	return nil
}

// IncCounter notes that one more process gained access to slot i (§4.2:
// "each process increments it when the process gains access to that slot").
func (p *Pool) IncCounter(i int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.slots) || !p.slots[i].Valid {
		return ErrBadSlot
	}
	p.slots[i].Counter++
	return nil
}

// DecCounter is called by a process' level-1 clock when it invalidates its
// frame for slot i.
func (p *Pool) DecCounter(i int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.slots) || p.slots[i].Counter == 0 {
		return ErrBadSlot
	}
	p.slots[i].Counter--
	return nil
}

// Snapshot returns cumulative statistics.
func (p *Pool) Snapshot() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// DirtyPages lists the ids of dirty slots (checkpoints, shutdown flush).
func (p *Pool) DirtyPages() []page.ID {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []page.ID
	for i := range p.slots {
		if p.slots[i].Valid && p.slots[i].Dirty {
			out = append(out, p.slots[i].ID)
		}
	}
	return out
}

// String summarizes the pool for diagnostics.
func (p *Pool) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	live := 0
	for i := range p.slots {
		if p.slots[i].Valid {
			live++
		}
	}
	return fmt.Sprintf("cache{slots=%d live=%d hits=%d misses=%d evictions=%d}",
		len(p.slots), live, p.stats.Hits, p.stats.Misses, p.stats.Evictions)
}
