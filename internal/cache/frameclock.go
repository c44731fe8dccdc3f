package cache

import "sync"

// FrameState is the state of one virtual frame in a process (paper §4.2).
type FrameState uint8

// Frame states: invalid frames are access-protected and correspond to no
// cache slot; protected frames are access-protected but still mapped to a
// slot; accessible frames can be touched without a violation.
const (
	FrameInvalid FrameState = iota
	FrameProtected
	FrameAccessible
)

// String names the frame state.
func (s FrameState) String() string {
	switch s {
	case FrameInvalid:
		return "invalid"
	case FrameProtected:
		return "protected"
	case FrameAccessible:
		return "accessible"
	default:
		return "frame-state?"
	}
}

// OnInvalidate is called when the level-1 clock invalidates a frame, so the
// owner can revoke the process' access (unmap the PVMA frame).
type OnInvalidate func(frame int, slot int)

// FrameClock is the per-process level-1 clock over the process' virtual
// frames. In copy-on-access mode it is the whole replacement algorithm (a
// protected frame's slot is the victim); in shared-memory mode it only
// demotes frames and decrements slot counters, and the pool's level-2 clock
// picks victims among counter-zero slots.
type FrameClock struct {
	mu     sync.Mutex
	pool   *Pool
	states []FrameState
	slot   []int // frame → pool slot (valid when state != FrameInvalid)
	hand   int
	onInv  OnInvalidate
}

// NewFrameClock creates a clock over nframes process frames tied to pool.
func NewFrameClock(pool *Pool, nframes int, onInv OnInvalidate) *FrameClock {
	fc := &FrameClock{
		pool:   pool,
		states: make([]FrameState, nframes),
		slot:   make([]int, nframes),
		onInv:  onInv,
	}
	for i := range fc.slot {
		fc.slot[i] = -1
	}
	return fc
}

// State returns frame f's state.
func (fc *FrameClock) State(f int) FrameState {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if f < 0 || f >= len(fc.states) {
		return FrameInvalid
	}
	return fc.states[f]
}

// SlotOf returns the pool slot frame f maps, or -1.
func (fc *FrameClock) SlotOf(f int) int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if f < 0 || f >= len(fc.slot) {
		return -1
	}
	return fc.slot[f]
}

// MapFrame records that this process mapped frame f to pool slot s and can
// access it: the frame becomes accessible and the slot counter rises.
func (fc *FrameClock) MapFrame(f, s int) error {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if f < 0 || f >= len(fc.states) {
		return ErrBadSlot
	}
	if fc.states[f] != FrameInvalid {
		// Remapping an in-use frame: release the old slot first.
		if err := fc.pool.DecCounter(fc.slot[f]); err != nil {
			return err
		}
	}
	if err := fc.pool.IncCounter(s); err != nil {
		return err
	}
	fc.states[f] = FrameAccessible
	fc.slot[f] = s
	return nil
}

// Touch restores accessibility after a protection fault on a protected
// frame (the process re-gains access without re-mapping).
func (fc *FrameClock) Touch(f int) error {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if f < 0 || f >= len(fc.states) || fc.states[f] == FrameInvalid {
		return ErrBadSlot
	}
	fc.states[f] = FrameAccessible
	return nil
}

// SweepOne advances the hand one step: accessible frames are demoted to
// protected (second chance); a protected frame is invalidated — its slot
// counter drops and the owner unmaps it. Invalid frames are skipped.
// Returns the invalidated (frame, slot) or (-1, -1) if this step only
// demoted/skipped.
func (fc *FrameClock) SweepOne() (frame, slot int) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	n := len(fc.states)
	if n == 0 {
		return -1, -1
	}
	f := fc.hand
	fc.hand = (fc.hand + 1) % n
	switch fc.states[f] {
	case FrameInvalid:
		return -1, -1
	case FrameAccessible:
		fc.states[f] = FrameProtected
		return -1, -1
	case FrameProtected:
		s := fc.slot[f]
		fc.states[f] = FrameInvalid
		fc.slot[f] = -1
		// Revoke the process' access BEFORE the counter drops: once the
		// counter hits zero the slot is replaceable, so no mapping may
		// remain.
		if fc.onInv != nil {
			fc.onInv(f, s)
		}
		_ = fc.pool.DecCounter(s)
		return f, s
	}
	return -1, -1
}

// Release invalidates every frame this process holds (transaction end in
// per-transaction caching, or process exit cleanup).
func (fc *FrameClock) Release() { fc.invalidate(-1) }

// InvalidateSlot invalidates every frame of this process that maps pool slot
// s: the process's next access to one of them faults.
func (fc *FrameClock) InvalidateSlot(s int) { fc.invalidate(s) }

// invalidate invalidates the frames that map slot s, every frame for s < 0.
func (fc *FrameClock) invalidate(s int) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	for f := range fc.states {
		if slot := fc.slot[f]; fc.states[f] != FrameInvalid && (s < 0 || slot == s) {
			fc.states[f] = FrameInvalid
			fc.slot[f] = -1
			if fc.onInv != nil {
				fc.onInv(f, slot)
			}
			_ = fc.pool.DecCounter(slot)
		}
	}
}

// Pressure runs sweep steps until it has invalidated want frames or swept
// two full revolutions. Returns how many frames were invalidated. The shm
// layer calls this on the resident processes when the pool reports
// ErrNoVictim.
func (fc *FrameClock) Pressure(want int) int {
	done := 0
	limit := 2 * len(fc.states)
	for step := 0; step < limit && done < want; step++ {
		if f, _ := fc.SweepOne(); f >= 0 {
			done++
		}
	}
	return done
}
