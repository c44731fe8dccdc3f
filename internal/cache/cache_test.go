package cache

import (
	"runtime"
	"testing"
	"time"

	"bess/internal/page"
)

func pid(n int) page.ID { return page.ID{Area: 1, Page: page.No(n)} }

// hold acquires page n and returns the pin, a miss filled with nothing new.
func hold(t *testing.T, p *Pool, n int) *Pin {
	t.Helper()
	h, err := p.Acquire(pid(n))
	if err != nil {
		t.Fatalf("acquire %d: %v", n, err)
	}
	if !h.Hit() {
		h.Fill(nil)
	}
	return h
}

// touch brings page n in and lets it go again: its slot, and the page it
// replaced.
func touch(t *testing.T, p *Pool, n int) (int, *Evicted) {
	t.Helper()
	h := hold(t, p, n)
	defer h.Release()
	return h.Slot(), h.Victim()
}

func TestAcquireHitMiss(t *testing.T) {
	p := NewPool(4)
	h1, err := p.Acquire(pid(1))
	if err != nil || h1.Hit() || h1.Victim() != nil {
		t.Fatalf("first acquire: %+v %v", h1, err)
	}
	h1.Fill([]byte("page-one"))
	s1 := h1.Slot()
	h1.Release()
	h2, err := p.Acquire(pid(1))
	if err != nil || !h2.Hit() || h2.Slot() != s1 {
		t.Fatalf("second acquire: %+v %v", h2, err)
	}
	if string(p.SlotData(s1)[:8]) != "page-one" {
		t.Fatal("data lost")
	}
	h2.Release()
	st := p.Snapshot()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	p := NewPool(2)
	a := hold(t, p, 1)
	copy(p.SlotData(a.Slot()), []byte("dirty-bytes"))
	p.MarkDirty(a.Slot())
	a.Release()
	touch(t, p, 2)
	// Third page evicts one of the two; continue until pid(1) goes.
	var ev *Evicted
	for n := 3; n < 6; n++ {
		_, e := touch(t, p, n)
		if e != nil && e.ID == pid(1) {
			ev = e
			break
		}
	}
	if ev == nil {
		t.Fatal("dirty page never evicted")
	}
	if !ev.Dirty || string(ev.Data[:11]) != "dirty-bytes" {
		t.Fatalf("evicted = %+v", ev)
	}
}

func TestPinPreventsEviction(t *testing.T) {
	p := NewPool(2)
	hold(t, p, 1) // stays pinned
	touch(t, p, 2)
	if _, ev := touch(t, p, 3); ev == nil || ev.ID != pid(2) {
		t.Fatalf("evicted %+v, want pid(2)", ev)
	}
	// 3 was let go, so 4 can replace it; 1 is still pinned.
	if _, ev := touch(t, p, 4); ev == nil || ev.ID != pid(3) {
		t.Fatalf("evicted %+v, want pid(3)", ev)
	}
}

func TestNoVictimWhenAllPinned(t *testing.T) {
	p := NewPool(2)
	hold(t, p, 1)
	hold(t, p, 2)
	if _, err := p.Acquire(pid(3)); err != ErrNoVictim {
		t.Fatalf("got %v", err)
	}
}

func TestCounterBlocksReplacement(t *testing.T) {
	p := NewPool(2)
	a, _ := touch(t, p, 1)
	p.IncCounter(a) // some process can access this slot
	b, _ := touch(t, p, 2)
	p.IncCounter(b)
	if _, err := p.Acquire(pid(3)); err != ErrNoVictim {
		t.Fatalf("counters ignored: %v", err)
	}
	p.DecCounter(a)
	if _, ev := touch(t, p, 3); ev == nil || ev.ID != pid(1) {
		t.Fatalf("evicted %+v", ev)
	}
}

func TestMarkCleanAndDirtyPages(t *testing.T) {
	p := NewPool(4)
	a := hold(t, p, 1).Slot()
	p.MarkDirty(a)
	if len(p.DirtyPages()) != 1 {
		t.Fatal("dirty list")
	}
	p.MarkClean(a)
	if len(p.DirtyPages()) != 0 {
		t.Fatal("clean list")
	}
	if err := p.MarkDirty(99); err != ErrBadSlot {
		t.Fatal("bad slot accepted")
	}
}

func TestFrameClockSecondChance(t *testing.T) {
	p := NewPool(4)
	var unmapped []int
	fc := NewFrameClock(p, 3, func(frame, slot int) { unmapped = append(unmapped, frame) })

	s0, _ := touch(t, p, 1)
	if err := fc.MapFrame(0, s0); err != nil {
		t.Fatal(err)
	}
	if fc.State(0) != FrameAccessible {
		t.Fatalf("state = %v", fc.State(0))
	}
	sl, _ := p.Slot(s0)
	if sl.Counter != 1 {
		t.Fatalf("counter = %d", sl.Counter)
	}
	// First sweep demotes; second invalidates.
	if f, _ := fc.SweepOne(); f != -1 {
		t.Fatal("first sweep should demote, not invalidate")
	}
	if fc.State(0) != FrameProtected {
		t.Fatalf("state = %v", fc.State(0))
	}
	// Sweep wraps the other (invalid) frames.
	fc.SweepOne()
	fc.SweepOne()
	f, s := fc.SweepOne()
	if f != 0 || s != s0 {
		t.Fatalf("invalidate = %d,%d", f, s)
	}
	sl, _ = p.Slot(s0)
	if sl.Counter != 0 {
		t.Fatalf("counter = %d", sl.Counter)
	}
	if len(unmapped) != 1 || unmapped[0] != 0 {
		t.Fatalf("unmapped = %v", unmapped)
	}
	if st := fc.State(0); st != FrameInvalid {
		t.Fatalf("frame 0 is %v after its invalidation", st)
	}
}

func TestFrameClockTouchGivesSecondChance(t *testing.T) {
	p := NewPool(2)
	fc := NewFrameClock(p, 1, nil)
	s0, _ := touch(t, p, 1)
	fc.MapFrame(0, s0)
	fc.SweepOne() // demote
	if err := fc.Touch(0); err != nil {
		t.Fatal(err)
	}
	if fc.State(0) != FrameAccessible {
		t.Fatal("touch did not restore access")
	}
	fc.SweepOne() // demotes again rather than invalidating
	if fc.State(0) != FrameProtected {
		t.Fatal("second chance not honored")
	}
}

func TestFrameClockRemap(t *testing.T) {
	p := NewPool(4)
	fc := NewFrameClock(p, 2, nil)
	s0, _ := touch(t, p, 1)
	s1, _ := touch(t, p, 2)
	fc.MapFrame(0, s0)
	fc.MapFrame(0, s1) // remap frame 0 to another slot
	a, _ := p.Slot(s0)
	b, _ := p.Slot(s1)
	if a.Counter != 0 || b.Counter != 1 {
		t.Fatalf("counters = %d/%d", a.Counter, b.Counter)
	}
	if fc.SlotOf(0) != s1 {
		t.Fatal("slot mapping wrong")
	}
	if fc.SlotOf(5) != -1 {
		t.Fatal("out of range SlotOf")
	}
}

func TestFrameClockRelease(t *testing.T) {
	p := NewPool(4)
	fc := NewFrameClock(p, 3, nil)
	for i := 0; i < 3; i++ {
		s, _ := touch(t, p, i+1)
		fc.MapFrame(i, s)
	}
	fc.Release()
	for i := 0; i < 3; i++ {
		if fc.State(i) != FrameInvalid {
			t.Fatalf("frame %d not invalid", i)
		}
	}
	// All counters back to zero → everything replaceable.
	for n := 10; n < 14; n++ {
		touch(t, p, n)
	}
}

func TestTwoLevelPressure(t *testing.T) {
	// Pool full of counter-held slots; Pressure on the process clocks frees
	// enough for a new page — the §4.2 two-level interplay.
	p := NewPool(3)
	fc1 := NewFrameClock(p, 3, nil)
	fc2 := NewFrameClock(p, 3, nil)
	for i := 0; i < 3; i++ {
		s, _ := touch(t, p, i+1)
		fc1.MapFrame(i, s)
		if i < 2 {
			fc2.MapFrame(i, s) // process 2 shares two of the slots
		}
	}
	if _, err := p.Acquire(pid(9)); err != ErrNoVictim {
		t.Fatalf("expected no victim, got %v", err)
	}
	// Level 1 pressure on both processes until a slot frees.
	freed := fc1.Pressure(3)
	if freed == 0 {
		t.Fatal("pressure freed nothing")
	}
	fc2.Pressure(3)
	if _, ev := touch(t, p, 9); ev == nil {
		t.Fatal("no eviction")
	}
}

func TestStateStrings(t *testing.T) {
	if FrameInvalid.String() != "invalid" || FrameProtected.String() != "protected" ||
		FrameAccessible.String() != "accessible" {
		t.Fatal("frame state strings")
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// A released pin is spent: it can neither unpin again — the slot may be
// someone else's by then — nor name its slot.
func TestPinSpentByRelease(t *testing.T) {
	p := NewPool(1)
	h := hold(t, p, 1)
	slot := h.Slot()
	h.Release()
	other := hold(t, p, 2) // same slot, someone else's pin now
	mustPanic(t, "second Release", h.Release)
	mustPanic(t, "Slot after Release", func() { h.Slot() })
	mustPanic(t, "Fill after Release", func() { h.Fill(nil) })
	if sl, _ := p.Slot(slot); sl.Pins != 1 || sl.ID != pid(2) {
		t.Fatalf("spent pin touched the slot: %+v", sl)
	}
	mustPanic(t, "Fill of a hit", func() { other.Fill(nil) })
	other.Release()
}

// A claim given up before Fill puts the slot back as it was: the victim with
// its bytes and its dirty flag, and nothing cached under the new id.
func TestUnfilledClaimRestoresVictim(t *testing.T) {
	p := NewPool(1)
	h := hold(t, p, 1)
	copy(p.SlotData(h.Slot()), "modified")
	p.MarkDirty(h.Slot())
	h.Release()

	c, err := p.Acquire(pid(2))
	if err != nil || c.Hit() {
		t.Fatalf("claim: %+v %v", c, err)
	}
	if ev := c.Victim(); ev == nil || ev.ID != pid(1) || !ev.Dirty || string(ev.Data[:8]) != "modified" {
		t.Fatalf("victim = %+v", ev)
	}
	if _, ok := p.Peek(pid(2)); ok {
		t.Fatal("Peek finds page 2 in a slot that still holds page 1's bytes")
	}
	if i, ok := p.Peek(pid(1)); !ok || i != c.Slot() {
		t.Fatal("Peek lost page 1 while its bytes are still in the slot")
	}
	c.Release() // the write-back or the fetch failed
	if _, ok := p.Peek(pid(2)); ok {
		t.Fatal("page 2 cached by a claim that was never filled")
	}
	again, err := p.Acquire(pid(1))
	if err != nil || !again.Hit() {
		t.Fatalf("victim gone after a failed claim: %+v %v", again, err)
	}
	if sl, _ := p.Slot(again.Slot()); !sl.Dirty || string(p.SlotData(again.Slot())[:8]) != "modified" {
		t.Fatalf("victim came back changed: %+v %q", sl, p.SlotData(again.Slot())[:8])
	}
	again.Release()
	if st := p.Snapshot(); st.Evictions != 0 {
		t.Fatalf("evictions = %d for a page that never left", st.Evictions)
	}
}

// A claimed slot is a hit for nobody: an Acquire of the incoming page or of
// the victim waits for the claim to settle, then sees the page's own bytes.
func TestClaimedSlotIsNotAHit(t *testing.T) {
	for _, fill := range []bool{true, false} {
		p := NewPool(1)
		h := hold(t, p, 1)
		copy(p.SlotData(h.Slot()), "one")
		h.Release()
		c, err := p.Acquire(pid(2))
		if err != nil {
			t.Fatal(err)
		}
		type got struct {
			hit  bool
			data string
		}
		res := make(chan got, 2)
		for _, n := range []int{1, 2} {
			n := n
			go func() {
				w, err := p.Acquire(pid(n))
				for err == ErrNoVictim { // the other waiter's pin, for a moment
					runtime.Gosched()
					w, err = p.Acquire(pid(n))
				}
				if err != nil {
					t.Error(err)
					res <- got{}
					return
				}
				g := got{hit: w.Hit()}
				if w.Hit() {
					g.data = string(p.SlotData(w.Slot())[:3])
				}
				w.Release()
				res <- g
			}()
		}
		select {
		case g := <-res:
			t.Fatalf("fill=%v: an Acquire got past the claim: %+v", fill, g)
		case <-time.After(20 * time.Millisecond):
		}
		if fill {
			c.Fill([]byte("two"))
		}
		c.Release()
		// One waiter hits the page that ended up in the slot and reads that
		// page's bytes; the other finds its page gone and claims the slot.
		want := "one"
		if fill {
			want = "two"
		}
		for i := 0; i < 2; i++ {
			if g := <-res; g.hit && g.data != want {
				t.Fatalf("fill=%v: a waiter hit foreign bytes %q, want %q", fill, g.data, want)
			}
		}
	}
}
