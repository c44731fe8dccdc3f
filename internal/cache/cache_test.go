package cache

import (
	"testing"

	"bess/internal/page"
)

func pid(n int) page.ID { return page.ID{Area: 1, Page: page.No(n)} }

func TestAcquireHitMiss(t *testing.T) {
	p := NewPool(4)
	s1, hit, ev, err := p.Acquire(pid(1))
	if err != nil || hit || ev != nil {
		t.Fatalf("first acquire: %d %v %v %v", s1, hit, ev, err)
	}
	copy(p.SlotData(s1), []byte("page-one"))
	p.Unpin(s1)
	s2, hit, _, err := p.Acquire(pid(1))
	if err != nil || !hit || s2 != s1 {
		t.Fatalf("second acquire: %d %v %v", s2, hit, err)
	}
	if string(p.SlotData(s2)[:8]) != "page-one" {
		t.Fatal("data lost")
	}
	p.Unpin(s2)
	st := p.Snapshot()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	p := NewPool(2)
	a, _, _, _ := p.Acquire(pid(1))
	copy(p.SlotData(a), []byte("dirty-bytes"))
	p.MarkDirty(a)
	p.Unpin(a)
	b, _, _, _ := p.Acquire(pid(2))
	p.Unpin(b)
	// Third page evicts one of the two; continue until pid(1) goes.
	var ev *Evicted
	for n := 3; n < 6; n++ {
		s, _, e, err := p.Acquire(pid(n))
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(s)
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
	a, _, _, _ := p.Acquire(pid(1)) // stays pinned
	b, _, _, _ := p.Acquire(pid(2))
	p.Unpin(b)
	s, _, ev, err := p.Acquire(pid(3))
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil || ev.ID != pid(2) {
		t.Fatalf("evicted %+v, want pid(2)", ev)
	}
	p.Unpin(s)
	_ = a
	// Now both remaining are pinned (slot a) or just acquired (pinned).
	if _, _, _, err := p.Acquire(pid(4)); err != nil {
		t.Fatal(err) // s was unpinned, so 4 can replace 3
	}
}

func TestNoVictimWhenAllPinned(t *testing.T) {
	p := NewPool(2)
	p.Acquire(pid(1))
	p.Acquire(pid(2))
	if _, _, _, err := p.Acquire(pid(3)); err != ErrNoVictim {
		t.Fatalf("got %v", err)
	}
}

func TestCounterBlocksReplacement(t *testing.T) {
	p := NewPool(2)
	a, _, _, _ := p.Acquire(pid(1))
	p.Unpin(a)
	p.IncCounter(a) // some process can access this slot
	b, _, _, _ := p.Acquire(pid(2))
	p.Unpin(b)
	p.IncCounter(b)
	if _, _, _, err := p.Acquire(pid(3)); err != ErrNoVictim {
		t.Fatalf("counters ignored: %v", err)
	}
	p.DecCounter(a)
	s, _, ev, err := p.Acquire(pid(3))
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil || ev.ID != pid(1) {
		t.Fatalf("evicted %+v", ev)
	}
	p.Unpin(s)
}

func TestDropIfClean(t *testing.T) {
	p := NewPool(2)
	a, _, _, _ := p.Acquire(pid(1))
	p.Unpin(a)
	if !p.DropIfClean(pid(1)) {
		t.Fatal("clean drop refused")
	}
	if _, ok := p.Peek(pid(1)); ok {
		t.Fatal("page still cached")
	}
	b, _, _, _ := p.Acquire(pid(2))
	p.MarkDirty(b)
	p.Unpin(b)
	if p.DropIfClean(pid(2)) {
		t.Fatal("dirty drop allowed")
	}
	ev := p.Drop(pid(2))
	if ev == nil || !ev.Dirty {
		t.Fatalf("forced drop: %+v", ev)
	}
	if p.Drop(pid(99)) != nil {
		t.Fatal("drop of absent page returned eviction")
	}
	if !p.DropIfClean(pid(99)) {
		t.Fatal("absent DropIfClean should be true")
	}
}

func TestMarkCleanAndDirtyPages(t *testing.T) {
	p := NewPool(4)
	a, _, _, _ := p.Acquire(pid(1))
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

	s0, _, _, _ := p.Acquire(pid(1))
	p.Unpin(s0)
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
	d, inv := fc.Counters()
	if d != 1 || inv != 1 {
		t.Fatalf("counters = %d/%d", d, inv)
	}
}

func TestFrameClockTouchGivesSecondChance(t *testing.T) {
	p := NewPool(2)
	fc := NewFrameClock(p, 1, nil)
	s0, _, _, _ := p.Acquire(pid(1))
	p.Unpin(s0)
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
	s0, _, _, _ := p.Acquire(pid(1))
	p.Unpin(s0)
	s1, _, _, _ := p.Acquire(pid(2))
	p.Unpin(s1)
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
		s, _, _, _ := p.Acquire(pid(i + 1))
		p.Unpin(s)
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
		s, _, _, err := p.Acquire(pid(n))
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(s)
	}
}

func TestTwoLevelPressure(t *testing.T) {
	// Pool full of counter-held slots; Pressure on the process clocks frees
	// enough for a new page — the §4.2 two-level interplay.
	p := NewPool(3)
	fc1 := NewFrameClock(p, 3, nil)
	fc2 := NewFrameClock(p, 3, nil)
	for i := 0; i < 3; i++ {
		s, _, _, _ := p.Acquire(pid(i + 1))
		p.Unpin(s)
		fc1.MapFrame(i, s)
		if i < 2 {
			fc2.MapFrame(i, s) // process 2 shares two of the slots
		}
	}
	if _, _, _, err := p.Acquire(pid(9)); err != ErrNoVictim {
		t.Fatalf("expected no victim, got %v", err)
	}
	// Level 1 pressure on both processes until a slot frees.
	freed := fc1.Pressure(3)
	if freed == 0 {
		t.Fatal("pressure freed nothing")
	}
	fc2.Pressure(3)
	s, _, ev, err := p.Acquire(pid(9))
	if err != nil {
		t.Fatalf("after pressure: %v", err)
	}
	if ev == nil {
		t.Fatal("no eviction")
	}
	p.Unpin(s)
}

func TestStateStrings(t *testing.T) {
	if FrameInvalid.String() != "invalid" || FrameProtected.String() != "protected" ||
		FrameAccessible.String() != "accessible" {
		t.Fatal("frame state strings")
	}
}
