package swizzle

import (
	"errors"
	"testing"

	"bess/internal/page"
	"bess/internal/segment"
	"bess/internal/vmem"
)

func TestSegIDString(t *testing.T) {
	if (SegID{Area: 3, Start: 99}).String() != "3:99" {
		t.Fatal("SegID string")
	}
}

func TestDropSegKeepsOnlyTheReservation(t *testing.T) {
	f, reg, idA, _ := buildGraph(t)
	m := NewMapper(vmem.New(), f, reg)
	addr, _ := m.AddrOfSlot(idA, 0)
	obj, _ := m.Deref(addr)
	if _, err := obj.RefField(0); err != nil {
		t.Fatal(err)
	}
	before := m.Space().Snapshot()
	if before.ReservedFrames == 0 {
		t.Fatal("nothing reserved")
	}
	if err := m.DropSeg(idA); err != nil {
		t.Fatal(err)
	}
	// Nothing of the copy is left mapped, and it is not a cached copy.
	if after := m.Space().Snapshot(); after.MappedFrames != 0 {
		t.Fatalf("%d frames still mapped after drop", after.MappedFrames)
	}
	if len(m.CachedSegs()) != 0 || len(m.MappedDataRanges()) != 0 {
		t.Fatalf("dropped segment still listed: %v %v", m.CachedSegs(), m.MappedDataRanges())
	}
	// Dropping again is a no-op.
	if err := m.DropSeg(idA); err != nil {
		t.Fatal(err)
	}
	// The old address is the segment's address still, and reloads fresh state.
	addr2, err := m.AddrOfSlot(idA, 0)
	if err != nil || addr2 != addr {
		t.Fatalf("address of the slot after drop = %#x, %v; want %#x", uint64(addr2), err, uint64(addr))
	}
	fetches := f.slottedFetches
	if _, err := m.Deref(addr); err != nil {
		t.Fatal(err)
	}
	if f.slottedFetches != fetches+1 {
		t.Fatal("deref after drop did not refetch the slotted part")
	}
}

func TestDropSegWithLargeObjects(t *testing.T) {
	reg := segment.NewRegistry()
	id := SegID{Area: 1, Start: 10}
	s := segment.New(1, 1, 1, 1, 100)
	s.EnsureOverflow(1)
	content := make([]byte, 10000)
	slot, _ := s.CreateDescriptor(segment.KindLarge, 0, uint32(len(content)), []byte("loc"))
	f := newMemFetcher()
	f.add(id, s)
	f.large[id] = map[int][]byte{slot: content}
	m := NewMapper(vmem.New(), f, reg)
	addr, _ := m.AddrOfSlot(id, slot)
	obj, _ := m.Deref(addr)
	if err := obj.Read(0, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if err := m.DropSeg(id); err != nil {
		t.Fatal(err)
	}
	snap := m.Space().Snapshot()
	if snap.ReservedFrames != 1 || snap.MappedFrames != 0 {
		t.Fatalf("after drop: %d frames reserved, %d mapped; only the slotted reservation (1 page) remains", snap.ReservedFrames, snap.MappedFrames)
	}
}

// TestFailedSlottedLoadUnwinds: a wave-2 load that fails after its fetch — a
// large object whose descriptor lies past the overflow section, refused once
// the slotted pages are mapped and the data range reserved — leaves the
// segment in wave 1. The space holds what it held before, so a retry fetches
// again and fails the same way, not on a frame the first attempt mapped.
func TestFailedSlottedLoadUnwinds(t *testing.T) {
	id := SegID{Area: 1, Start: 10}
	s := segment.New(1, 1, 2, 1, 100)
	s.EnsureOverflow(1)
	if _, err := s.AllocSlot(segment.KindLarge, 0, 10000, page.Size); err != nil {
		t.Fatal(err)
	}
	f := newMemFetcher()
	f.add(id, s)
	m := NewMapper(vmem.New(), f, segment.NewRegistry())
	if _, err := m.ReserveSeg(id); err != nil {
		t.Fatal(err)
	}
	before := m.Space().Snapshot()
	for try := 1; try <= 2; try++ {
		if err := m.EnsureLoaded(id); !errors.Is(err, segment.ErrOverflowOff) {
			t.Fatalf("load %d: %v, want the descriptor's %v", try, err, segment.ErrOverflowOff)
		}
		if st := m.Space().Snapshot(); st.ReservedFrames != before.ReservedFrames || st.MappedFrames != before.MappedFrames {
			t.Fatalf("after failed load %d: %d frames reserved and %d mapped, %d and %d before it",
				try, st.ReservedFrames, st.MappedFrames, before.ReservedFrames, before.MappedFrames)
		}
		if _, ok := m.Seg(id); ok || len(m.CachedSegs()) != 0 || len(m.byFrame) != int(s.Hdr.SlottedPages) {
			t.Fatalf("after failed load %d: a copy is left (%v), %d frames known", try, m.CachedSegs(), len(m.byFrame))
		}
	}
	if f.slottedFetches != 2 {
		t.Fatalf("%d slotted fetches for two loads", f.slottedFetches)
	}
}

func TestCachedSegs(t *testing.T) {
	f, reg, idA, idB := buildGraph(t)
	m := NewMapper(vmem.New(), f, reg)
	if len(m.CachedSegs()) != 0 {
		t.Fatal("fresh mapper has cached segs")
	}
	// A reservation is not a copy; a loaded slotted part is.
	m.ReserveSeg(idA)
	m.ReserveSeg(idB)
	if len(m.CachedSegs()) != 0 {
		t.Fatalf("cached = %v with nothing loaded", m.CachedSegs())
	}
	if err := m.EnsureLoaded(idA); err != nil {
		t.Fatal(err)
	}
	if got := m.CachedSegs(); len(got) != 1 || got[0] != idA {
		t.Fatalf("cached = %v, want [%v]", got, idA)
	}
}

func TestEnsureLoadedAndData(t *testing.T) {
	f, reg, idA, _ := buildGraph(t)
	m := NewMapper(vmem.New(), f, reg)
	if err := m.EnsureLoaded(idA); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Seg(idA); !ok {
		t.Fatal("not loaded")
	}
	if err := m.EnsureLoaded(idA); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := m.EnsureData(idA); err != nil {
		t.Fatal(err)
	}
	if err := m.EnsureData(idA); err != nil {
		t.Fatal(err)
	}
	if f.dataFetches != 1 {
		t.Fatalf("data fetched %d times", f.dataFetches)
	}
}

// TestUnswizzledDataUnmapped: no data mapped is no data to ship, not an error;
// a reference that cannot be unswizzled is one.
func TestUnswizzledDataUnmapped(t *testing.T) {
	f, reg, idA, _ := buildGraph(t)
	m := NewMapper(vmem.New(), f, reg)
	// Not loaded at all.
	if data, err := m.UnswizzledData(idA); data != nil || err != nil {
		t.Fatalf("unloaded: %d bytes, %v", len(data), err)
	}
	// Slotted loaded but data not mapped.
	if err := m.EnsureLoaded(idA); err != nil {
		t.Fatal(err)
	}
	if data, err := m.UnswizzledData(idA); data != nil || err != nil {
		t.Fatalf("no data: %d bytes, %v", len(data), err)
	}
	// Mapped, with a reference to an address nothing ever had.
	addr, _ := m.AddrOfSlot(idA, 0)
	grantWrites(m)
	obj, err := m.Deref(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.SetRefField(0, vmem.FrameAddr(1<<40)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.UnswizzledData(idA); !errors.Is(err, ErrUnknownAddr) {
		t.Fatalf("reference to nowhere: %v", err)
	}
}

// TestUnswizzledDataLendsRefFree: with no live object of a type that has a
// reference field there is nothing to convert, and the live section itself
// is what a commit ships.
func TestUnswizzledDataLendsRefFree(t *testing.T) {
	reg := segment.NewRegistry()
	td, err := reg.Register(segment.TypeDesc{Name: "Blob", Size: 0})
	if err != nil {
		t.Fatal(err)
	}
	id := SegID{Area: 1, Start: 10}
	seg := segment.New(1, 1, 2, id.Area, 100)
	if _, err := seg.CreateObject(td.ID, []byte("no references here")); err != nil {
		t.Fatal(err)
	}
	f := newMemFetcher()
	f.add(id, seg)
	m := NewMapper(vmem.New(), f, reg)
	addr, _ := m.AddrOfSlot(id, 0)
	obj, err := m.Deref(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Read(0, make([]byte, 4)); err != nil { // maps the data
		t.Fatal(err)
	}
	data, err := m.UnswizzledData(id)
	if err != nil {
		t.Fatal(err)
	}
	if live, _ := m.Seg(id); &data[0] != &live.Data[0] {
		t.Fatal("UnswizzledData copied a section with nothing to unswizzle")
	}
}

func TestTrustedSlotUpdateErrors(t *testing.T) {
	f, reg, idA, _ := buildGraph(t)
	m := NewMapper(vmem.New(), f, reg)
	// Unloaded segment.
	if err := m.TrustedSlotUpdate(idA, func(*segment.Seg) error { return nil }); !errors.Is(err, ErrUnknownAddr) {
		t.Fatalf("unloaded: %v", err)
	}
	m.EnsureLoaded(idA)
	boom := errors.New("boom")
	if err := m.TrustedSlotUpdate(idA, func(*segment.Seg) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("fn error: %v", err)
	}
	// Protection restored after the failed update.
	addr, _ := m.AddrOfSlot(idA, 0)
	if err := m.Space().WriteAt(addr, []byte{1}); !errors.Is(err, vmem.ErrViolation) {
		t.Fatalf("slotted writable after failed trusted update: %v", err)
	}
}

func TestRelocateAndEvictErrors(t *testing.T) {
	f, reg, idA, _ := buildGraph(t)
	m := NewMapper(vmem.New(), f, reg)
	if err := m.RelocateData(idA); !errors.Is(err, ErrUnknownAddr) {
		t.Fatalf("relocate unloaded: %v", err)
	}
	m.EnsureLoaded(idA)
	// Relocate without data mapped (state stays slotted).
	seg, _ := m.Seg(idA)
	seg.MoveData(2, 500)
	if err := m.RelocateData(idA); err != nil {
		t.Fatal(err)
	}
	if m.bySeg[idA].dataBase == vmem.NilAddr {
		t.Fatal("data base missing after relocate")
	}
}

func TestStatsProgression(t *testing.T) {
	f, reg, idA, _ := buildGraph(t)
	m := NewMapper(vmem.New(), f, reg)
	addr, _ := m.AddrOfSlot(idA, 0)
	obj, _ := m.Deref(addr)
	obj.RefField(0)
	st := m.Stats()
	if st.Wave1Reservations == 0 || st.Wave2SlottedLoads == 0 || st.Wave3DataLoads == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.DPFixups == 0 || st.RefsSwizzled == 0 {
		t.Fatalf("stats = %+v", st)
	}
}
