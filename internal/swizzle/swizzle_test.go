package swizzle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"bess/internal/page"
	"bess/internal/segment"
	"bess/internal/vmem"
)

// memFetcher is an in-memory database: a set of object segments addressable
// by SegID, serving decoded copies like a page server would.
type memFetcher struct {
	segs  map[SegID]*segment.Seg
	large map[SegID]map[int][]byte

	slottedFetches int
	dataFetches    int
	largeFetches   int
}

func newMemFetcher() *memFetcher {
	return &memFetcher{
		segs:  make(map[SegID]*segment.Seg),
		large: make(map[SegID]map[int][]byte),
	}
}

func (f *memFetcher) add(id SegID, s *segment.Seg) { f.segs[id] = s }

func (f *memFetcher) SlottedPages(id SegID) (int, error) {
	s, ok := f.segs[id]
	if !ok {
		return 0, errors.New("no such segment")
	}
	return int(s.Hdr.SlottedPages), nil
}

func (f *memFetcher) FetchSlotted(id SegID) (*segment.Seg, error) {
	s, ok := f.segs[id]
	if !ok {
		return nil, errors.New("no such segment")
	}
	f.slottedFetches++
	// Round-trip through the persistent encoding, like a disk read.
	dec, err := segment.DecodeSlotted(s.EncodeSlotted())
	if err != nil {
		return nil, err
	}
	dec.Overflow = append([]byte(nil), s.Overflow...)
	return dec, nil
}

func (f *memFetcher) FetchData(id SegID, _ *segment.Seg) ([]byte, error) {
	s, ok := f.segs[id]
	if !ok {
		return nil, errors.New("no such segment")
	}
	f.dataFetches++
	return append([]byte(nil), s.Data...), nil
}

func (f *memFetcher) FetchLarge(id SegID, _ *segment.Seg, slot int) ([]byte, error) {
	m, ok := f.large[id]
	if !ok {
		return nil, errors.New("no large objects in segment")
	}
	c, ok := m[slot]
	if !ok {
		return nil, errors.New("no such large object")
	}
	f.largeFetches++
	return c, nil
}

func (f *memFetcher) Resolve(headerOff uint64) (SegID, int, error) {
	area, byteOff := SplitHeaderOffset(headerOff)
	for id, s := range f.segs {
		if id.Area != area {
			continue
		}
		start := uint64(id.Start) * page.Size
		end := start + uint64(s.Hdr.SlottedPages)*page.Size
		if byteOff >= start && byteOff < end {
			slot, err := segment.SlotIndexForOffset(byteOff - start)
			if err != nil {
				return SegID{}, 0, err
			}
			return id, slot, nil
		}
	}
	return SegID{}, 0, errors.New("unresolved header offset")
}

// nodeType is a 16-byte object with two reference fields.
var nodeType = segment.TypeDesc{Name: "Node", Size: 16, RefOffsets: []int{0, 8}}

func putRef(obj []byte, off int, p PRef) { binary.BigEndian.PutUint64(obj[off:], uint64(p)) }

// buildGraph creates two segments: A holds a root node pointing at two nodes
// in B; B's nodes point back at the root. Returns fetcher, registry, ids.
func buildGraph(t *testing.T) (*memFetcher, *segment.Registry, SegID, SegID) {
	t.Helper()
	reg := segment.NewRegistry()
	td, err := reg.Register(nodeType)
	if err != nil {
		t.Fatal(err)
	}
	idA := SegID{Area: 1, Start: 10}
	idB := SegID{Area: 1, Start: 50}
	segA := segment.New(1, 1, 2, idA.Area, 100)
	segB := segment.New(1, 1, 2, idB.Area, 200)

	// Allocate slots first so the header offsets are known.
	b0 := make([]byte, 16)
	b1 := make([]byte, 16)
	sB0, _ := segB.CreateObject(td.ID, b0)
	sB1, _ := segB.CreateObject(td.ID, b1)

	root := make([]byte, 16)
	putRef(root, 0, MakePRef(HeaderOffset(idB, sB0)))
	putRef(root, 8, MakePRef(HeaderOffset(idB, sB1)))
	sRoot, _ := segA.CreateObject(td.ID, root)

	// Back-references from B to the root in A.
	rb, _ := segB.ObjectBytes(sB0)
	putRef(rb, 0, MakePRef(HeaderOffset(idA, sRoot)))
	rb1, _ := segB.ObjectBytes(sB1)
	putRef(rb1, 0, MakePRef(HeaderOffset(idA, sRoot)))

	f := newMemFetcher()
	f.add(idA, segA)
	f.add(idB, segB)
	if sRoot != 0 {
		t.Fatalf("root expected in slot 0, got %d", sRoot)
	}
	return f, reg, idA, idB
}

// grantWrites installs the standard composite handler used by tests: data
// write faults are granted (update detection is the detect package's job),
// everything else goes to the mapper.
func grantWrites(m *Mapper) {
	m.Space().SetHandler(func(fa vmem.Fault) error {
		if fa.Kind == vmem.FaultProtWrite {
			if _, kind, _, ok := m.FrameInfo(fa.Frame); ok && kind != FrameSlotted {
				return m.Space().Protect(vmem.FrameAddr(fa.Frame), 1, vmem.ProtReadWrite)
			}
		}
		return m.HandleFault(fa)
	})
}

func TestHeaderOffsetRoundTrip(t *testing.T) {
	id := SegID{Area: 3, Start: 77}
	off := HeaderOffset(id, 12)
	area, byteOff := SplitHeaderOffset(off)
	if area != 3 {
		t.Fatalf("area = %d", area)
	}
	if byteOff != uint64(77)*page.Size+segment.SlotByteOffset(12) {
		t.Fatalf("byteOff = %d", byteOff)
	}
}

func TestPRefTagging(t *testing.T) {
	if MakePRef(0) != 0 {
		t.Fatal("nil headerOff should give nil PRef")
	}
	p := MakePRef(12345)
	if IsSwizzled(uint64(p)) {
		t.Fatal("persistent ref classified as swizzled")
	}
	if !IsSwizzled(0x1000) {
		t.Fatal("plain address classified as unswizzled")
	}
	if IsSwizzled(0) {
		t.Fatal("nil classified as swizzled")
	}
}

func TestThreeWaves(t *testing.T) {
	f, reg, idA, _ := buildGraph(t)
	m := NewMapper(vmem.New(), f, reg)

	// Wave 1 for A only: nothing fetched.
	rootAddr, err := m.AddrOfSlot(idA, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Wave1Reservations != 1 || st.Wave2SlottedLoads != 0 {
		t.Fatalf("after reserve: %+v", st)
	}
	if f.slottedFetches != 0 {
		t.Fatal("reservation fetched something")
	}

	// Deref triggers wave 2 for A (slotted fetch + data reservation).
	obj, err := m.Deref(rootAddr)
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Wave2SlottedLoads != 1 || st.Wave3DataLoads != 0 {
		t.Fatalf("after deref: %+v", st)
	}
	if f.slottedFetches != 1 || f.dataFetches != 0 {
		t.Fatalf("fetches: slotted %d data %d", f.slottedFetches, f.dataFetches)
	}

	// Reading a field triggers wave 3 for A, which swizzles refs and
	// performs wave 1 for B.
	refB0, err := obj.RefField(0)
	if err != nil {
		t.Fatal(err)
	}
	if refB0 == vmem.NilAddr {
		t.Fatal("ref field is nil")
	}
	st := m.Stats()
	if st.Wave3DataLoads != 1 {
		t.Fatalf("wave3 loads = %d", st.Wave3DataLoads)
	}
	if st.Wave1Reservations != 2 {
		t.Fatalf("wave1 reservations = %d (B not reserved?)", st.Wave1Reservations)
	}
	if f.slottedFetches != 1 {
		t.Fatal("B's slotted segment fetched eagerly")
	}

	// Chase into B: wave 2 + 3 for B.
	objB, err := m.Deref(refB0)
	if err != nil {
		t.Fatal(err)
	}
	back, err := objB.RefField(0)
	if err != nil {
		t.Fatal(err)
	}
	if back != rootAddr {
		t.Fatalf("back-reference %#x != root %#x", back, rootAddr)
	}
	if f.slottedFetches != 2 || f.dataFetches != 2 {
		t.Fatalf("fetches after full chase: %d/%d", f.slottedFetches, f.dataFetches)
	}

	// Both B fields resolve to distinct objects.
	refB1, _ := obj.RefField(8)
	if refB1 == refB0 || refB1 == vmem.NilAddr {
		t.Fatalf("second ref %#x", refB1)
	}
}

func TestDerefErrors(t *testing.T) {
	f, reg, idA, _ := buildGraph(t)
	m := NewMapper(vmem.New(), f, reg)
	if _, err := m.Deref(vmem.NilAddr); err == nil {
		t.Fatal("deref nil")
	}
	if _, err := m.Deref(vmem.FrameAddr(999)); !errors.Is(err, ErrUnknownAddr) {
		t.Fatalf("deref unknown: %v", err)
	}
	addr, _ := m.AddrOfSlot(idA, 0)
	if _, err := m.Deref(addr + 1); !errors.Is(err, ErrNotSlotAddr) {
		t.Fatalf("deref misaligned: %v", err)
	}
	// Deref of a free slot fails.
	freeAddr, _ := m.AddrOfSlot(idA, 100)
	if _, err := m.Deref(freeAddr); !errors.Is(err, segment.ErrBadSlot) {
		t.Fatalf("deref free slot: %v", err)
	}
}

func TestSlottedWriteProtection(t *testing.T) {
	f, reg, idA, _ := buildGraph(t)
	m := NewMapper(vmem.New(), f, reg)
	addr, _ := m.AddrOfSlot(idA, 0)
	if _, err := m.Deref(addr); err != nil {
		t.Fatal(err)
	}
	// A stray user write into the slotted segment is denied by the VM
	// protection (§2.2) — the bad pointer is caught at update time.
	err := m.Space().WriteAt(addr, []byte{0xFF})
	if !errors.Is(err, vmem.ErrViolation) {
		t.Fatalf("stray write: %v", err)
	}
	if m.Stats().DeniedWrites != 1 {
		t.Fatalf("denied = %d", m.Stats().DeniedWrites)
	}
	// Reading the mapped slotted image works and matches the encoding.
	var b [4]byte
	if err := m.Space().ReadAt(addr, b[:]); err != nil {
		t.Fatal(err)
	}
}

func TestTrustedSlotUpdate(t *testing.T) {
	f, reg, idA, _ := buildGraph(t)
	m := NewMapper(vmem.New(), f, reg)
	addr, _ := m.AddrOfSlot(idA, 0)
	if _, err := m.Deref(addr); err != nil {
		t.Fatal(err)
	}
	before := m.Space().Snapshot().ProtectCalls
	var made int
	err := m.TrustedSlotUpdate(idA, func(s *segment.Seg) (err error) {
		made, err = s.AllocSlot(segment.KindSmall, 42, 0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	after := m.Space().Snapshot().ProtectCalls
	if after-before != 2 {
		t.Fatalf("protect calls for trusted update = %d, want 2 (unprotect+reprotect)", after-before)
	}
	seg, _ := m.Seg(idA)
	if seg.Slots[made].Type != 42 {
		t.Fatal("trusted update lost")
	}
	// And user writes are still denied afterwards.
	if err := m.Space().WriteAt(addr, []byte{1}); !errors.Is(err, vmem.ErrViolation) {
		t.Fatalf("write after reprotect: %v", err)
	}
}

// TestTrustedSlotUpdateWritesTheMappedImage: the mapped slotted pages are the
// segment's one image. A trusted update — it runs once per object created —
// writes the slots it changes into them and nothing else: no image-sized
// buffer allocated or cleared, no page copied, and what is mapped decodes to
// the segment's slots after creates, a delete, a resize and a compaction.
func TestTrustedSlotUpdateWritesTheMappedImage(t *testing.T) {
	f, reg, idA, _ := buildGraph(t)
	m := NewMapper(vmem.New(), f, reg)
	if err := m.EnsureData(idA); err != nil {
		t.Fatal(err)
	}
	var made []int
	steps := []func(s *segment.Seg) error{
		func(s *segment.Seg) error { return s.ResizeObject(0, make([]byte, 8)) },
		func(s *segment.Seg) error { return s.DeleteObject(made[1]) },
		func(s *segment.Seg) error { s.Compact(); return nil },
	}
	var before, after runtime.MemStats
	const creates = 50
	runtime.ReadMemStats(&before)
	for i := 0; i < creates+len(steps); i++ {
		err := m.TrustedSlotUpdate(idA, func(s *segment.Seg) error {
			if i >= creates {
				return steps[i-creates](s)
			}
			slot, err := s.CreateObject(segment.TypeID(i), []byte{byte(i)})
			made = append(made, slot)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / (creates + uint64(len(steps))); per >= page.Size {
		t.Errorf("a trusted update allocates %d bytes: a slotted image (%d) or more, every time", per, page.Size)
	}
	seg, _ := m.Seg(idA)
	base := m.bySeg[idA].slottedBase
	mapped := make([]byte, int(seg.Hdr.SlottedPages)*page.Size)
	if err := m.Space().ReadRange(base, mapped); err != nil {
		t.Fatal(err)
	}
	dec, err := segment.DecodeSlotted(mapped)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Hdr != seg.Hdr {
		t.Errorf("mapped header %+v, segment's %+v", dec.Hdr, seg.Hdr)
	}
	for i := range seg.Slots {
		if dec.Slots[i] != seg.Slots[i] {
			t.Fatalf("slot %d: mapped %+v, segment's %+v", i, dec.Slots[i], seg.Slots[i])
		}
	}
}

func TestObjectWriteGrantedByCompositeHandler(t *testing.T) {
	f, reg, idA, _ := buildGraph(t)
	m := NewMapper(vmem.New(), f, reg)
	grantWrites(m)
	addr, _ := m.AddrOfSlot(idA, 0)
	obj, _ := m.Deref(addr)
	// Without the composite handler this would be denied; with it the write
	// fault is granted and the write proceeds.
	if err := obj.Write(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	var b [3]byte
	if err := obj.Read(0, b[:]); err != nil {
		t.Fatal(err)
	}
	if b != [3]byte{1, 2, 3} {
		t.Fatalf("read back %v", b)
	}
	if len(m.DirtySegs()) != 1 {
		t.Fatalf("dirty segs = %v", m.DirtySegs())
	}
}

func TestObjectBoundsChecked(t *testing.T) {
	f, reg, idA, _ := buildGraph(t)
	m := NewMapper(vmem.New(), f, reg)
	addr, _ := m.AddrOfSlot(idA, 0)
	obj, _ := m.Deref(addr)
	if err := obj.Read(10, make([]byte, 10)); !errors.Is(err, ErrBadField) {
		t.Fatalf("over-read: %v", err)
	}
	if err := obj.Read(-1, make([]byte, 1)); !errors.Is(err, ErrBadField) {
		t.Fatalf("negative read: %v", err)
	}
	if err := obj.Write(16, []byte{1}); !errors.Is(err, ErrBadField) {
		t.Fatalf("over-write: %v", err)
	}
}

func TestUnswizzleRoundTrip(t *testing.T) {
	f, reg, idA, idB := buildGraph(t)
	m := NewMapper(vmem.New(), f, reg)
	addr, _ := m.AddrOfSlot(idA, 0)
	obj, _ := m.Deref(addr)
	if _, err := obj.RefField(0); err != nil {
		t.Fatal(err)
	}
	data, err := m.UnswizzledData(idA)
	if err != nil {
		t.Fatal(err)
	}
	// The unswizzled copy must equal the original persistent bytes, and be a
	// copy: the type has references, so the live section is not lent.
	orig := f.segs[idA].Data
	if !bytes.Equal(data[:len(orig)], orig) {
		t.Fatal("unswizzled data differs from original persistent form")
	}
	if live, _ := m.Seg(idA); &data[0] == &live.Data[0] {
		t.Fatal("UnswizzledData lent the live section of a segment whose objects have references")
	}
	// And the in-memory copy is still swizzled (the copy did not mutate it).
	got, _ := obj.RefField(0)
	want, _ := m.AddrOfSlot(idB, 0)
	if got != want {
		t.Fatal("in-memory refs were disturbed by UnswizzledData")
	}
	// Dropping B returns it to wave 1: A's references into it still name
	// what they named — they unswizzle — and following one faults B back in.
	if err := m.DropSeg(idB); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Seg(idB); ok {
		t.Fatal("B still loaded after DropSeg")
	}
	if data, err = m.UnswizzledData(idA); err != nil || !bytes.Equal(data[:len(orig)], orig) {
		t.Fatalf("unswizzling references into a dropped segment: %v", err)
	}
	fetches := f.slottedFetches
	if b, err := m.Deref(got); err != nil || b.Slot != 0 {
		t.Fatalf("deref into a dropped segment: %v", err)
	}
	if f.slottedFetches != fetches+1 {
		t.Fatalf("following a reference into a dropped segment fetched its slotted part %d times, want 1", f.slottedFetches-fetches)
	}
	// However often B comes and goes, it costs the mapper nothing more than
	// its one reservation.
	reserved := m.Space().Snapshot().ReservedFrames
	for i := 0; i < 100; i++ {
		if err := m.DropSeg(idB); err != nil {
			t.Fatal(err)
		}
		if err := m.EnsureData(idB); err != nil {
			t.Fatal(err)
		}
	}
	if now := m.Space().Snapshot().ReservedFrames; now != reserved {
		t.Fatalf("reserved frames %d -> %d over 100 drop/load cycles", reserved, now)
	}
}

func TestSwizzleRefNil(t *testing.T) {
	f, reg, _, _ := buildGraph(t)
	m := NewMapper(vmem.New(), f, reg)
	a, err := m.SwizzleRef(0)
	if err != nil || a != vmem.NilAddr {
		t.Fatalf("nil swizzle: %v %v", a, err)
	}
	p, err := m.UnswizzleAddr(vmem.NilAddr)
	if err != nil || p != 0 {
		t.Fatalf("nil unswizzle: %v %v", p, err)
	}
}

func TestRelocateDataPreservesReferences(t *testing.T) {
	f, reg, idA, _ := buildGraph(t)
	m := NewMapper(vmem.New(), f, reg)
	grantWrites(m)
	addr, _ := m.AddrOfSlot(idA, 0)
	obj, _ := m.Deref(addr)
	ref0, _ := obj.RefField(0) // forces data load
	oldDP := obj.DP

	// Reorganize: grow the data segment and move it (header rewrite), as a
	// file-layer relocation would.
	seg, _ := m.Seg(idA)
	if err := seg.ResizeData(4); err != nil {
		t.Fatal(err)
	}
	seg.MoveData(2, 900)
	if err := m.RelocateData(idA); err != nil {
		t.Fatal(err)
	}

	// The same reference still dereferences to the same object content.
	obj2, err := m.Deref(addr)
	if err != nil {
		t.Fatal(err)
	}
	if obj2.DP == oldDP {
		t.Fatal("DP unchanged after relocation")
	}
	ref0b, err := obj2.RefField(0)
	if err != nil {
		t.Fatal(err)
	}
	if ref0b != ref0 {
		t.Fatalf("reference changed by relocation: %#x vs %#x", ref0b, ref0)
	}
}

func TestTransparentLargeObject(t *testing.T) {
	reg := segment.NewRegistry()
	id := SegID{Area: 1, Start: 10}
	s := segment.New(1, 1, 1, 1, 100)
	s.EnsureOverflow(1)
	content := bytes.Repeat([]byte("LARGE!"), 3000) // ~18KB, spans 5 frames
	slot, err := s.CreateDescriptor(segment.KindLarge, 0, uint32(len(content)), []byte("loc"))
	if err != nil {
		t.Fatal(err)
	}
	f := newMemFetcher()
	f.add(id, s)
	f.large[id] = map[int][]byte{slot: content}

	m := NewMapper(vmem.New(), f, reg)
	addr, _ := m.AddrOfSlot(id, slot)
	obj, err := m.Deref(addr)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Kind != segment.KindLarge || obj.Size != len(content) {
		t.Fatalf("obj = %+v", obj)
	}
	if f.largeFetches != 0 {
		t.Fatal("large object fetched before access")
	}
	// Read a span crossing frame boundaries.
	buf := make([]byte, 100)
	if err := obj.Read(page.Size-50, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, content[page.Size-50:page.Size+50]) {
		t.Fatal("large object content mismatch")
	}
	if f.largeFetches != 1 {
		t.Fatalf("large fetches = %d", f.largeFetches)
	}
	// Whole-object read via Bytes.
	all, err := obj.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all, content) {
		t.Fatal("Bytes() mismatch")
	}
}

func TestFrameInfo(t *testing.T) {
	f, reg, idA, _ := buildGraph(t)
	m := NewMapper(vmem.New(), f, reg)
	addr, _ := m.AddrOfSlot(idA, 0)
	obj, _ := m.Deref(addr)
	if _, err := obj.RefField(0); err != nil {
		t.Fatal(err)
	}
	id, kind, _, ok := m.FrameInfo(addr.Frame())
	if !ok || id != idA || kind != FrameSlotted {
		t.Fatalf("slotted frame info: %v %v %v", id, kind, ok)
	}
	id, kind, pageIdx, ok := m.FrameInfo(obj.DP.Frame())
	if !ok || id != idA || kind != FrameData || pageIdx != 0 {
		t.Fatalf("data frame info: %v %v %d %v", id, kind, pageIdx, ok)
	}
	if _, _, _, ok := m.FrameInfo(424242); ok {
		t.Fatal("unknown frame classified")
	}
}

func TestReservationIsLazyAcrossManySegments(t *testing.T) {
	// A root referencing objects in 20 segments: only the root's segment is
	// ever fetched if the refs are not chased — the paper's "less greedy"
	// claim, mechanically.
	reg := segment.NewRegistry()
	big := segment.TypeDesc{Name: "Big", Size: 8 * 20, RefOffsets: func() []int {
		offs := make([]int, 20)
		for i := range offs {
			offs[i] = i * 8
		}
		return offs
	}()}
	td, _ := reg.Register(big)
	node, _ := reg.Register(segment.TypeDesc{Name: "N", Size: 8, RefOffsets: []int{0}})

	f := newMemFetcher()
	rootID := SegID{Area: 1, Start: 1}
	rootSeg := segment.New(1, 1, 1, 1, 0)
	rootBytes := make([]byte, 160)
	for i := 0; i < 20; i++ {
		id := SegID{Area: 1, Start: page.No(100 + 10*i)}
		s := segment.New(1, 1, 1, 1, 0)
		sl, _ := s.CreateObject(node.ID, make([]byte, 8))
		f.add(id, s)
		putRef(rootBytes, i*8, MakePRef(HeaderOffset(id, sl)))
	}
	rs, _ := rootSeg.CreateObject(td.ID, rootBytes)
	f.add(rootID, rootSeg)

	m := NewMapper(vmem.New(), f, reg)
	addr, _ := m.AddrOfSlot(rootID, rs)
	obj, _ := m.Deref(addr)
	if _, err := obj.RefField(0); err != nil { // loads root data, swizzles all 20
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Wave1Reservations != 21 {
		t.Fatalf("wave1 = %d, want 21", st.Wave1Reservations)
	}
	if f.slottedFetches != 1 || f.dataFetches != 1 {
		t.Fatalf("fetches = %d/%d, want 1/1 (laziness violated)", f.slottedFetches, f.dataFetches)
	}
	// Reserved but unmapped frames consume no memory.
	snap := m.Space().Snapshot()
	if snap.MappedFrames >= snap.ReservedFrames {
		t.Fatalf("mapped %d, reserved %d", snap.MappedFrames, snap.ReservedFrames)
	}
}
