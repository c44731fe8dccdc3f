package detect

import (
	"errors"
	"testing"

	"bess/internal/page"
	"bess/internal/segment"
	"bess/internal/swizzle"
	"bess/internal/vmem"
)

// fixture builds a single-segment database with two pages of objects.
type fixture struct {
	fetch *memFetcher
	reg   *segment.Registry
	id    swizzle.SegID
	slots []int
}

type memFetcher struct {
	segs map[swizzle.SegID]*segment.Seg
}

func (f *memFetcher) SlottedPages(id swizzle.SegID) (int, error) {
	return int(f.segs[id].Hdr.SlottedPages), nil
}
func (f *memFetcher) FetchSlotted(id swizzle.SegID) (*segment.Seg, error) {
	return segment.DecodeSlotted(f.segs[id].EncodeSlotted())
}
func (f *memFetcher) FetchData(id swizzle.SegID, _ *segment.Seg) ([]byte, error) {
	return append([]byte(nil), f.segs[id].Data...), nil
}
func (f *memFetcher) Resolve(off uint64) (swizzle.SegID, int, error) {
	area, byteOff := swizzle.SplitHeaderOffset(off)
	for id, s := range f.segs {
		if id.Area != area {
			continue
		}
		start := uint64(id.Start) * page.Size
		if byteOff >= start && byteOff < start+uint64(s.Hdr.SlottedPages)*page.Size {
			slot, err := segment.SlotIndexForOffset(byteOff - start)
			return id, slot, err
		}
	}
	return swizzle.SegID{}, 0, errors.New("unresolved")
}

func build(t *testing.T) *fixture {
	t.Helper()
	reg := segment.NewRegistry()
	id := swizzle.SegID{Area: 1, Start: 10}
	s := segment.New(1, 1, 3, 1, 100)
	var slots []int
	// Fill page 0 and page 1 with blobs.
	for i := 0; i < 3; i++ {
		sl, err := s.CreateObject(0, make([]byte, 3000))
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, sl)
	}
	f := &memFetcher{segs: map[swizzle.SegID]*segment.Seg{id: s}}
	return &fixture{fetch: f, reg: reg, id: id, slots: slots}
}

// recorder is an AccessFunc that keeps the accesses the detector reports,
// in order.
type recorder struct{ reads, writes []PageKey }

func record(d *Detector) *recorder {
	r := &recorder{}
	d.SetAccessFunc(func(k PageKey, write bool) error {
		if write {
			r.writes = append(r.writes, k)
		} else {
			r.reads = append(r.reads, k)
		}
		return nil
	})
	return r
}

func TestWriteSetViaFaults(t *testing.T) {
	fx := build(t)
	m := swizzle.NewMapper(vmem.New(), fx.fetch, fx.reg)
	rec := record(New(m))

	addr, _ := m.AddrOfSlot(fx.id, fx.slots[0])
	obj, err := m.Deref(addr)
	if err != nil {
		t.Fatal(err)
	}
	// Reads are no writes.
	if err := obj.Read(0, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if len(rec.writes) != 0 {
		t.Fatalf("writes after a read: %v", rec.writes)
	}
	// First write faults once, is reported, and proceeds.
	if err := obj.Write(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if len(rec.writes) != 1 || rec.writes[0] != (PageKey{Seg: fx.id, Page: 0}) {
		t.Fatalf("writes = %v", rec.writes)
	}
	// Second write to the same page: no new fault.
	if err := obj.Write(4, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if len(rec.writes) != 1 {
		t.Fatalf("second write faulted again: %v", rec.writes)
	}
	// A write through object 1 (data bytes 3000..6000) crossing the page
	// boundary adds page 1.
	addr1, _ := m.AddrOfSlot(fx.id, fx.slots[1])
	obj1, err := m.Deref(addr1)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj1.Write(1000, make([]byte, 1400)); err != nil {
		t.Fatal(err)
	}
	if len(rec.writes) != 2 || rec.writes[1] != (PageKey{Seg: fx.id, Page: 1}) {
		t.Fatalf("writes = %v", rec.writes)
	}
}

func TestReadTracking(t *testing.T) {
	fx := build(t)
	m := swizzle.NewMapper(vmem.New(), fx.fetch, fx.reg)
	rec := record(New(m))

	addr, _ := m.AddrOfSlot(fx.id, fx.slots[0]) // object on page 0
	obj, err := m.Deref(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Read(0, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if len(rec.reads) != 1 || rec.reads[0].Page != 0 {
		t.Fatalf("reads = %v", rec.reads)
	}
	// A second read of the page does not fault.
	if err := obj.Read(4, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	// Reading the third object (page 2 of data, offset 6000) adds that page
	// but not page 1.
	addr2, _ := m.AddrOfSlot(fx.id, fx.slots[2])
	obj2, _ := m.Deref(addr2)
	if err := obj2.Read(2000, make([]byte, 8)); err != nil { // at data offset ~8096: page 1
		t.Fatal(err)
	}
	if len(rec.reads) != 2 {
		t.Fatalf("reads = %v", rec.reads)
	}
}

func TestAccessFuncDenies(t *testing.T) {
	fx := build(t)
	m := swizzle.NewMapper(vmem.New(), fx.fetch, fx.reg)
	d := New(m)
	conflict := errors.New("lock conflict")
	d.SetAccessFunc(func(k PageKey, write bool) error {
		if write {
			return conflict
		}
		return nil
	})
	addr, _ := m.AddrOfSlot(fx.id, fx.slots[0])
	obj, _ := m.Deref(addr)
	if err := obj.Read(0, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	err := obj.Write(0, []byte{1})
	if !errors.Is(err, vmem.ErrViolation) {
		t.Fatalf("denied write: %v", err)
	}
	// The page stays read-only: the write never landed.
	got := make([]byte, 1)
	if err := obj.Read(0, got); err != nil || got[0] != 0 {
		t.Fatalf("after a denied write the object reads %v (err %v), want 0", got, err)
	}
}

func TestEndTransactionReprotects(t *testing.T) {
	fx := build(t)
	m := swizzle.NewMapper(vmem.New(), fx.fetch, fx.reg)
	d := New(m)
	rec := record(d)
	addr, _ := m.AddrOfSlot(fx.id, fx.slots[0])
	obj, _ := m.Deref(addr)
	if err := obj.Write(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	d.EndTransaction()
	// The next transaction's read and write fault afresh and are reported.
	if err := obj.Read(0, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if err := obj.Write(0, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if len(rec.writes) != 2 || len(rec.reads) != 1 {
		t.Fatalf("after EndTransaction: reads %v, writes %v, want one read and a second write", rec.reads, rec.writes)
	}
}

func TestSlottedStaysProtected(t *testing.T) {
	fx := build(t)
	m := swizzle.NewMapper(vmem.New(), fx.fetch, fx.reg)
	New(m)
	addr, _ := m.AddrOfSlot(fx.id, fx.slots[0])
	if _, err := m.Deref(addr); err != nil {
		t.Fatal(err)
	}
	// Even with the detector installed, slotted writes are denied.
	if err := m.Space().WriteAt(addr, []byte{0xFF}); !errors.Is(err, vmem.ErrViolation) {
		t.Fatalf("slotted write: %v", err)
	}
}

func TestWriteImpliesRead(t *testing.T) {
	fx := build(t)
	m := swizzle.NewMapper(vmem.New(), fx.fetch, fx.reg)
	rec := record(New(m))
	addr, _ := m.AddrOfSlot(fx.id, fx.slots[0])
	obj, _ := m.Deref(addr)
	if err := obj.Write(0, []byte{5}); err != nil {
		t.Fatal(err)
	}
	// The write's grant covers reads: reading the page back does not fault.
	if err := obj.Read(0, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if len(rec.reads) != 0 || len(rec.writes) != 1 {
		t.Fatalf("reads %v, writes %v, want the one write", rec.reads, rec.writes)
	}
}
