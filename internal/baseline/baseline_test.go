package baseline

import (
	"testing"

	"bess/internal/oid"
	"bess/internal/page"
	"bess/internal/swizzle"
	"bess/internal/vmem"
)

func TestOIDTableChase(t *testing.T) {
	tab := NewOIDTable()
	// Ring of 10 objects.
	ids := make([]oid.OID, 10)
	for i := range ids {
		ids[i] = oid.OID{Host: 1, DB: 1, Offset: uint64(i + 1)}
	}
	for i := range ids {
		tab.Put(ids[i], &OIDObject{
			Data: []byte{byte(i)},
			Refs: []oid.OID{ids[(i+1)%len(ids)]},
		})
	}
	end, err := tab.Chase(ids[0], 0, 25)
	if err != nil {
		t.Fatal(err)
	}
	if end != ids[25%10] {
		t.Fatalf("chase ended at %v", end)
	}
	if _, err := tab.Chase(oid.OID{Offset: 999}, 0, 1); err == nil {
		t.Fatal("dangling chase succeeded")
	}
	if _, err := tab.Chase(ids[0], 7, 1); err == nil {
		t.Fatal("bad field chase succeeded")
	}
}

type fakeLister struct{ n, slotted, data int }

func (f fakeLister) ListSegments() ([]swizzle.SegID, []int, []int, error) {
	segs := make([]swizzle.SegID, f.n)
	sl := make([]int, f.n)
	dt := make([]int, f.n)
	for i := range segs {
		segs[i] = swizzle.SegID{Area: 1, Start: page.No(i * 10)}
		sl[i] = f.slotted
		dt[i] = f.data
	}
	return segs, sl, dt, nil
}

func TestEagerReservesEverything(t *testing.T) {
	space := vmem.New()
	e, err := NewEagerReserver(space, fakeLister{n: 50, slotted: 1, data: 4})
	if err != nil {
		t.Fatal(err)
	}
	if e.Reserved != 50*(1+4) {
		t.Fatalf("Reserved = %d", e.Reserved)
	}
	st := space.Snapshot()
	if st.ReservedFrames != 250 {
		t.Fatalf("space reserved = %d", st.ReservedFrames)
	}
	if st.MappedFrames != 0 {
		t.Fatal("eager scheme mapped something")
	}
}

func TestSoftwareDetect(t *testing.T) {
	d := NewSoftwareDetect()
	seg := swizzle.SegID{Area: 1, Start: 10}
	d.MarkDirty(seg, 0)
	d.MarkDirty(seg, 0) // idempotent set, but each call pays a lock request
	d.MarkDirty(seg, 3)
	if !d.Dirty(seg, 0) || !d.Dirty(seg, 3) || d.Dirty(seg, 1) {
		t.Fatal("dirty set wrong")
	}
	if d.Locks != 3 {
		t.Fatalf("locks = %d", d.Locks)
	}
	// Conservative lock on a read-only call.
	d.PassPointer(seg, 1)
	if d.Locks != 4 {
		t.Fatalf("locks after pass = %d", d.Locks)
	}
}
