package client

import (
	"testing"

	"bess/internal/server"
)

// TestColdTouchRoundTrips pins the message cost of a cold segment touch
// over RPC: reserving the address space costs one SegInfo and faulting the
// segment costs one combined FetchSeg — two round trips where the
// FetchSlotted/FetchData pair used to make three — and only the first touch
// pays the SegInfo: a segment's slotted size is fixed at creation, the session
// remembers it, and a touch after the copy was dropped is the FetchSeg alone.
// Remote.Calls() counts every RPC, so the assertion is exact, not statistical.
func TestColdTouchRoundTrips(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()

	// A writer populates one segment.
	w := openDirect(t, srv, "writer")
	td, err := w.RegisterType(nodeType)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := w.CreateSegment(1, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	addr, err := w.CreateObject(seg, td.ID, nodeBytes(7))
	if err != nil {
		t.Fatal(err)
	}
	_ = addr
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	// A remote reader touches it cold.
	s, r := openRemote(t, srv, "reader")
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	before := r.Calls()
	a, err := s.AddrOfSlot(seg, 0)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := s.Deref(a)
	if err != nil {
		t.Fatal(err)
	}
	if nodeVal(obj) != 7 {
		t.Fatalf("value = %d", nodeVal(obj))
	}
	delta := r.Calls() - before
	if delta != 2 {
		t.Fatalf("cold segment touch cost %d RPCs, want 2 (SegInfo + FetchSeg)", delta)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// Warm touch in the next transaction: the inter-transaction cache serves
	// everything, zero RPCs beyond the transaction bookkeeping.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	before = r.Calls()
	obj, err = s.Deref(a)
	if err != nil {
		t.Fatal(err)
	}
	if nodeVal(obj) != 7 {
		t.Fatalf("warm value = %d", nodeVal(obj))
	}
	if delta := r.Calls() - before; delta != 0 {
		t.Fatalf("warm touch cost %d RPCs, want 0", delta)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// Cold again: the copy is gone (one Released for everything dropped), the
	// slotted size is not, so the touch is one FetchSeg.
	before = r.Calls()
	if err := s.DropAllCached(); err != nil {
		t.Fatal(err)
	}
	if delta := r.Calls() - before; delta != 1 {
		t.Fatalf("DropAllCached cost %d RPCs, want 1 (Released)", delta)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	before = r.Calls()
	if a, err = s.AddrOfSlot(seg, 0); err != nil {
		t.Fatal(err)
	}
	if obj, err = s.Deref(a); err != nil {
		t.Fatal(err)
	}
	if nodeVal(obj) != 7 {
		t.Fatalf("value after the drop = %d", nodeVal(obj))
	}
	if delta := r.Calls() - before; delta != 1 {
		t.Fatalf("a touch after the copy was dropped cost %d RPCs, want 1 (FetchSeg; the slotted size is remembered)", delta)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}
