package client

import (
	"encoding/binary"
	"testing"
	"time"

	"bess/internal/server"
	"bess/internal/swizzle"
)

// TestAddressSurvivesRevocation pins down reference lifetime semantics: a
// callback drops a cached copy, not the segment's place in the address space
// (the paper's wave 1: the reservation stays). An address from before the drop
// faults the segment back in and sees the revoker's committed state, exactly
// as re-resolving through names/OIDs does.
func TestAddressSurvivesRevocation(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	srv.SetLockTimeout(300 * time.Millisecond)

	writer, _ := openRemote(t, srv, "writer")
	reader, _ := openRemote(t, srv, "reader")
	td, _ := writer.RegisterType(nodeType)
	reader.RegisterType(nodeType)
	seg, _ := writer.CreateSegment(1, 1, 2, -1)
	writer.Begin()
	addr, _ := writer.CreateObject(seg, td.ID, nodeBytes(1))
	writer.SetRoot("x", addr)
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	reader.Begin()
	robj, err := reader.Root("x")
	if err != nil {
		t.Fatal(err)
	}
	oldAddr := robj.Addr
	reader.Commit()

	// Writer's update revokes the reader's idle copy.
	writer.Begin()
	wobj, _ := writer.Deref(addr)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], 2)
	if err := wobj.Write(8, buf[:]); err != nil {
		t.Fatal(err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	// The copy is dropped at Begin; the old address refetches it.
	reader.Begin()
	if _, cached := reader.Mapper().Seg(segID(seg)); cached {
		t.Fatal("revoked copy still cached after Begin")
	}
	old, err := reader.Deref(oldAddr)
	if err != nil {
		t.Fatalf("address from before the revocation: %v", err)
	}
	if nodeVal(old) != 2 {
		t.Fatalf("value through the old address = %d, want the writer's 2", nodeVal(old))
	}
	fresh, err := reader.Root("x")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Addr != oldAddr || nodeVal(fresh) != 2 {
		t.Fatalf("re-resolved by name: addr %#x value %d, want %#x and 2", uint64(fresh.Addr), nodeVal(fresh), uint64(oldAddr))
	}
	reader.Commit()
}

// TestFollowReferenceAfterRevocation: a reference in cached segment A,
// swizzled into segment B, can still be followed after B's copy was called
// back and dropped — the drop returned B to wave 1, so the address in A's data
// is a reserved address and following it faults B back in with the revoker's
// committed value. (Before DropSeg kept the reservation this was
// ErrUnknownAddr until A itself was refetched.)
func TestFollowReferenceAfterRevocation(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	srv.SetLockTimeout(300 * time.Millisecond)

	writer, _ := openRemote(t, srv, "writer")
	reader, _ := openRemote(t, srv, "reader")
	td, _ := writer.RegisterType(nodeType)
	reader.RegisterType(nodeType)
	segA, _ := writer.CreateSegment(1, 1, 2, -1)
	segB, _ := writer.CreateSegment(1, 1, 2, -1)
	writer.Begin()
	addrB, _ := writer.CreateObject(segB, td.ID, nodeBytes(1))
	addrA, _ := writer.CreateObject(segA, td.ID, nodeBytes(100))
	wa, _ := writer.Deref(addrA)
	if err := wa.SetRefField(0, addrB); err != nil {
		t.Fatal(err)
	}
	writer.SetRoot("a", addrA)
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	// The reader caches both and ends its transaction.
	follow := func() uint64 {
		t.Helper()
		a, err := reader.Root("a")
		if err != nil {
			t.Fatal(err)
		}
		ref, err := a.RefField(0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := reader.Deref(ref)
		if err != nil {
			t.Fatalf("following A's reference into B: %v", err)
		}
		return nodeVal(b)
	}
	reader.Begin()
	if got := follow(); got != 1 {
		t.Fatalf("first read through A = %d, want 1", got)
	}
	reader.Commit()

	// The writer updates B: the reader's copy of B is called back.
	writer.Begin()
	wb, _ := writer.Deref(addrB)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], 2)
	if err := wb.Write(8, buf[:]); err != nil {
		t.Fatal(err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	reader.Begin()
	if _, cached := reader.Mapper().Seg(segID(segA)); !cached {
		t.Fatal("A's copy was dropped too: the test needs it cached")
	}
	if got := follow(); got != 2 {
		t.Fatalf("read through A after B's revocation = %d, want the writer's 2", got)
	}
	// A still commits: its reference into B unswizzles.
	a, _ := reader.Root("a")
	binary.BigEndian.PutUint64(buf[:], 101)
	if err := a.Write(8, buf[:]); err != nil {
		t.Fatal(err)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestDropAllCachedForcesRefetch verifies the cold-cache control used by
// the E6 baseline.
func TestDropAllCachedForcesRefetch(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	s := openDirect(t, srv, "app")
	td, _ := s.RegisterType(nodeType)
	seg, _ := s.CreateSegment(1, 1, 2, -1)
	s.Begin()
	addr, _ := s.CreateObject(seg, td.ID, nodeBytes(9))
	s.SetRoot("r", addr)
	s.Commit()

	before := srv.Snapshot().SlottedFetches
	s.DropAllCached()
	s.Begin()
	obj, err := s.Root("r")
	if err != nil {
		t.Fatal(err)
	}
	if nodeVal(obj) != 9 {
		t.Fatal("value after refetch")
	}
	s.Commit()
	if srv.Snapshot().SlottedFetches <= before {
		t.Fatal("DropAllCached did not force a refetch")
	}
}

// TestPendingDropAppliedOnTouch exercises the drainDrop path: a revocation
// accepted for an untouched segment mid-transaction is applied before the
// transaction's first access to it.
func TestPendingDropAppliedOnTouch(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	srv.SetLockTimeout(300 * time.Millisecond)

	writer, _ := openRemote(t, srv, "writer")
	reader, _ := openRemote(t, srv, "reader")
	td, _ := writer.RegisterType(nodeType)
	reader.RegisterType(nodeType)
	segA, _ := writer.CreateSegment(1, 1, 2, -1)
	segB, _ := writer.CreateSegment(1, 1, 2, -1)
	writer.Begin()
	a, _ := writer.CreateObject(segA, td.ID, nodeBytes(1))
	b, _ := writer.CreateObject(segB, td.ID, nodeBytes(2))
	writer.SetRoot("a", a)
	writer.SetRoot("b", b)
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	// Reader warms BOTH segments, commits, then begins a tx touching only A.
	reader.Begin()
	reader.Root("a")
	reader.Root("b")
	reader.Commit()
	reader.Begin()
	ra, err := reader.Root("a")
	if err != nil {
		t.Fatal(err)
	}
	_ = nodeVal(ra)

	// Writer updates B: reader's tx has NOT touched B, so the callback is
	// granted and the drop queued.
	writer.Begin()
	wb, _ := writer.Deref(b)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], 22)
	if err := wb.Write(8, buf[:]); err != nil {
		t.Fatal(err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	// The reader now touches B inside the same tx: the queued drop applies
	// first, so it refetches the committed value rather than stale bytes.
	rb, err := reader.Root("b")
	if err != nil {
		t.Fatal(err)
	}
	if nodeVal(rb) != 22 {
		t.Fatalf("reader saw stale B: %d", nodeVal(rb))
	}
	reader.Commit()
}

// TestCommitThroughDanglingReference: cached segment A holds a swizzled
// reference into segment B, and B's copy is revoked and dropped. An update of
// A's payload must still commit — the reference unswizzles from the retired
// range — and must never be acknowledged without its data.
func TestCommitThroughDanglingReference(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	srv.SetLockTimeout(300 * time.Millisecond)

	writer, _ := openRemote(t, srv, "writer")
	reader, _ := openRemote(t, srv, "reader")
	third, _ := openRemote(t, srv, "third")
	td, _ := writer.RegisterType(nodeType)
	reader.RegisterType(nodeType)
	third.RegisterType(nodeType)
	segA, _ := writer.CreateSegment(1, 1, 2, -1)
	segB, _ := writer.CreateSegment(1, 1, 2, -1)
	put := func(obj *swizzle.Object, val uint64) {
		t.Helper()
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], val)
		if err := obj.Write(8, buf[:]); err != nil {
			t.Fatal(err)
		}
	}

	writer.Begin()
	b, _ := writer.CreateObject(segB, td.ID, nodeBytes(2))
	a, _ := writer.CreateObject(segA, td.ID, nodeBytes(1))
	objA, _ := writer.Deref(a)
	if err := objA.SetRefField(0, b); err != nil {
		t.Fatal(err)
	}
	writer.SetRoot("a", a)
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	// The reader caches both, A's reference swizzled to B's reserved range.
	reader.Begin()
	ra, err := reader.Root("a")
	if err != nil {
		t.Fatal(err)
	}
	next, _ := ra.RefField(0)
	if rb, err := reader.Deref(next); err != nil || nodeVal(rb) != 2 {
		t.Fatalf("reader's chase to B: %v", err)
	}
	reader.Commit()

	// The writer's update of B revokes the reader's idle copy of B.
	writer.Begin()
	wb, _ := writer.Deref(b)
	put(wb, 22)
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	// The reader updates A's payload, through the copy of A it kept.
	reader.Begin()
	ra, err = reader.Root("a")
	if err != nil {
		t.Fatal(err)
	}
	put(ra, 11)
	if err := reader.Commit(); err != nil {
		t.Fatalf("commit of A with a reference into dropped B: %v", err)
	}

	third.Begin()
	ta, err := third.Root("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := nodeVal(ta); got != 11 {
		t.Fatalf("a third session reads %d from A: the acknowledged update was lost", got)
	}
	tn, err := ta.RefField(0)
	if err != nil {
		t.Fatal(err)
	}
	if tb, err := third.Deref(tn); err != nil || nodeVal(tb) != 22 {
		t.Fatalf("A's reference no longer leads to B: %v", err)
	}
	third.Commit()
}
