package client

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"bess/internal/server"
	"bess/internal/swizzle"
)

// TestStaleAddressAfterRevocation pins down reference lifetime semantics:
// after a callback drops a cached segment, addresses from the old mapping
// are dead — re-resolution through names/OIDs yields fresh, valid ones.
func TestStaleAddressAfterRevocation(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	srv.CallbackTimeout = 300 * time.Millisecond

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

	// The old address no longer resolves (its reservation is queued to
	// drop and dropped at Begin); re-resolving by name works and sees the
	// new value.
	reader.Begin()
	if _, err := reader.Deref(oldAddr); err == nil {
		// A same-address reuse is possible only if the drop had not yet
		// applied; after Begin it must have.
		t.Fatal("stale address still dereferences after revocation")
	} else if !errors.Is(err, swizzle.ErrUnknownAddr) && !errors.Is(err, swizzle.ErrNotSlotAddr) {
		t.Fatalf("unexpected error class: %v", err)
	}
	fresh, err := reader.Root("x")
	if err != nil {
		t.Fatal(err)
	}
	if nodeVal(fresh) != 2 {
		t.Fatalf("fresh value = %d", nodeVal(fresh))
	}
	reader.Commit()
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
	srv.CallbackTimeout = 300 * time.Millisecond

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
	srv.CallbackTimeout = 300 * time.Millisecond

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
