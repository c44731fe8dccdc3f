package client

import (
	"testing"
	"time"

	"bess/internal/lock"
	"bess/internal/server"
)

// TestObjectLevelLocking exercises the §2.3/[27] software object locks:
// two transactions conflict on the same object but coexist on different
// objects of the same segment.
func TestObjectLevelLocking(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	srv.SetLockTimeout(150 * time.Millisecond)

	a := openDirect(t, srv, "a")
	b := openDirect(t, srv, "b")
	td, _ := a.RegisterType(nodeType)
	b.RegisterType(nodeType)
	seg, _ := a.CreateSegment(1, 1, 2, -1)
	a.Begin()
	o1, _ := a.CreateObject(seg, td.ID, nodeBytes(1))
	o2, _ := a.CreateObject(seg, td.ID, nodeBytes(2))
	a.SetRoot("o1", o1)
	a.SetRoot("o2", o2)
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}

	// a takes X on o1; b can still take X on o2 (different objects, the
	// segment carries only intention locks).
	a.Begin()
	b.Begin()
	oa, err := a.Root("o1")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.LockObject(oa.Addr, true); err != nil {
		t.Fatal(err)
	}
	ob, err := b.Root("o2")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LockObject(ob.Addr, true); err != nil {
		t.Fatalf("object locks on distinct objects conflicted: %v", err)
	}
	// But b cannot take X on o1 while a holds it.
	ob1, err := b.Root("o1")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LockObject(ob1.Addr, true); err == nil {
		t.Fatal("conflicting object X granted")
	}
	// S on o1 from b also blocks against a's X.
	if err := b.LockObject(ob1.Addr, false); err == nil {
		t.Fatal("S granted against held X")
	}
	a.Commit()
	// After a commits, b can lock o1.
	if err := b.LockObject(ob1.Addr, false); err != nil {
		t.Fatalf("S after release: %v", err)
	}
	b.Commit()
	_ = lock.S
}
