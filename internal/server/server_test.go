package server

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"bess/internal/hooks"
	"bess/internal/lock"
	"bess/internal/oid"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/segment"
)

// createSeg creates a segment on nobody's behalf — no client to record, no
// transaction to lock it for — and returns its key.
func createSeg(s *Server, db, fileID uint32, slottedPages, dataPages, areaHint int) (proto.SegKey, error) {
	rep, err := s.CreateSegment(0, 0, db, fileID, slottedPages, dataPages, areaHint)
	return rep.Seg, err
}

// mkSegImage builds a commit image for a fresh segment with one object.
func mkSegImage(t *testing.T, s *Server, db uint32, body []byte) (proto.SegKey, proto.SegImage) {
	t.Helper()
	key, err := createSeg(s, db, 1, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	sl, ov, data, err := s.FetchSeg(0, key)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := segment.DecodeSlotted(sl)
	if err != nil {
		t.Fatal(err)
	}
	seg.Overflow = ov
	seg.Data = data
	if _, err := seg.CreateObject(0, body); err != nil {
		t.Fatal(err)
	}
	return key, proto.SegImage{Seg: key, Slotted: seg.EncodeSlotted(), Overflow: seg.Overflow, Data: seg.Data}
}

// storeLarge creates a large object in key as a client does: a transaction of
// cl stores the content (StoreLarge), adds the descriptor to its copy of the
// segment and ships it. It returns the object's slot.
func storeLarge(t *testing.T, s *Server, cl uint32, key proto.SegKey, content []byte) int {
	t.Helper()
	txid, _ := s.NewTx()
	if err := s.Lock(cl, txid, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	desc, err := s.StoreLarge(cl, txid, key, content)
	if err != nil {
		t.Fatal(err)
	}
	sl, ov, data, err := s.FetchSeg(cl, key)
	if err != nil {
		t.Fatal(err)
	}
	seg := decodeSeg(t, sl, ov, data)
	seg.EnsureOverflow(1)
	slot, err := seg.CreateDescriptor(segment.KindLarge, 7, uint32(len(content)), desc)
	if err != nil {
		t.Fatal(err)
	}
	img := proto.SegImage{Seg: key, Slotted: seg.EncodeSlotted(), Overflow: seg.Overflow, Data: seg.Data}
	if err := s.Commit(cl, txid, []proto.SegImage{img}); err != nil {
		t.Fatal(err)
	}
	return slot
}

func TestCommitRequiresLock(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, err := s.OpenDB("d", true)
	if err != nil {
		t.Fatal(err)
	}
	key, img := mkSegImage(t, s, db, []byte("payload"))
	cl, _ := s.Hello("c")
	tx, _ := s.NewTx()
	if err := s.Commit(cl, tx, []proto.SegImage{img}); !errors.Is(err, ErrNotLocked) {
		t.Fatalf("unlocked commit: %v", err)
	}
	// With the lock it succeeds.
	tx2, _ := s.NewTx()
	if err := s.Lock(cl, tx2, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(cl, tx2, []proto.SegImage{img}); err != nil {
		t.Fatal(err)
	}
	// The object is durably readable.
	sl, _, data, _ := s.FetchSeg(0, key)
	dec, _ := segment.DecodeSlotted(sl)
	dec.Data = data
	b, err := dec.ObjectBytes(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "payload" {
		t.Fatalf("stored %q", b)
	}
}

func TestLockConflictBetweenTxs(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	s.locks.DefaultTimeout = 50 * time.Millisecond
	db, _, _ := s.OpenDB("d", true)
	key, _ := createSeg(s, db, 1, 1, 2, -1)
	c1, _ := s.Hello("a")
	c2, _ := s.Hello("b")
	t1, _ := s.NewTx()
	t2, _ := s.NewTx()
	if err := s.Lock(c1, t1, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	if err := s.Lock(c2, t2, key, proto.LockX); !errors.Is(err, lock.ErrTimeout) {
		t.Fatalf("conflicting X: %v", err)
	}
	if err := s.Abort(c1, t1); err != nil {
		t.Fatal(err)
	}
	if err := s.Lock(c2, t2, key, proto.LockX); err != nil {
		t.Fatalf("after abort: %v", err)
	}
	s.Abort(c2, t2)
}

func TestTwoPCAcrossServers(t *testing.T) {
	s1 := NewMem(1)
	s2 := NewMem(2)
	defer s1.Close()
	defer s2.Close()
	db1, _, _ := s1.OpenDB("d1", true)
	db2, _, _ := s2.OpenDB("d2", true)
	k1, img1 := mkSegImage(t, s1, db1, []byte("branch-1"))
	k2, img2 := mkSegImage(t, s2, db2, []byte("branch-2"))
	c1, _ := s1.Hello("coord")
	c2, _ := s2.Hello("coord")
	gid := uint64(0xABC)
	if err := s1.Lock(c1, gid, k1, proto.LockX); err != nil {
		t.Fatal(err)
	}
	if err := s2.Lock(c2, gid, k2, proto.LockX); err != nil {
		t.Fatal(err)
	}
	// Phase 1.
	if err := s1.Publish(c1, gid, nil, []proto.SegImage{img1}, true); err != nil {
		t.Fatal(err)
	}
	if err := s2.Publish(c2, gid, nil, []proto.SegImage{img2}, true); err != nil {
		t.Fatal(err)
	}
	// Phase 2: commit both.
	if err := s1.Decide(gid, true); err != nil {
		t.Fatal(err)
	}
	if err := s2.Decide(gid, true); err != nil {
		t.Fatal(err)
	}
	for i, pair := range []struct {
		s   *Server
		key proto.SegKey
		v   string
	}{{s1, k1, "branch-1"}, {s2, k2, "branch-2"}} {
		sl, _, data, _ := pair.s.FetchSeg(0, pair.key)
		dec, _ := segment.DecodeSlotted(sl)
		dec.Data = data
		b, err := dec.ObjectBytes(0)
		if err != nil || string(b) != pair.v {
			t.Fatalf("server %d: %q %v", i+1, b, err)
		}
	}
}

func TestTwoPCAbortDecision(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key, img := mkSegImage(t, s, db, []byte("doomed"))
	c, _ := s.Hello("coord")
	gid := uint64(7)
	s.Lock(c, gid, key, proto.LockX)
	if err := s.Publish(c, gid, nil, []proto.SegImage{img}, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Decide(gid, false); err != nil {
		t.Fatal(err)
	}
	// The branch's effects were rolled back: segment has no objects.
	sl, _, _, _ := s.FetchSeg(0, key)
	dec, _ := segment.DecodeSlotted(sl)
	if dec.Hdr.NObjects != 0 {
		t.Fatalf("aborted branch left %d objects", dec.Hdr.NObjects)
	}
	if err := s.Decide(999, true); !errors.Is(err, ErrUnknownTx) {
		t.Fatalf("decide unknown: %v", err)
	}
}

func TestServerRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, _, _ := s.OpenDB("d", true)
	key, img := mkSegImage(t, s, db, []byte("durable"))
	c, _ := s.Hello("x")
	tx, _ := s.NewTx()
	s.Lock(c, tx, key, proto.LockX)
	if err := s.Commit(c, tx, []proto.SegImage{img}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	db2, _, err := s2.OpenDB("d", false)
	if err != nil {
		t.Fatal(err)
	}
	if db2 != db {
		t.Fatalf("db id changed: %d -> %d", db, db2)
	}
	sl, _, data, err := s2.FetchSeg(0, key)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := segment.DecodeSlotted(sl)
	dec.Data = data
	b, err := dec.ObjectBytes(0)
	if err != nil || !bytes.Equal(b, []byte("durable")) {
		t.Fatalf("after restart: %q %v", b, err)
	}
}

func TestResolve(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key, _ := createSeg(s, db, 1, 1, 2, -1)
	off := uint64(key.Area)<<32 | uint64(key.Start)*page.Size + segment.SlotByteOffset(3)
	gotKey, slot, err := s.Resolve(db, off)
	if err != nil {
		t.Fatal(err)
	}
	if gotKey != key || slot != 3 {
		t.Fatalf("resolve = %v,%d", gotKey, slot)
	}
	if _, _, err := s.Resolve(db, uint64(99)<<32); err == nil {
		t.Fatal("bogus offset resolved")
	}
}

func TestNamesAPI(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	o := oid.OID{Host: 1, DB: uint16(db), Offset: 42, Unique: 1}
	if err := s.NameBind(db, "root", o); err != nil {
		t.Fatal(err)
	}
	got, err := s.NameLookup(db, "root")
	if err != nil || got != o {
		t.Fatalf("lookup: %v %v", got, err)
	}
	if err := s.NameRemoveOID(db, o); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NameLookup(db, "root"); err == nil {
		t.Fatal("name survived RemoveOID")
	}
	if err := s.NameBind(db, "a", o); err != nil {
		t.Fatal(err)
	}
	if err := s.NameUnbind(db, "a"); err != nil {
		t.Fatal(err)
	}
}

func TestCommitHook(t *testing.T) {
	// The §2.4 scenario: count commits without touching any application.
	s := NewMem(1)
	defer s.Close()
	commits := 0
	s.Hooks().Register(hooks.EvTxCommit, func(*hooks.Info) error {
		commits++
		return nil
	})
	db, _, _ := s.OpenDB("d", true)
	key, img := mkSegImage(t, s, db, []byte("x"))
	c, _ := s.Hello("app")
	for i := 0; i < 3; i++ {
		tx, _ := s.NewTx()
		s.Lock(c, tx, key, proto.LockX)
		if err := s.Commit(c, tx, []proto.SegImage{img}); err != nil {
			t.Fatal(err)
		}
	}
	if commits != 3 {
		t.Fatalf("commit hook ran %d times", commits)
	}
}

func TestCompressionHooks(t *testing.T) {
	// Large objects compressed on store, decompressed on fetch (§2.4).
	s := NewMem(1)
	defer s.Close()
	s.Hooks().Register(hooks.EvObjectFlush, func(i *hooks.Info) error {
		*i.Data = append([]byte("Z:"), *i.Data...) // mock compressor
		return nil
	})
	s.Hooks().Register(hooks.EvObjectFetch, func(i *hooks.Info) error {
		if len(*i.Data) >= 2 && string((*i.Data)[:2]) == "Z:" {
			*i.Data = (*i.Data)[2:]
		}
		return nil
	})
	db, _, _ := s.OpenDB("d", true)
	key, _ := createSeg(s, db, 1, 1, 2, -1)
	c, _ := s.Hello("app")
	content := bytes.Repeat([]byte("media"), 1000)
	slot := storeLarge(t, s, c, key, content)
	got, err := s.FetchLarge(0, key, slot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("round trip through compression hooks failed (%d vs %d bytes)", len(got), len(content))
	}
}

func TestDisconnectAbortsClientTxs(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key, _ := createSeg(s, db, 1, 1, 2, -1)
	c, _ := s.Hello("flaky")
	tx, _ := s.NewTx()
	if err := s.Lock(c, tx, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	s.Disconnect(c)
	// The lock is released: another client proceeds immediately.
	c2, _ := s.Hello("healthy")
	tx2, _ := s.NewTx()
	if err := s.Lock(c2, tx2, key, proto.LockX); err != nil {
		t.Fatalf("lock after disconnect: %v", err)
	}
	s.Abort(c2, tx2)
}

// TestPreparedSurvivesDisconnect: a branch that voted yes is the
// coordinator's to decide, not the participant's to abort when the connection
// that prepared it drops — it stays in doubt, lock held, as restart leaves one.
func TestPreparedSurvivesDisconnect(t *testing.T) {
	for _, commit := range []bool{true, false} {
		s := NewMem(1)
		db, _, _ := s.OpenDB("d", true)
		key, img := mkSegImage(t, s, db, []byte("voted yes"))
		c, _ := s.Hello("coordinator's connection")
		txid, _ := s.NewTx()
		if err := s.Lock(c, txid, key, proto.LockX); err != nil {
			t.Fatal(err)
		}
		if err := s.Publish(c, txid, nil, []proto.SegImage{img}, true); err != nil {
			t.Fatal(err)
		}
		s.Disconnect(c)
		if got := s.locks.Holds(lock.TxID(txid), segLockName(key)); got != lock.X {
			t.Fatalf("commit=%v: the in-doubt branch holds %v after the disconnect", commit, got)
		}
		if err := s.Decide(txid, commit); err != nil {
			t.Fatalf("commit=%v: decision after the disconnect: %v", commit, err)
		}
		sl, _, _, err := s.FetchSeg(0, key)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := segment.DecodeSlotted(sl)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(seg.LiveSlots()); (n == 1) != commit {
			t.Fatalf("commit=%v: %d objects in the segment", commit, n)
		}
		// The lock went with the decision: another client proceeds at once.
		c2, _ := s.Hello("next")
		tx2, _ := s.NewTx()
		if err := s.Lock(c2, tx2, key, proto.LockX); err != nil {
			t.Fatalf("commit=%v: lock after the decision: %v", commit, err)
		}
		s.Abort(c2, tx2)
		if err := s.Decide(txid, commit); !errors.Is(err, ErrUnknownTx) {
			t.Fatalf("commit=%v: a second decision: %v", commit, err)
		}
		s.Close()
	}
}

func TestCreateSegmentValidation(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	if _, err := createSeg(s, db, 0, 1, 2, -1); err == nil {
		t.Fatal("fileID 0 accepted")
	}
	if _, err := createSeg(s, 999, 1, 1, 2, -1); err == nil {
		t.Fatal("bogus db accepted")
	}
	if _, err := s.SegInfo(proto.SegKey{Area: 9, Start: 9}); !errors.Is(err, ErrNoSegment) {
		t.Fatal("bogus seg info")
	}
}

// TestCreateLargeTooBig: StoreLarge refuses content past the transparent
// limit, and content for a segment the transaction has not X-locked.
func TestCreateLargeTooBig(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key, _ := createSeg(s, db, 1, 1, 2, -1)
	c, _ := s.Hello("app")
	tx, _ := s.NewTx()
	if _, err := s.StoreLarge(c, tx, key, []byte("unlocked")); !errors.Is(err, ErrNotLocked) {
		t.Fatalf("large object in a segment not X-locked: %v", err)
	}
	if err := s.Lock(c, tx, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StoreLarge(c, tx, key, make([]byte, segment.MaxTransparentLarge+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized large object: %v", err)
	}
	s.Abort(c, tx)
}

func TestNewFileIDsDistinct(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	a, _ := s.NewFileID(db)
	b, _ := s.NewFileID(db)
	if a == b || a == 0 || b == 0 {
		t.Fatalf("file ids: %d %d", a, b)
	}
}
