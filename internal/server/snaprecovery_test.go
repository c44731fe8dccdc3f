package server

import (
	"bytes"
	"testing"

	"bess/internal/proto"
	"bess/internal/segment"
)

// overwriteImage builds a commit image that replaces object 0 of key with
// body (same size, so the segment geometry is untouched).
func overwriteImage(t *testing.T, s *Server, key proto.SegKey, body []byte) proto.SegImage {
	t.Helper()
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
	if err := seg.UpdateObject(0, body); err != nil {
		t.Fatal(err)
	}
	return proto.SegImage{Seg: key, Slotted: seg.EncodeSlotted(), Overflow: seg.Overflow, Data: seg.Data}
}

// snapObject reads object 0 of key through an open snapshot.
func snapObject(t *testing.T, s *Server, client uint32, snap uint64, key proto.SegKey) []byte {
	t.Helper()
	sl, ov, data, err := s.SnapFetchSeg(client, snap, key)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := segment.DecodeSlotted(sl)
	if err != nil {
		t.Fatal(err)
	}
	dec.Overflow = ov
	dec.Data = data
	b, err := dec.ObjectBytes(0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecoveryWithOpenSnapshots is the crash regression for the snapshot
// stack: the server goes down with a snapshot open and a commit caught
// mid-flight (phase 1 done — images logged, none of them written — decision
// pending), restart recovery must come up clean, the in-doubt branch must
// resolve, and fresh snapshots — including the watermark reclaim behind
// them — must work as if the crash never happened.
func TestRecoveryWithOpenSnapshots(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := s1.OpenDB("d", true)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := s1.Hello("w")
	key, img := mkSegImage(t, s1, db, []byte("v1......"))
	tx1, _ := s1.NewTx()
	if err := s1.Lock(cl, tx1, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	if err := s1.Commit(cl, tx1, []proto.SegImage{img}); err != nil {
		t.Fatal(err)
	}

	snap1, _, err := s1.SnapOpen(cl)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite while the snapshot is open: v1 must be captured on the
	// version chain and keep serving the snapshot.
	tx2, _ := s1.NewTx()
	if err := s1.Lock(cl, tx2, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	if err := s1.Commit(cl, tx2, []proto.SegImage{overwriteImage(t, s1, key, []byte("v2......"))}); err != nil {
		t.Fatal(err)
	}
	if got := snapObject(t, s1, cl, snap1, key); !bytes.Equal(got, []byte("v1......")) {
		t.Fatalf("pre-crash snapshot read = %q, want v1", got)
	}
	if s1.VersionStats().ChainHits == 0 {
		t.Fatal("pre-crash snapshot read bypassed the version chain")
	}

	// The mid-flight commit: phase 1 logs the v3 image, then the server dies
	// before any decision — with the snapshot still open.
	tx3, _ := s1.NewTx()
	if err := s1.Lock(cl, tx3, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	if err := s1.Publish(cl, tx3, nil, []proto.SegImage{overwriteImage(t, s1, key, []byte("v3......"))}, true); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: recovery repeats history and adopts the in-doubt branch; the
	// coordinator's decision is an abort, so v2 is the surviving state.
	s2, err := Open(dir, 1)
	if err != nil {
		t.Fatalf("recovery with open snapshots at crash: %v", err)
	}
	defer func() {
		if s2 != nil {
			_ = s2.Close()
		}
	}()
	if err := s2.Decide(tx3, false); err != nil {
		t.Fatalf("abort of in-doubt branch: %v", err)
	}

	// Fresh snapshots work after recovery and see the decided state.
	snap2, _, err := s2.SnapOpen(cl)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapObject(t, s2, cl, snap2, key); !bytes.Equal(got, []byte("v2......")) {
		t.Fatalf("post-recovery snapshot read = %q, want v2", got)
	}

	// The version clock restarted above every pre-crash commit: a new commit
	// under the open snapshot must capture a version, and closing the
	// snapshot must drain the chain at once.
	tx4, _ := s2.NewTx()
	if err := s2.Lock(cl, tx4, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	if err := s2.Commit(cl, tx4, []proto.SegImage{overwriteImage(t, s2, key, []byte("v4......"))}); err != nil {
		t.Fatal(err)
	}
	if got := snapObject(t, s2, cl, snap2, key); !bytes.Equal(got, []byte("v2......")) {
		t.Fatalf("post-recovery snapshot read after commit = %q, want v2", got)
	}
	if s2.VersionStats().Entries == 0 {
		t.Fatal("commit under an open snapshot retained no version")
	}
	if err := s2.SnapClose(cl, snap2); err != nil {
		t.Fatal(err)
	}
	if n := s2.VersionStats().Entries; n != 0 {
		t.Fatalf("closing the last snapshot left %d entries", n)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s2 = nil
}

// TestPreparedBranchSurvivesCheckpoint: a branch that voted yes before a
// checkpoint is still in doubt after the server reopens, and its
// coordinator's commit decision publishes its image.
func TestPreparedBranchSurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := s1.OpenDB("d", true)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := s1.Hello("w")
	key, img := mkSegImage(t, s1, db, []byte("v1......"))
	tx1, _ := s1.NewTx()
	if err := s1.Lock(cl, tx1, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	if err := s1.Commit(cl, tx1, []proto.SegImage{img}); err != nil {
		t.Fatal(err)
	}
	tx2, _ := s1.NewTx()
	if err := s1.Lock(cl, tx2, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	if err := s1.Publish(cl, tx2, nil, []proto.SegImage{overwriteImage(t, s1, key, []byte("v2......"))}, true); err != nil {
		t.Fatal(err)
	}
	if err := s1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Decide(tx2, true); err != nil {
		t.Fatalf("commit of the branch prepared before the checkpoint: %v", err)
	}
	snap, _, err := s2.SnapOpen(cl)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapObject(t, s2, cl, snap, key); !bytes.Equal(got, []byte("v2......")) {
		t.Fatalf("snapshot after the commit decision reads %q, want v2", got)
	}
}
