package client

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"bess/internal/goleak"
	"bess/internal/proto"
	"bess/internal/server"
	"bess/internal/swizzle"
	"bess/internal/vmem"
)

// setNodeVal overwrites the value field of (seg, slot) in one committed
// transaction — the writer side of every snapshot test.
func setNodeVal(t *testing.T, s *Session, seg proto.SegKey, slot int, v uint64) {
	t.Helper()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	addr, err := s.AddrOfSlot(seg, slot)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := s.Deref(addr)
	if err != nil {
		t.Fatal(err)
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	if err := obj.Write(8, b[:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}

// getNodeVal reads the value of (seg, slot) inside whatever transaction or
// snapshot s currently has open.
func getNodeVal(t *testing.T, s *Session, seg proto.SegKey, slot int) uint64 {
	t.Helper()
	addr, err := s.AddrOfSlot(seg, slot)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := s.Deref(addr)
	if err != nil {
		t.Fatal(err)
	}
	return nodeVal(obj)
}

// snapSetup builds one committed node object and returns its segment.
func snapSetup(t *testing.T, srv *server.Server, w *Session) proto.SegKey {
	t.Helper()
	td, err := w.RegisterType(nodeType)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := w.CreateSegment(1, 1, 4, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.CreateObject(seg, td.ID, nodeBytes(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	return seg
}

// TestSnapshotReadConsistency pins the headline property: a snapshot's view
// does not move while writers commit. The reader's cached copy is revoked by
// a concurrent committer, the snapshot keeps serving the pinned image, and
// only the next snapshot observes the new state.
func TestSnapshotReadConsistency(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	w := openDirect(t, srv, "writer")
	r := openDirect(t, srv, "reader")
	seg := snapSetup(t, srv, w)
	if _, err := r.RegisterType(nodeType); err != nil {
		t.Fatal(err)
	}

	// Warm the reader's cache under a plain transaction.
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	if v := getNodeVal(t, r, seg, 0); v != 1 {
		t.Fatalf("warm read = %d, want 1", v)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := r.BeginSnapshot(); err != nil {
		t.Fatal(err)
	}
	if !r.InSnapshot() {
		t.Fatal("InSnapshot = false inside a snapshot")
	}
	if v := getNodeVal(t, r, seg, 0); v != 1 {
		t.Fatalf("snapshot read = %d, want 1", v)
	}

	// A concurrent commit revokes the reader's copy. The snapshot accepts
	// the callback but keeps the copy: it is exactly the as-of image.
	setNodeVal(t, w, seg, 0, 2)
	if v := getNodeVal(t, r, seg, 0); v != 1 {
		t.Fatalf("snapshot read after concurrent commit = %d, want 1", v)
	}
	if drops := r.Snapshot().Drops; drops == 0 {
		t.Fatal("revocation callback never reached the snapshot session")
	}
	if err := r.EndSnapshot(); err != nil {
		t.Fatal(err)
	}

	// The next snapshot is a fresh version boundary: it sees the new state.
	if err := r.BeginSnapshot(); err != nil {
		t.Fatal(err)
	}
	if v := getNodeVal(t, r, seg, 0); v != 2 {
		t.Fatalf("fresh snapshot read = %d, want 2", v)
	}
	if err := r.EndSnapshot(); err != nil {
		t.Fatal(err)
	}
	if n := r.Snapshot().Snapshots; n != 2 {
		t.Fatalf("Snapshots stat = %d, want 2", n)
	}
}

// TestSnapshotColdFetchAsOf pins the server half: a cold fetch issued after
// a writer commits must still return the image as of the snapshot's stamp,
// from the version chain.
func TestSnapshotColdFetchAsOf(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	w := openDirect(t, srv, "writer")
	seg := snapSetup(t, srv, w)
	setNodeVal(t, w, seg, 0, 2)

	r := openDirect(t, srv, "cold")
	if _, err := r.RegisterType(nodeType); err != nil {
		t.Fatal(err)
	}
	fetchesBefore := srv.Snapshot().SnapFetches
	if err := r.BeginSnapshot(); err != nil {
		t.Fatal(err)
	}
	// The overwrite lands after the stamp pin but before the reader's first
	// fetch: the fetch must travel back to the pinned version.
	setNodeVal(t, w, seg, 0, 3)
	if v := getNodeVal(t, r, seg, 0); v != 2 {
		t.Fatalf("cold as-of read = %d, want 2", v)
	}
	if err := r.EndSnapshot(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Snapshot().SnapFetches; got == fetchesBefore {
		t.Fatal("cold snapshot read never hit SnapFetchSeg")
	}

	if err := r.BeginSnapshot(); err != nil {
		t.Fatal(err)
	}
	if v := getNodeVal(t, r, seg, 0); v != 3 {
		t.Fatalf("fresh snapshot read = %d, want 3", v)
	}
	if err := r.EndSnapshot(); err != nil {
		t.Fatal(err)
	}
}

// snapSpy records the data section of each SnapFetchSeg of seg: the slice the
// session was handed (and goes on to swizzle in place) and a copy of its
// bytes as the server returned them.
type snapSpy struct {
	proto.Conn
	seg       proto.SegKey
	got, sent [][]byte
}

func (c *snapSpy) SnapFetchSeg(client uint32, snap uint64, seg proto.SegKey) ([]byte, []byte, []byte, error) {
	sl, ov, data, err := c.Conn.SnapFetchSeg(client, snap, seg)
	if err == nil && seg == c.seg {
		c.got = append(c.got, data)
		c.sent = append(c.sent, bytes.Clone(data))
	}
	return sl, ov, data, err
}

// TestDirectHandleSnapshotLeavesChainImageIntact: what a proto.Conn returns
// is the caller's to write to, whatever the Conn. The mapper swizzles the
// references of a fetched data section in place; on a direct server handle
// that section used to be the version chain's own image, so the first
// snapshot reader of an object with a reference rewrote the retained version
// under every later reader of the same stamp.
func TestDirectHandleSnapshotLeavesChainImageIntact(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	w := openDirect(t, srv, "writer")
	td, err := w.RegisterType(nodeType)
	if err != nil {
		t.Fatal(err)
	}
	segA, _ := w.CreateSegment(1, 1, 2, -1)
	segB, _ := w.CreateSegment(1, 1, 2, -1)
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	b, err := w.CreateObject(segB, td.ID, nodeBytes(2))
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.CreateObject(segA, td.ID, nodeBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	objA, _ := w.Deref(a)
	if err := objA.SetRefField(0, b); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	spy := &snapSpy{Conn: srv, seg: segA}
	var readers [2]*Session
	for i := range readers {
		if readers[i], err = Open(spy, "reader", "testdb", false); err != nil {
			t.Fatal(err)
		}
		if err := readers[i].BeginSnapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if s0, s1 := readers[0].SnapStamp(), readers[1].SnapStamp(); s0 != s1 {
		t.Fatalf("snapshots pinned stamps %d and %d, want one stamp", s0, s1)
	}
	// Overwriting A after the pin moves its as-of image into the version chain.
	hits := srv.VersionStats().ChainHits
	setNodeVal(t, w, segA, 0, 9)

	for i, r := range readers {
		if v := getNodeVal(t, r, segA, 0); v != 1 {
			t.Fatalf("reader %d: as-of value = %d, want 1", i, v)
		}
		addr, _ := r.AddrOfSlot(segA, 0)
		head, err := r.Deref(addr)
		if err != nil {
			t.Fatal(err)
		}
		next, err := head.RefField(0)
		if err != nil {
			t.Fatalf("reader %d: reference field: %v", i, err)
		}
		if objB, err := r.Deref(next); err != nil || nodeVal(objB) != 2 {
			t.Fatalf("reader %d: chased A -> B: %v", i, err)
		}
	}
	if n := srv.VersionStats().ChainHits - hits; n != 2 || len(spy.got) != 2 {
		t.Fatalf("%d chain hits over %d fetches of A, want 2 over 2", n, len(spy.got))
	}
	if bytes.Equal(spy.got[0], spy.sent[0]) {
		t.Fatal("the first reader never swizzled its image: the test exercises nothing")
	}
	if !bytes.Equal(spy.sent[1], spy.sent[0]) {
		t.Fatal("the second reader was served an image the first reader had swizzled")
	}
	for _, r := range readers {
		if err := r.EndSnapshot(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotWritesRefused pins the read-only contract: every mutation and
// every lock-taking path fails with ErrSnapshotRead (or ErrSnapLarge for
// large objects, whose fetch is lock-coupled), and the session stays usable.
func TestSnapshotWritesRefused(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	w := openDirect(t, srv, "writer")
	seg := snapSetup(t, srv, w)
	td, err := w.RegisterType(nodeType)
	if err != nil {
		t.Fatal(err)
	}
	largeSeg, err := w.CreateSegment(1, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.CreateLarge(largeSeg, 0, make([]byte, 30_000)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	r := openDirect(t, srv, "ro")
	if _, err := r.RegisterType(nodeType); err != nil {
		t.Fatal(err)
	}
	if err := r.BeginSnapshot(); err != nil {
		t.Fatal(err)
	}
	addr, err := r.AddrOfSlot(seg, 0)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := r.Deref(addr)
	if err != nil {
		t.Fatal(err)
	}
	// The write faults; the fault layer flattens the handler's refusal into
	// an ErrViolation, so match on the message.
	if err := obj.Write(8, make([]byte, 8)); err == nil ||
		!strings.Contains(err.Error(), ErrSnapshotRead.Error()) {
		t.Fatalf("Write in snapshot: %v, want ErrSnapshotRead", err)
	}
	if _, err := r.CreateObject(seg, td.ID, nodeBytes(9)); !errors.Is(err, ErrSnapshotRead) {
		t.Fatalf("CreateObject in snapshot: %v, want ErrSnapshotRead", err)
	}
	if _, err := r.CreateLarge(seg, td.ID, make([]byte, 20_000)); !errors.Is(err, ErrSnapshotRead) {
		t.Fatalf("CreateLarge in snapshot: %v, want ErrSnapshotRead", err)
	}
	if err := r.DeleteObject(addr); !errors.Is(err, ErrSnapshotRead) {
		t.Fatalf("DeleteObject in snapshot: %v, want ErrSnapshotRead", err)
	}
	if err := r.LockObject(addr, false); !errors.Is(err, ErrSnapshotRead) {
		t.Fatalf("LockObject in snapshot: %v, want ErrSnapshotRead", err)
	}
	laddr, err := r.AddrOfSlot(largeSeg, 0)
	if err != nil {
		t.Fatal(err)
	}
	lobj, err := r.Deref(laddr)
	if err == nil {
		_, err = lobj.Bytes()
	}
	if err == nil || !strings.Contains(err.Error(), ErrSnapLarge.Error()) {
		t.Fatalf("large object in snapshot: %v, want ErrSnapLarge", err)
	}
	if err := r.EndSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := r.EndSnapshot(); !errors.Is(err, ErrNoSnap) {
		t.Fatalf("double EndSnapshot: %v, want ErrNoSnap", err)
	}

	// The session is intact: a plain transaction still works.
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	if v := getNodeVal(t, r, seg, 0); v != 1 {
		t.Fatalf("post-snapshot read = %d, want 1", v)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotZeroLocks pins the perf claim at its root: a snapshot read
// phase — open, warm read, cold fetch, close — and a snapshot StreamScan over
// an rpc peer make zero lock-manager acquisitions, while the 2PL baseline read
// demonstrably does not. The server's half of it holds by construction (the
// reader and runScan have no lock manager, DESIGN.md §4f); this is the
// end-to-end measurement.
func TestSnapshotZeroLocks(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	w := openDirect(t, srv, "writer")
	td, err := w.RegisterType(nodeType)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := w.CreateSegment(1, 1, 4, -1)
	if err != nil {
		t.Fatal(err)
	}
	seg2, err := w.CreateSegment(1, 1, 4, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []proto.SegKey{seg, seg2} {
		if _, err := w.CreateObject(k, td.ID, nodeBytes(7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	r := openDirect(t, srv, "reader")
	if _, err := r.RegisterType(nodeType); err != nil {
		t.Fatal(err)
	}
	// Warm seg (but not seg2) so the snapshot exercises both cache paths.
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	getNodeVal(t, r, seg, 0)
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}

	before := srv.LockStats()
	if err := r.BeginSnapshot(); err != nil {
		t.Fatal(err)
	}
	if v := getNodeVal(t, r, seg, 0); v != 7 {
		t.Fatalf("warm snapshot read = %d", v)
	}
	if v := getNodeVal(t, r, seg2, 0); v != 7 {
		t.Fatalf("cold snapshot read = %d", v)
	}
	if err := r.EndSnapshot(); err != nil {
		t.Fatal(err)
	}
	after := srv.LockStats()
	if after.Acquires != before.Acquires {
		t.Fatalf("snapshot read phase acquired %d locks, want 0",
			after.Acquires-before.Acquires)
	}

	// The pushed path: SnapScanStart's cursor reads every image as of the
	// stamp, while a writer commits underneath it.
	const fileID, nSegs, objsPer, blobLen = 9, 3, 4, 64
	segs := populateScanFile(t, w, fileID, nSegs, objsPer, blobLen)
	sc, remote := openRemote(t, srv, "scanner")
	defer func() { _ = remote.Close() }()
	if _, err := sc.RegisterType(blobType); err != nil {
		t.Fatal(err)
	}
	if err := sc.BeginSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := w.Begin(); err != nil { // supersede one image: a chain hit, not a disk read
		t.Fatal(err)
	}
	if _, err := w.CreateObject(segs[0], td.ID, nodeBytes(9)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	before = srv.LockStats()
	n := 0
	if err := sc.StreamScan(fileID, func(vmem.Addr, *swizzle.Object) error { n++; return nil }); err != nil {
		t.Fatalf("snapshot StreamScan: %v", err)
	}
	if n != nSegs*objsPer {
		t.Fatalf("snapshot scan visited %d objects, want %d", n, nSegs*objsPer)
	}
	if err := sc.EndSnapshot(); err != nil {
		t.Fatal(err)
	}
	if after = srv.LockStats(); after.Acquires != before.Acquires {
		t.Fatalf("snapshot stream scan acquired %d locks, want 0", after.Acquires-before.Acquires)
	}

	// Sanity check the meter itself: the strict-2PL baseline read acquires.
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	addr, err := r.AddrOfSlot(seg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.LockObject(addr, false); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	if srv.LockStats().Acquires == after.Acquires {
		t.Fatal("baseline S lock left no trace in the lock stats")
	}
}

// TestSnapshotStreamScanConsistent is the acceptance regression for the
// snapshot streaming scan: concurrent commits — before and in the middle of
// the scan — must not leak into the scanned image.
func TestSnapshotStreamScanConsistent(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	w := openDirect(t, srv, "updater")
	r, remote := openRemote(t, srv, "scanner")
	defer func() { _ = remote.Close() }()
	const fileID, nSegs, objsPer, blobLen = 9, 4, 8, 64
	segs := populateScanFile(t, w, fileID, nSegs, objsPer, blobLen)
	if _, err := r.RegisterType(blobType); err != nil {
		t.Fatal(err)
	}

	paint := func(segs []proto.SegKey, fill byte) {
		t.Helper()
		buf := make([]byte, blobLen)
		for i := range buf {
			buf[i] = fill
		}
		if err := w.Begin(); err != nil {
			t.Fatal(err)
		}
		for _, k := range segs {
			for j := 0; j < objsPer; j++ {
				addr, err := w.AddrOfSlot(k, j)
				if err != nil {
					t.Fatal(err)
				}
				obj, err := w.Deref(addr)
				if err != nil {
					t.Fatal(err)
				}
				if err := obj.Write(0, buf); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	paint(segs, 0xAA)

	countFill := func(fill byte) int {
		t.Helper()
		n := 0
		err := r.StreamScan(fileID, func(_ vmem.Addr, obj *swizzle.Object) error {
			b, err := obj.Bytes()
			if err != nil {
				return err
			}
			for i := range b {
				if b[i] != fill {
					t.Fatalf("scanned byte %d = %#x, want %#x", i, b[i], fill)
				}
			}
			n++
			return nil
		})
		if err != nil {
			t.Fatalf("StreamScan: %v", err)
		}
		return n
	}

	if err := r.BeginSnapshot(); err != nil {
		t.Fatal(err)
	}
	// Half the file is overwritten after the pin, the other half mid-scan.
	paint(segs[:nSegs/2], 0xBB)
	painted := false
	n := 0
	err := r.StreamScan(fileID, func(_ vmem.Addr, obj *swizzle.Object) error {
		if !painted {
			painted = true
			paint(segs[nSegs/2:], 0xBB)
		}
		b, err := obj.Bytes()
		if err != nil {
			return err
		}
		for i := range b {
			if b[i] != 0xAA {
				t.Fatalf("snapshot scan saw byte %d = %#x, want 0xAA", i, b[i])
			}
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatalf("snapshot StreamScan: %v", err)
	}
	if n != nSegs*objsPer {
		t.Fatalf("snapshot scan visited %d objects, want %d", n, nSegs*objsPer)
	}
	if err := r.EndSnapshot(); err != nil {
		t.Fatal(err)
	}

	// A fresh snapshot is past both commits: the whole file reads 0xBB.
	if err := r.BeginSnapshot(); err != nil {
		t.Fatal(err)
	}
	if n := countFill(0xBB); n != nSegs*objsPer {
		t.Fatalf("fresh snapshot scan visited %d objects, want %d", n, nSegs*objsPer)
	}
	if err := r.EndSnapshot(); err != nil {
		t.Fatal(err)
	}
	goleak.Check(t, "server.")
}
