package client

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"bess/internal/largeobj"
	"bess/internal/proto"
	"bess/internal/rpc"
	"bess/internal/segment"
	"bess/internal/server"
	"bess/internal/swizzle"
	"bess/internal/vmem"
)

// nodeType: 16 bytes, value at [8:16], next-pointer at [0:8].
var nodeType = segment.TypeDesc{Name: "Node", Size: 16, RefOffsets: []int{0}}

func nodeBytes(val uint64) []byte {
	b := make([]byte, 16)
	binary.BigEndian.PutUint64(b[8:], val)
	return b
}

func nodeVal(obj interface {
	Read(int, []byte) error
}) uint64 {
	var b [8]byte
	if err := obj.Read(8, b[:]); err != nil {
		panic(err)
	}
	return binary.BigEndian.Uint64(b[:])
}

// openDirect returns a session linked directly to an in-memory server (the
// "open server" configuration).
func openDirect(t *testing.T, srv *server.Server, name string) *Session {
	t.Helper()
	s, err := Open(srv, name, "testdb", true)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// openRemote returns a session connected over an in-process RPC pipe.
func openRemote(t *testing.T, srv *server.Server, name string) (*Session, *Remote) {
	t.Helper()
	cEnd, sEnd := rpc.Pipe()
	server.ServePeer(srv, sEnd)
	r := NewRemote(cEnd)
	s, err := Open(r, name, "testdb", true)
	if err != nil {
		t.Fatal(err)
	}
	return s, r
}

func TestCreateCommitReadBack(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	s := openDirect(t, srv, "app")
	td, err := s.RegisterType(nodeType)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := s.CreateSegment(1, 1, 4, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	addr, err := s.CreateObject(seg, td.ID, nodeBytes(42))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetRoot("answer", addr); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// A brand-new session (cold cache) sees the committed object by name.
	s2 := openDirect(t, srv, "app2")
	if err := s2.Begin(); err != nil {
		t.Fatal(err)
	}
	obj, err := s2.Root("answer")
	if err != nil {
		t.Fatal(err)
	}
	if nodeVal(obj) != 42 {
		t.Fatalf("value = %d", nodeVal(obj))
	}
	s2.Commit()
}

func TestPointerChaseAcrossSegments(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	s := openDirect(t, srv, "app")
	td, _ := s.RegisterType(nodeType)
	segA, _ := s.CreateSegment(1, 1, 2, -1)
	segB, _ := s.CreateSegment(1, 1, 2, -1)

	s.Begin()
	b, err := s.CreateObject(segB, td.ID, nodeBytes(2))
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.CreateObject(segA, td.ID, nodeBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	objA, _ := s.Deref(a)
	if err := objA.SetRefField(0, b); err != nil {
		t.Fatal(err)
	}
	s.SetRoot("head", a)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// Fresh session chases head -> B; references survive the unswizzle /
	// ship / reswizzle round trip.
	s2 := openDirect(t, srv, "reader")
	s2.Begin()
	head, err := s2.Root("head")
	if err != nil {
		t.Fatal(err)
	}
	next, err := head.RefField(0)
	if err != nil {
		t.Fatal(err)
	}
	objB, err := s2.Deref(next)
	if err != nil {
		t.Fatal(err)
	}
	if nodeVal(objB) != 2 {
		t.Fatalf("chased value = %d", nodeVal(objB))
	}
	s2.Commit()
}

func TestAbortDiscardsChanges(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	s := openDirect(t, srv, "app")
	td, _ := s.RegisterType(nodeType)
	seg, _ := s.CreateSegment(1, 1, 2, -1)
	s.Begin()
	addr, _ := s.CreateObject(seg, td.ID, nodeBytes(7))
	s.SetRoot("r", addr)
	s.Commit()

	s.Begin()
	obj, _ := s.Root("r")
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], 99)
	if err := obj.Write(8, buf[:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}

	s.Begin()
	obj2, err := s.Root("r")
	if err != nil {
		t.Fatal(err)
	}
	if nodeVal(obj2) != 7 {
		t.Fatalf("aborted write visible: %d", nodeVal(obj2))
	}
	s.Commit()
}

func TestNoTxRejected(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	s := openDirect(t, srv, "app")
	td, _ := s.RegisterType(nodeType)
	seg, _ := s.CreateSegment(1, 1, 2, -1)
	if _, err := s.CreateObject(seg, td.ID, nodeBytes(1)); !errors.Is(err, ErrNoTx) {
		t.Fatalf("create outside tx: %v", err)
	}
	if err := s.Commit(); !errors.Is(err, ErrNoTx) {
		t.Fatalf("commit outside tx: %v", err)
	}
	s.Begin()
	if err := s.Begin(); !errors.Is(err, ErrTxActive) {
		t.Fatalf("double begin: %v", err)
	}
	s.Abort()
}

func TestInterTransactionCaching(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	s := openDirect(t, srv, "app")
	td, _ := s.RegisterType(nodeType)
	seg, _ := s.CreateSegment(1, 1, 2, -1)
	s.Begin()
	addr, _ := s.CreateObject(seg, td.ID, nodeBytes(1))
	s.Commit()

	before := srv.Snapshot()
	// Several read transactions over the same data: the cached copy serves
	// them without refetching (paper §3: data cached between transactions).
	for i := 0; i < 5; i++ {
		s.Begin()
		obj, err := s.Deref(addr)
		if err != nil {
			t.Fatal(err)
		}
		if nodeVal(obj) != 1 {
			t.Fatal("bad value")
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	after := srv.Snapshot()
	if after.SlottedFetches != before.SlottedFetches || after.DataFetches != before.DataFetches {
		t.Fatalf("warm reads refetched: %+v -> %+v", before, after)
	}
	if s.Snapshot().LocalGrants < 5 {
		t.Fatalf("local grants = %d", s.Snapshot().LocalGrants)
	}
}

func TestCallbackInvalidation(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	srv.CallbackTimeout = 500 * time.Millisecond

	writer, _ := openRemote(t, srv, "writer")
	reader, _ := openRemote(t, srv, "reader")
	td, _ := writer.RegisterType(nodeType)
	if _, err := reader.RegisterType(nodeType); err != nil {
		t.Fatal(err)
	}
	seg, _ := writer.CreateSegment(1, 1, 2, -1)

	writer.Begin()
	addr, _ := writer.CreateObject(seg, td.ID, nodeBytes(10))
	writer.SetRoot("x", addr)
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	// Reader caches the object.
	reader.Begin()
	robj, err := reader.Root("x")
	if err != nil {
		t.Fatal(err)
	}
	if nodeVal(robj) != 10 {
		t.Fatal("reader sees wrong value")
	}
	reader.Commit()

	// Writer updates: the X lock drives a callback that drops the reader's
	// idle cached copy.
	writer.Begin()
	wobj, _ := writer.Deref(addr)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], 20)
	if err := wobj.Write(8, buf[:]); err != nil {
		t.Fatal(err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	if srv.Snapshot().Callbacks == 0 {
		t.Fatal("no callbacks issued")
	}
	if reader.Snapshot().Drops == 0 {
		t.Fatal("reader kept its stale copy")
	}

	// Reader refetches and sees the new value.
	reader.Begin()
	robj2, err := reader.Root("x")
	if err != nil {
		t.Fatal(err)
	}
	if nodeVal(robj2) != 20 {
		t.Fatalf("reader sees %d after invalidation", nodeVal(robj2))
	}
	reader.Commit()
}

func TestCallbackRefusedWhileInUse(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	srv.CallbackTimeout = 200 * time.Millisecond

	writer, _ := openRemote(t, srv, "writer")
	reader, _ := openRemote(t, srv, "reader")
	td, _ := writer.RegisterType(nodeType)
	reader.RegisterType(nodeType)
	seg, _ := writer.CreateSegment(1, 1, 2, -1)
	writer.Begin()
	addr, _ := writer.CreateObject(seg, td.ID, nodeBytes(1))
	writer.SetRoot("y", addr)
	writer.Commit()

	// Reader holds the object inside an open transaction.
	reader.Begin()
	if _, err := reader.Root("y"); err != nil {
		t.Fatal(err)
	}

	// Writer's X lock cannot complete while the reader refuses callbacks.
	writer.Begin()
	wobj, _ := writer.Deref(addr)
	var buf [8]byte
	err := wobj.Write(8, buf[:])
	if err == nil {
		t.Fatal("write proceeded despite refused callback")
	}
	writer.Abort()
	if srv.Snapshot().CallbackRefusals == 0 {
		t.Fatal("no refusals recorded")
	}

	// Once the reader commits, the writer succeeds.
	reader.Commit()
	writer.Begin()
	wobj, err = writer.Deref(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := wobj.Write(8, buf[:]); err != nil {
		t.Fatal(err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDurabilityAcrossServerRestart(t *testing.T) {
	dir := t.TempDir()
	srv, err := server.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := openDirect(t, srv, "app")
	td, _ := s.RegisterType(nodeType)
	seg, _ := s.CreateSegment(1, 1, 2, -1)
	s.Begin()
	addr, _ := s.CreateObject(seg, td.ID, nodeBytes(1234))
	s.SetRoot("persist", addr)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := server.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	s2, err := Open(srv2, "app", "testdb", false)
	if err != nil {
		t.Fatal(err)
	}
	s2.Begin()
	obj, err := s2.Root("persist")
	if err != nil {
		t.Fatal(err)
	}
	if nodeVal(obj) != 1234 {
		t.Fatalf("value after restart = %d", nodeVal(obj))
	}
	s2.Commit()
}

func TestScan(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	s := openDirect(t, srv, "app")
	td, _ := s.RegisterType(nodeType)
	seg1, _ := s.CreateSegment(7, 1, 2, -1)
	seg2, _ := s.CreateSegment(7, 1, 2, -1)
	s.Begin()
	for i := 0; i < 5; i++ {
		if _, err := s.CreateObject(seg1, td.ID, nodeBytes(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 5; i < 8; i++ {
		if _, err := s.CreateObject(seg2, td.ID, nodeBytes(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Commit()

	s.Begin()
	sum := uint64(0)
	count := 0
	err := s.Scan(7, func(_ vmem.Addr, obj *swizzle.Object) error {
		sum += nodeVal(obj)
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 8 || sum != 28 {
		t.Fatalf("scan: count=%d sum=%d", count, sum)
	}
	s.Commit()
}

func TestLargeObjectTransparent(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	s := openDirect(t, srv, "app")
	seg, _ := s.CreateSegment(1, 1, 2, -1)
	content := make([]byte, 30_000)
	for i := range content {
		content[i] = byte(i * 13)
	}
	s.Begin()
	addr, err := s.CreateLarge(seg, 0, content)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	s.Begin()
	obj, err := s.Deref(addr)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Size != len(content) {
		t.Fatalf("size = %d", obj.Size)
	}
	got, err := obj.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	for i := range content {
		if got[i] != content[i] {
			t.Fatalf("byte %d: %d != %d", i, got[i], content[i])
		}
	}
	s.Commit()
}

// largeCounter is a proto.Conn that counts the FetchLarge calls it passes on.
type largeCounter struct {
	proto.Conn
	fetches int
}

func (c *largeCounter) FetchLarge(client uint32, seg proto.SegKey, slot int) ([]byte, error) {
	c.fetches++
	return c.Conn.FetchLarge(client, seg, slot)
}

// TestLargeObjectReadInItsTransaction: two large objects and a small one go
// into one segment in one transaction, and each reads back before the commit
// from the creator's own copy — no FetchLarge — and after it from another
// session's, whichever way the sessions reach the server.
func TestLargeObjectReadInItsTransaction(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	for name, conn := range conns(t, srv) {
		t.Run(name, func(t *testing.T) {
			counted := &largeCounter{Conn: conn}
			w, err := Open(counted, "creator-"+name, "testdb", true)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Begin(); err != nil {
				t.Fatal(err)
			}
			seg, err := w.CreateSegment(1, 1, 2, -1)
			if err != nil {
				t.Fatal(err)
			}
			want := [][]byte{
				bytes.Repeat([]byte("first large "), 1000),
				[]byte("a small object beside them"),
				bytes.Repeat([]byte{0xA7}, 3*4096+5),
			}
			addrs := make([]vmem.Addr, len(want))
			for i, content := range want {
				if i == 1 {
					addrs[i], err = w.CreateObject(seg, 0, content)
				} else {
					addrs[i], err = w.CreateLarge(seg, 0, content)
				}
				if err != nil {
					t.Fatalf("object %d: %v", i, err)
				}
			}
			check := func(s *Session, who string) []int {
				t.Helper()
				slots := make([]int, len(want))
				for i, addr := range addrs {
					obj, err := s.Deref(addr)
					if err != nil {
						t.Fatalf("%s: object %d: %v", who, i, err)
					}
					got, err := obj.Bytes()
					if err != nil || !bytes.Equal(got, want[i]) {
						t.Fatalf("%s: object %d reads %d bytes (%v), want %d", who, i, len(got), err, len(want[i]))
					}
					slots[i] = obj.Slot
				}
				return slots
			}
			slots := check(w, "creator before its commit")
			if counted.fetches != 0 {
				t.Fatalf("the creator fetched %d large objects it holds", counted.fetches)
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			r, err := Open(conn, "reader-"+name, "testdb", false)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Begin(); err != nil {
				t.Fatal(err)
			}
			for i, slot := range slots {
				if addrs[i], err = r.AddrOfSlot(seg, slot); err != nil {
					t.Fatal(err)
				}
			}
			check(r, "another session after the commit")
			if err := r.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestVeryLargeObjectOverConnection(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	s, _ := openRemote(t, srv, "vlo")
	store, err := s.RunStore()
	if err != nil {
		t.Fatal(err)
	}
	o, err := largeobj.Create(store, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 200_000)
	for i := range data {
		data[i] = byte(i)
	}
	if err := o.Append(data); err != nil {
		t.Fatal(err)
	}
	if err := o.Insert(1000, []byte("inserted")); err != nil {
		t.Fatal(err)
	}
	desc := o.EncodeDescriptor()

	// Reopen through a second connection.
	s2, _ := openRemote(t, srv, "vlo2")
	store2, _ := s2.RunStore()
	o2, err := largeobj.Open(store2, desc)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if err := o2.Read(1000, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "inserted" {
		t.Fatalf("read %q", buf)
	}
}

// TestRunStoreFree: the session's run store hands a freed run back to the
// server's area, so a second free of the same run is refused.
func TestRunStoreFree(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	s, _ := openRemote(t, srv, "runs")
	store, err := s.RunStore()
	if err != nil {
		t.Fatal(err)
	}
	start, granted, err := store.Alloc(4)
	if err != nil || granted < 4 {
		t.Fatalf("Alloc(4): %d pages at %d, %v", granted, start, err)
	}
	if err := store.Free(start); err != nil {
		t.Fatalf("Free of an allocated run: %v", err)
	}
	if err := store.Free(start); err == nil {
		t.Fatal("a run freed once was freed again")
	}
}

func TestDeleteObjectRemovesRootName(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	s := openDirect(t, srv, "app")
	td, _ := s.RegisterType(nodeType)
	seg, _ := s.CreateSegment(1, 1, 2, -1)
	s.Begin()
	addr, _ := s.CreateObject(seg, td.ID, nodeBytes(5))
	s.SetRoot("victim", addr)
	s.Commit()

	s.Begin()
	if err := s.DeleteObject(addr); err != nil {
		t.Fatal(err)
	}
	s.Commit()

	s.Begin()
	if _, err := s.Root("victim"); err == nil {
		t.Fatal("name survived object deletion")
	}
	s.Abort()
}

func TestDataSegmentGrowth(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	s := openDirect(t, srv, "app")
	td, _ := s.RegisterType(segment.TypeDesc{Name: "Blob", Size: 0})
	seg, _ := s.CreateSegment(1, 1, 1, -1) // one data page only
	s.Begin()
	var addrs []vmem.Addr
	// Overflow the single page; the session grows and relocates the data
	// segment, the server re-homes it at commit.
	for i := 0; i < 10; i++ {
		a, err := s.CreateObject(seg, td.ID, make([]byte, 1000))
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		addrs = append(addrs, a)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// Everything readable from a cold session.
	s2 := openDirect(t, srv, "app2")
	s2.Begin()
	for i, a := range addrs {
		// Addresses are private to a session; resolve through OIDs.
		o := s.OIDOf(a)
		obj, err := s2.DerefOID(o)
		if err != nil {
			t.Fatalf("object %d: %v", i, err)
		}
		if obj.Size != 1000 {
			t.Fatalf("object %d size %d", i, obj.Size)
		}
	}
	s2.Commit()
}

// TestReadOnlyCommitCostsNoLogForce: committing a transaction that wrote
// nothing appends no record and forces nothing, over the direct and over the
// RPC connection alike — and still ends the transaction.
func TestReadOnlyCommitCostsNoLogForce(t *testing.T) {
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
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	addr, err := w.CreateObject(seg, td.ID, nodeBytes(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetRoot("seven", addr); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	remote, _ := openRemote(t, srv, "remote-reader")
	for name, s := range map[string]*Session{"direct": openDirect(t, srv, "direct-reader"), "rpc": remote} {
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		obj, err := s.Root("seven")
		if err != nil {
			t.Fatal(err)
		}
		if nodeVal(obj) != 7 {
			t.Fatalf("%s: value = %d", name, nodeVal(obj))
		}
		next, syncs, commits := srv.Log().NextLSN(), srv.Log().Stats().Syncs, srv.Snapshot().Commits
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := srv.Log().NextLSN(); got != next {
			t.Errorf("%s: read-only commit appended %d log bytes", name, got-next)
		}
		if got := srv.Log().Stats().Syncs; got != syncs {
			t.Errorf("%s: read-only commit forced the log (%d syncs)", name, got-syncs)
		}
		if got := srv.Snapshot().Commits; got != commits+1 {
			t.Errorf("%s: commit did not reach the server (%d commits)", name, got-commits)
		}
		if err := s.Begin(); err != nil {
			t.Errorf("%s: session still in a transaction after commit: %v", name, err)
		}
		s.Abort()
	}
}

// BenchmarkCreateObjectFullSegment creates 4 KB objects in segments of 126
// data pages, the shape the benchmark's scan_stream set-up populates. Each
// create refreshes the session's mapped slotted image; that refresh must not
// checksum the 504 KB data section (segment.Seg.EncodeSlots), or a create
// costs O(segment) and filling a segment O(segment²).
func BenchmarkCreateObjectFullSegment(b *testing.B) {
	const dataPages, objSize = 126, 4000
	srv := server.NewMem(1)
	defer srv.Close()
	s, err := Open(srv, "bench", "benchdb", true)
	if err != nil {
		b.Fatal(err)
	}
	td, err := s.RegisterType(segment.TypeDesc{Name: "Blob", Size: 0})
	if err != nil {
		b.Fatal(err)
	}
	body := make([]byte, objSize)
	perSeg := dataPages * 4096 / objSize
	b.SetBytes(objSize)
	b.ResetTimer()
	for i := 0; i < b.N; {
		b.StopTimer()
		seg, err := s.CreateSegment(1, 1, dataPages, -1)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Begin(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for o := 0; o < perSeg && i < b.N; o, i = o+1, i+1 {
			if _, err := s.CreateObject(seg, td.ID, body); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := s.Abort(); err != nil {
			b.Fatal(err)
		}
		s.DropAllCached()
		b.StartTimer()
	}
}
