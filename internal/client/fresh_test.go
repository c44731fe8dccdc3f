package client

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"bess/internal/nodeserver"
	"bess/internal/proto"
	"bess/internal/rpc"
	"bess/internal/segment"
	"bess/internal/server"
	"bess/internal/swizzle"
	"bess/internal/vmem"
)

// A segment's creator never fetches it: the image is built from the reply of
// CreateSegment (fetcher.image). These tests hold that image to the server's
// own, pin what a fresh segment costs in messages, and check that the note a
// creation leaves is a registered copy like any other — called back, dropped,
// and never built from afterwards.

// conns returns the three ways a session reaches a server: linked directly,
// over rpc, and through a node server.
func conns(t *testing.T, srv *server.Server) map[string]proto.Conn {
	t.Helper()
	pipe := func() *Remote {
		cEnd, sEnd := rpc.Pipe()
		server.ServePeer(srv, sEnd)
		return NewRemote(cEnd)
	}
	ns, err := nodeserver.New(pipe(), "node", 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]proto.Conn{"server": srv, "remote": pipe(), "node": ns}
}

// TestCreatedImageIsTheServers: for several geometries — data sizes the buddy
// allocator rounds up included — the image the creator builds is byte for byte
// what FetchSeg returns, through every kind of Conn.
func TestCreatedImageIsTheServers(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	shapes := []struct{ slotted, data, granted int }{
		{1, 1, 1}, {1, 2, 2}, {1, 3, 4}, {2, 5, 8}, {3, 16, 16}, {1, 100, 128},
	}
	for name, conn := range conns(t, srv) {
		s, err := Open(conn, "creator-"+name, "testdb", true)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%s/%d+%d", name, sh.slotted, sh.data), func(t *testing.T) {
				key, err := s.CreateSegment(7, sh.slotted, sh.data, -1)
				if err != nil {
					t.Fatal(err)
				}
				built, err := s.fetch.image(segID(key))
				if err != nil {
					t.Fatal(err)
				}
				if got := len(built.Data) / 4096; got != sh.granted {
					t.Fatalf("built %d data pages, the allocator grants %d for a request of %d", got, sh.granted, sh.data)
				}
				sl, ov, data, err := conn.FetchSeg(s.client, key)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(built.Slotted, sl) {
					t.Errorf("slotted image differs from the server's:\nbuilt  %x\nserver %x", built.Slotted[:128], sl[:128])
				}
				if !bytes.Equal(built.Data, data) {
					t.Errorf("data image differs from the server's (%d vs %d bytes)", len(built.Data), len(data))
				}
				if len(built.Overflow) != 0 || len(ov) != 0 {
					t.Errorf("a fresh segment has no overflow: built %d bytes, server %d", len(built.Overflow), len(ov))
				}
				// Both verify from their first read: the header's data
				// checksum is the zero-page table's.
				for who, img := range map[string]*proto.SegImage{"built": built, "server": {Slotted: sl, Data: data}} {
					dec, err := segment.DecodeSlotted(img.Slotted)
					if err == nil {
						err = dec.VerifyData(img.Data)
					}
					if err != nil {
						t.Errorf("%s image does not verify: %v", who, err)
					}
				}
			})
		}
	}
}

// TestFreshSegmentRoundTrips: creating a segment inside a transaction, filling
// it and committing is CreateSegment + Commit. Created before Begin it takes no
// lock at birth, so the first CreateObject pays the Lock — and still no SegInfo
// and no FetchSeg.
func TestFreshSegmentRoundTrips(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	s, r := openRemote(t, srv, "loader")
	td, err := s.RegisterType(nodeType)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(seg proto.SegKey) {
		t.Helper()
		for i := 0; i < 16; i++ {
			if _, err := s.CreateObject(seg, td.ID, nodeBytes(uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var segs []proto.SegKey

	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	before := r.Calls()
	seg, err := s.CreateSegment(1, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	fill(seg)
	if d := r.Calls() - before; d != 2 {
		t.Errorf("a segment created and filled inside a transaction cost %d RPCs, want 2 (CreateSegment + Commit)", d)
	}
	segs = append(segs, seg)

	before = r.Calls()
	if seg, err = s.CreateSegment(1, 1, 2, -1); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	fill(seg)
	if d := r.Calls() - before; d != 4 {
		t.Errorf("a segment created before Begin cost %d RPCs, want 4 (CreateSegment + NewTx + Lock + Commit)", d)
	}
	segs = append(segs, seg)

	// What was committed out of locally built images is what the server has.
	rd := openDirect(t, srv, "reader")
	if err := rd.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		for i := 0; i < 16; i++ {
			a, err := rd.AddrOfSlot(seg, i)
			if err != nil {
				t.Fatal(err)
			}
			obj, err := rd.Deref(a)
			if err != nil {
				t.Fatal(err)
			}
			if nodeVal(obj) != uint64(i) {
				t.Fatalf("segment %v slot %d reads %d", seg, i, nodeVal(obj))
			}
		}
	}
	if err := rd.Commit(); err != nil {
		t.Fatal(err)
	}
}

// writeSlot0 has s put val into seg's slot 0 (creating the object if the
// segment is empty) in a transaction of its own.
func writeSlot0(t *testing.T, s *Session, seg proto.SegKey, val uint64) {
	t.Helper()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	var obj0 *swizzle.Object
	err := s.ScanSegment(seg, func(_ vmem.Addr, obj *swizzle.Object) error {
		if obj.Slot == 0 {
			obj0 = obj
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if obj0 != nil {
		err = obj0.Write(0, nodeBytes(val))
	} else {
		_, err = s.CreateObject(seg, s.Types().LookupName(nodeType.Name).ID, nodeBytes(val))
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}

// readSlot0 has s read seg's slot 0 in a transaction of its own; an empty
// segment reads as 0.
func readSlot0(t *testing.T, s *Session, seg proto.SegKey) uint64 {
	t.Helper()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}()
	var val uint64
	err := s.ScanSegment(seg, func(_ vmem.Addr, obj *swizzle.Object) error {
		if obj.Slot == 0 {
			val = nodeVal(obj)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return val
}

// TestCreatorIsCalledBack: the creator holds a copy from the moment of
// creation, so another client's write calls it back — whether the creator has
// loaded the segment or only holds the note of having created it — and its
// next touch fetches the other's commit. With the holder record forgotten the
// creator would go on reading its own image.
func TestCreatorIsCalledBack(t *testing.T) {
	for _, touched := range []bool{true, false} {
		for _, inTx := range []bool{true, false} {
			t.Run(fmt.Sprintf("loaded=%v/inTx=%v", touched, inTx), func(t *testing.T) {
				srv := server.NewMem(1)
				defer srv.Close()
				a := openDirect(t, srv, "creator")
				b, _ := openRemote(t, srv, "writer")
				if _, err := a.RegisterType(nodeType); err != nil {
					t.Fatal(err)
				}
				if _, err := b.RegisterType(nodeType); err != nil {
					t.Fatal(err)
				}
				if inTx {
					if err := a.Begin(); err != nil {
						t.Fatal(err)
					}
				}
				seg, err := a.CreateSegment(1, 1, 2, -1)
				if err != nil {
					t.Fatal(err)
				}
				if inTx {
					if err := a.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				if touched {
					if got := readSlot0(t, a, seg); got != 0 {
						t.Fatalf("a fresh segment reads %d", got)
					}
				}
				callbacks := srv.Snapshot().Callbacks
				writeSlot0(t, b, seg, 42)
				if d := srv.Snapshot().Callbacks - callbacks; d != 1 {
					t.Fatalf("the writer's lock issued %d callbacks, want 1: to the creator", d)
				}
				if drops := a.Snapshot().Drops; drops != 1 {
					t.Fatalf("the creator accepted %d revocations, want 1", drops)
				}
				if got := readSlot0(t, a, seg); got != 42 {
					t.Fatalf("the creator reads %d after the writer committed 42: it served its own image", got)
				}
			})
		}
	}
}

// TestAbortedCreationBuildsNothing: the segment of an aborted creator stays
// (DDL is redo-only), but the creator gives its copy up with the abort — in the
// same message as the copies it dirtied — so it is not called back for it and
// what it reads next is the server's.
func TestAbortedCreationBuildsNothing(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	a, r := openRemote(t, srv, "creator")
	b := openDirect(t, srv, "writer")
	if _, err := a.RegisterType(nodeType); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RegisterType(nodeType); err != nil {
		t.Fatal(err)
	}
	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	seg, err := a.CreateSegment(1, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	dirtied, err := a.CreateSegment(1, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.CreateObject(dirtied, a.Types().LookupName(nodeType.Name).ID, nodeBytes(1)); err != nil {
		t.Fatal(err)
	}
	before := r.Calls()
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	if d := r.Calls() - before; d != 2 {
		t.Errorf("abort cost %d RPCs, want 2 (one Released for both segments + Abort)", d)
	}
	callbacks := srv.Snapshot().Callbacks
	writeSlot0(t, b, seg, 7)
	if d := srv.Snapshot().Callbacks - callbacks; d != 0 {
		t.Errorf("the writer's lock issued %d callbacks: the copy table still names the aborted creator", d)
	}
	if got := readSlot0(t, a, seg); got != 7 {
		t.Fatalf("the aborted creator reads %d after the writer committed 7: it built the image of a segment it gave up", got)
	}
}

// TestDroppedCreationBuildsNothing: DropAllCached gives up the note of a
// segment the session created and never looked at, like any cached copy.
func TestDroppedCreationBuildsNothing(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	a, r := openRemote(t, srv, "creator")
	seg, err := a.CreateSegment(1, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.DropAllCached(); err != nil {
		t.Fatal(err)
	}
	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	before := r.Calls()
	if err := a.ScanSegment(seg, func(vmem.Addr, *swizzle.Object) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if d := r.Calls() - before; d != 1 {
		t.Errorf("touching a created-then-dropped segment cost %d RPCs, want 1: the FetchSeg a dropped copy owes", d)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCreatedSegmentIsBornLocked: a segment created inside a transaction is
// X-locked for it before anyone can find it, so a second client's Lock waits
// for that transaction's end.
func TestCreatedSegmentIsBornLocked(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	a := openDirect(t, srv, "creator")
	b := openDirect(t, srv, "other")
	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	seg, err := a.CreateSegment(1, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Begin(); err != nil {
		t.Fatal(err)
	}
	btx, _ := b.TxID()
	locked := make(chan error, 1)
	go func() { locked <- srv.Lock(b.Client(), btx, seg, proto.LockX) }()
	select {
	case err := <-locked:
		t.Fatalf("the second client's Lock returned (%v) while the creating transaction is open", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-locked:
		if err != nil {
			t.Fatalf("Lock after the creator's commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the second client's Lock still waits after the creating transaction ended")
	}
	if err := b.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCannotCreateSegment: a snapshot session is read-only, DDL
// included.
func TestSnapshotCannotCreateSegment(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	s := openDirect(t, srv, "snap")
	if err := s.BeginSnapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateSegment(1, 1, 2, -1); !errors.Is(err, ErrSnapshotRead) {
		t.Fatalf("CreateSegment in a snapshot: %v, want ErrSnapshotRead", err)
	}
	if err := s.EndSnapshot(); err != nil {
		t.Fatal(err)
	}
	if n := srv.Inspect().Databases[0].Segments; n != 0 {
		t.Fatalf("the refused CreateSegment left %d segments", n)
	}
}

// failingRelease is a Conn whose Released fails.
type failingRelease struct {
	proto.Conn
	err error
}

func (f *failingRelease) Released(uint32, []proto.SegKey) error { return f.err }

// TestReleaseErrorsAreReported: a failed Released leaves the server's copy
// table naming a client that holds nothing, so it is not swallowed —
// DropAllCached returns it and Abort joins it into its own error.
func TestReleaseErrorsAreReported(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	lost := errors.New("release lost")
	s, err := Open(&failingRelease{Conn: srv, err: lost}, "unlucky", "testdb", true)
	if err != nil {
		t.Fatal(err)
	}
	td, err := s.RegisterType(nodeType)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := s.CreateSegment(1, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DropAllCached(); !errors.Is(err, lost) {
		t.Fatalf("DropAllCached: %v, want the Released error", err)
	}
	if err := s.DropAllCached(); err != nil {
		t.Fatalf("DropAllCached with nothing cached: %v (it has nothing to tell the server)", err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateObject(seg, td.ID, nodeBytes(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Abort(); !errors.Is(err, lost) {
		t.Fatalf("Abort: %v, want the Released error joined in", err)
	}
	if _, in := s.TxID(); in {
		t.Fatal("the failed release left the transaction open")
	}
}
