package client

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"bess/internal/nodeserver"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/rpc"
	"bess/internal/segment"
	"bess/internal/server"
	"bess/internal/swizzle"
	"bess/internal/vmem"
)

// A segment's creator never fetches it: the image is built from the geometry
// of the run pair it was made of (fetcher.image), and the commit that
// publishes it makes the creator a holder. These tests hold that image to the
// server's own, pin what a fresh segment costs in messages, check that nobody
// else finds a segment before its publish and that an abort gives its runs
// back, and that the note a creation leaves is, once published, a registered
// copy like any other — called back, dropped, and never built from afterwards.

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
// allocator rounds up included — the segment the creator builds, decoded, is
// encoded byte for byte as FetchSeg returns it, through every kind of Conn.
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
				h, err := s.fetch.image(segID(key))
				if err != nil {
					t.Fatal(err)
				}
				if want := bytes.Clone(h.img.Slotted); h.built == nil || !bytes.Equal(h.built.EncodeSlots(), want) {
					t.Fatal("a created segment's image was not built, or is not its segment's encoding")
				}
				built := h.img
				publish(t, s)
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

// publish has s commit an empty transaction, which publishes the segments it
// created.
func publish(t *testing.T, s *Session) {
	t.Helper()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestFreshSegmentRoundTrips: creating a segment inside a transaction, filling
// it and committing is the session's first ReserveSegments + Commit. The next
// one, created before Begin, draws a batch of two (ReserveSegments + NewTx +
// Commit), and the one after it costs NewTx + Commit: no Lock (the commit
// that publishes a segment takes X), no SegInfo and no FetchSeg.
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
		t.Errorf("a segment created and filled inside a transaction cost %d RPCs, want 2 (ReserveSegments + Commit)", d)
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
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if seg, err = s.CreateSegment(1, 1, 2, -1); err != nil {
		t.Fatal(err)
	}
	fill(seg)
	segs = append(segs, seg)
	if d := r.Calls() - before; d != 5 {
		t.Errorf("two segments, created before Begin and inside, cost %d RPCs, want 5 (ReserveSegments + NewTx + Commit, then NewTx + Commit)", d)
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

// TestCreatorIsCalledBack: the creator holds a copy from the publish of its
// segment on, so another client's write calls it back — whether the creator
// has loaded the segment or only holds the note of having created it — and its
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
				} else if !touched {
					publish(t, a) // readSlot0's transaction publishes it otherwise
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

// TestAbortedCreationBuildsNothing: an aborted creator's segments, created
// before Begin or inside the transaction, dirtied or not, were never
// published: nothing of them is in the catalog, the abort tells the server
// nothing about them, and their runs go back to the session, whose next
// creations reuse them without a message.
func TestAbortedCreationBuildsNothing(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	a, r := openRemote(t, srv, "creator")
	b := openDirect(t, srv, "writer")
	if _, err := a.RegisterType(nodeType); err != nil {
		t.Fatal(err)
	}
	before, err := a.CreateSegment(1, 1, 2, -1)
	if err != nil {
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
	calls := r.Calls()
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	if d := r.Calls() - calls; d != 1 {
		t.Errorf("abort cost %d RPCs, want 1 (Abort; no segment to release)", d)
	}
	if segs, err := a.SegmentsOf(1); err != nil || len(segs) != 0 {
		t.Fatalf("after the abort the file lists %v (%v), want nothing", segs, err)
	}
	if segs, err := srv.SegmentsOf(a.DB(), 1); err != nil || len(segs) != 0 {
		t.Fatalf("after the abort the server lists %v (%v), want nothing", segs, err)
	}
	if err := b.Begin(); err != nil {
		t.Fatal(err)
	}
	btx, _ := b.TxID()
	if err := srv.Lock(b.Client(), btx, seg, proto.LockX); !errors.Is(err, server.ErrNoSegment) {
		t.Errorf("another client's Lock on an aborted creation: %v, want ErrNoSegment", err)
	}
	if err := b.Abort(); err != nil {
		t.Fatal(err)
	}
	calls = r.Calls()
	again := map[proto.SegKey]bool{}
	for range 3 {
		k, err := a.CreateSegment(1, 1, 2, -1)
		if err != nil {
			t.Fatal(err)
		}
		again[k] = true
	}
	if d := r.Calls() - calls; d != 0 {
		t.Errorf("three creations after the abort cost %d RPCs, want 0: the runs went back to the session", d)
	}
	if !again[before] || !again[seg] || !again[dirtied] {
		t.Errorf("the creations after the abort got %v, want the aborted segments' runs %v, %v, %v", again, before, seg, dirtied)
	}
	writeSlot0(t, a, dirtied, 7)
	if got := readSlot0(t, a, dirtied); got != 7 {
		t.Fatalf("a segment made again of an aborted creation's runs reads %d, want 7", got)
	}
}

// TestDroppedCreationBuildsNothing: DropAllCached keeps a segment the session
// has not published — no copy of anything the server has — and gives up the
// note of one it published and never looked at, like any cached copy.
func TestDroppedCreationBuildsNothing(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	a, r := openRemote(t, srv, "creator")
	seg, err := a.CreateSegment(1, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	touch := func(want int64, why string) {
		t.Helper()
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
		if d := r.Calls() - before; d != want {
			t.Errorf("touching a %s segment cost %d RPCs, want %d", why, d, want)
		}
		if err := a.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	touch(0, "created, unpublished and dropped")
	touch(1, "published and dropped") // the FetchSeg a dropped copy owes
}

// TestCreatedSegmentIsBornLocked: a segment the session created is its alone
// until the commit that publishes it: another client's Lock is refused — it
// finds no such segment, so it never waits on the creator, and the creator's
// publish never waits on it — and succeeds once the creator has committed.
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
	if err := srv.Lock(b.Client(), btx, seg, proto.LockX); !errors.Is(err, server.ErrNoSegment) {
		t.Fatalf("the second client's Lock before the publish: %v, want ErrNoSegment", err)
	}
	if _, err := srv.SegInfo(seg); !errors.Is(err, server.ErrNoSegment) {
		t.Fatalf("SegInfo before the publish: %v, want ErrNoSegment", err)
	}
	if _, _, _, err := srv.FetchSeg(b.Client(), seg); !errors.Is(err, server.ErrNoSegment) {
		t.Fatalf("FetchSeg before the publish: %v, want ErrNoSegment", err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Lock(b.Client(), btx, seg, proto.LockX); err != nil {
		t.Fatalf("Lock after the creator's commit: %v", err)
	}
	if err := b.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestFreshSegmentsCostNoMessage: 64 segments created and filled in four
// transactions, the first of each created before Begin, cost the session's
// ReserveSegments calls beyond each transaction's NewTx and Commit — one per
// batch, each batch twice the last: seven.
func TestFreshSegmentsCostNoMessage(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	for name, conn := range conns(t, srv) {
		t.Run(name, func(t *testing.T) {
			s, err := Open(conn, "loader-"+name, "testdb", true)
			if err != nil {
				t.Fatal(err)
			}
			td, err := s.RegisterType(nodeType)
			if err != nil {
				t.Fatal(err)
			}
			fid, err := conn.NewFileID(s.DB())
			if err != nil {
				t.Fatal(err)
			}
			msgs := srv.Snapshot().Messages
			var segs []proto.SegKey
			for tx := 0; tx < 4; tx++ {
				for i := 0; i < 16; i++ {
					seg, err := s.CreateSegment(fid, 1, 2, -1)
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						if err := s.Begin(); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := s.CreateObject(seg, td.ID, nodeBytes(uint64(len(segs)))); err != nil {
						t.Fatal(err)
					}
					segs = append(segs, seg)
				}
				if err := s.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if d := srv.Snapshot().Messages - msgs - 2*4; d > 8 {
				t.Errorf("64 fresh segments cost the server %d messages beyond NewTx and Commit, want at most 8", d)
			}
			listed, err := srv.SegmentsOf(s.DB(), fid)
			if err != nil || !slices.Equal(listed, segs) {
				t.Fatalf("the server lists %d segments (%v), want the 64 created, in creation order", len(listed), err)
			}
			rd := openDirect(t, srv, "reader-"+name)
			if err := rd.Begin(); err != nil {
				t.Fatal(err)
			}
			for i, seg := range segs {
				a, err := rd.AddrOfSlot(seg, 0)
				if err != nil {
					t.Fatal(err)
				}
				obj, err := rd.Deref(a)
				if err != nil {
					t.Fatal(err)
				}
				if nodeVal(obj) != uint64(i) {
					t.Fatalf("segment %d reads %d", i, nodeVal(obj))
				}
			}
			if err := rd.Commit(); err != nil {
				t.Fatal(err)
			}
		})
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
	publish(t, s)
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

// mangledCreate is a Conn that counts what each ReserveSegments asks for and,
// while mangle is set, publishes the first created segment of a commit as
// belonging to no file, which the server refuses before it changes anything.
type mangledCreate struct {
	proto.Conn
	mangle bool
	asked  []int
}

func (m *mangledCreate) ReserveSegments(client uint32, db uint32, areaHint, slottedPages, dataPages, n int) ([]proto.Reserved, error) {
	m.asked = append(m.asked, n)
	return m.Conn.ReserveSegments(client, db, areaHint, slottedPages, dataPages, n)
}

func (m *mangledCreate) Publish(client uint32, tx uint64, created []proto.Created, segs []proto.SegImage, prepare bool) error {
	if m.mangle && len(created) > 0 {
		created = slices.Clone(created)
		created[0].FileID = 0
	}
	return m.Conn.Publish(client, tx, created, segs, prepare)
}

// TestRefusedCommitGivesRunsBack: a commit the server refuses before it
// publishes anything leaves the session's created segments' runs reserved to
// it, so the failed commit gives them back to the spares as an abort does:
// the next creations reuse them without a message, and their commit
// publishes them.
func TestRefusedCommitGivesRunsBack(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	for name, conn := range conns(t, srv) {
		t.Run(name, func(t *testing.T) {
			m := &mangledCreate{Conn: conn, mangle: true}
			s, err := Open(m, "refused-"+name, "testdb", true)
			if err != nil {
				t.Fatal(err)
			}
			td, err := s.RegisterType(nodeType)
			if err != nil {
				t.Fatal(err)
			}
			fid, err := conn.NewFileID(s.DB())
			if err != nil {
				t.Fatal(err)
			}
			before, err := s.CreateSegment(fid, 1, 2, -1)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Begin(); err != nil {
				t.Fatal(err)
			}
			inside, err := s.CreateSegment(fid, 1, 2, -1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.CreateObject(inside, td.ID, nodeBytes(1)); err != nil {
				t.Fatal(err)
			}
			if err := s.Commit(); !proto.Refused(err) {
				t.Fatalf("commit: %v, want a refusal", err)
			}
			if segs, err := srv.SegmentsOf(s.DB(), fid); err != nil || len(segs) != 0 {
				t.Fatalf("after the refusal the server lists %v (%v), want nothing", segs, err)
			}
			if segs, err := s.SegmentsOf(fid); err != nil || len(segs) != 0 {
				t.Fatalf("after the refusal the session lists %v (%v), want nothing", segs, err)
			}
			m.mangle = false
			asked := len(m.asked)
			if err := s.Begin(); err != nil {
				t.Fatal(err)
			}
			again := map[proto.SegKey]bool{}
			for range 3 { // the two refused and the spare the second batch left
				k, err := s.CreateSegment(fid, 1, 2, -1)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.CreateObject(k, td.ID, nodeBytes(2)); err != nil {
					t.Fatal(err)
				}
				again[k] = true
			}
			if len(m.asked) != asked {
				t.Errorf("the creations after the refusal asked for runs %v, want none", m.asked[asked:])
			}
			if !again[before] || !again[inside] {
				t.Errorf("the creations after the refusal got %v, want the refused segments' runs %v and %v", again, before, inside)
			}
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
			if segs, err := srv.SegmentsOf(s.DB(), fid); err != nil || len(segs) != 3 {
				t.Fatalf("the server lists %v (%v), want the three segments", segs, err)
			}
		})
	}
}

// TestReserveBatchIsPerGeometry: each geometry's batches start at one and
// double on their own, so a new geometry's first creation reserves one pair
// however many another geometry's refills have asked for.
func TestReserveBatchIsPerGeometry(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	m := &mangledCreate{Conn: srv}
	s, err := Open(m, "loader", "testdb", true)
	if err != nil {
		t.Fatal(err)
	}
	for range 7 {
		if _, err := s.CreateSegment(1, 1, 2, -1); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		if _, err := s.CreateSegment(1, 1, 8, -1); err != nil {
			t.Fatal(err)
		}
	}
	if want := []int{1, 2, 4, 1, 2}; !slices.Equal(m.asked, want) {
		t.Fatalf("ReserveSegments asked for %v, want %v", m.asked, want)
	}
}

// TestPublishedEmptySegmentsReadFormatted: a segment published with no image
// at all (created, nothing written) and one published with an image that holds
// no object (one created and deleted in the publishing transaction) both read
// back as formatted segments — decoded, verified, no live object — whether the
// creator reaches the server directly or over rpc. The server writes no format
// when it publishes: the commit writes every page of the fresh runs, the
// format included when nothing ships.
func TestPublishedEmptySegmentsReadFormatted(t *testing.T) {
	for _, via := range []string{"server", "remote"} {
		t.Run(via, func(t *testing.T) {
			srv := server.NewMem(1)
			defer srv.Close()
			s := openDirect(t, srv, "creator")
			if via == "remote" {
				s, _ = openRemote(t, srv, "creator")
			}
			td, err := s.RegisterType(nodeType)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Begin(); err != nil {
				t.Fatal(err)
			}
			bare, err := s.CreateSegment(3, 1, 4, -1)
			if err != nil {
				t.Fatal(err)
			}
			emptied, err := s.CreateSegment(3, 1, 4, -1)
			if err != nil {
				t.Fatal(err)
			}
			addr, err := s.CreateObject(emptied, td.ID, nodeBytes(7))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.DeleteObject(addr); err != nil {
				t.Fatal(err)
			}
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
			if written := srv.Snapshot().FormatPages; written != 0 {
				t.Fatalf("the publish formatted %d pages; the commit writes them", written)
			}
			rd := openDirect(t, srv, "reader")
			for name, seg := range map[string]proto.SegKey{"no image": bare, "no object": emptied} {
				sl, _, data, err := srv.FetchSeg(rd.client, seg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				dec, err := segment.DecodeSlotted(sl)
				if err == nil {
					err = dec.VerifyData(data)
				}
				if err != nil {
					t.Fatalf("%s: the segment does not read back formatted: %v", name, err)
				}
				if live := dec.LiveSlots(); len(live) != 0 {
					t.Fatalf("%s: %d live objects in an empty segment", name, len(live))
				}
			}
		})
	}
}

// rotConn flips one data byte of every image FetchSeg and SnapFetchSeg return
// while rot is set: rot in transit, after the server's checks.
type rotConn struct {
	proto.Conn
	rot bool
}

func flipData(sl, ov, data []byte, err error) ([]byte, []byte, []byte, error) {
	if err == nil && len(data) > 0 {
		data[len(data)/2] ^= 0x01
	}
	return sl, ov, data, err
}

func (c *rotConn) FetchSeg(client uint32, seg proto.SegKey) ([]byte, []byte, []byte, error) {
	if !c.rot {
		return c.Conn.FetchSeg(client, seg)
	}
	return flipData(c.Conn.FetchSeg(client, seg))
}

func (c *rotConn) SnapFetchSeg(client uint32, snap uint64, seg proto.SegKey) ([]byte, []byte, []byte, error) {
	if !c.rot {
		return c.Conn.SnapFetchSeg(client, snap, seg)
	}
	return flipData(c.Conn.SnapFetchSeg(client, snap, seg))
}

// TestFetchedRotIsRefused: a created segment's image is built, not fetched,
// and handed over unverified; every image that came off the wire is checked
// as before. One flipped data byte in a live fetch, in an as-of fetch, or in
// an image held for the mapper is refused when the mapper takes the data.
func TestFetchedRotIsRefused(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	conn := &rotConn{Conn: srv}
	s, err := Open(conn, "reader", "testdb", true)
	if err != nil {
		t.Fatal(err)
	}
	key, err := s.CreateSegment(7, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	id := segID(key)
	dec, err := s.fetch.FetchSlotted(id)
	if err != nil {
		t.Fatal(err)
	}
	if data, err := s.fetch.FetchData(id, dec); err != nil || len(data) != 2*page.Size {
		t.Fatalf("the built segment: %d data bytes, %v", len(data), err)
	}
	publish(t, s)
	sl, ov, data, err := srv.FetchSeg(s.client, key)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		setup func()
	}{
		{"fetched", func() { conn.rot = true }},
		{"as-of", func() {
			conn.rot = true
			if err := s.BeginSnapshot(); err != nil {
				t.Fatal(err)
			}
		}},
		{"held", func() {
			rotten := bytes.Clone(data)
			rotten[len(rotten)/2] ^= 0x01
			s.fetch.hold(id, held{img: &proto.SegImage{Seg: key, Slotted: sl, Overflow: ov, Data: rotten}})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s.fetch.drop(id)
			c.setup()
			defer func() {
				conn.rot = false
				if s.snapMode {
					if err := s.EndSnapshot(); err != nil {
						t.Fatal(err)
					}
				}
			}()
			dec, err := s.fetch.FetchSlotted(id)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.fetch.FetchData(id, dec); !errors.Is(err, segment.ErrChecksum) {
				t.Fatalf("an image with a flipped data byte was taken: %v", err)
			}
		})
	}
}
