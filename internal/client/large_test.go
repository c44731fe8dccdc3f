package client

import (
	"bytes"
	"testing"

	"bess/internal/proto"
	"bess/internal/server"
)

// readLarge reads the large object at slot of seg in s's open transaction or
// snapshot.
func readLarge(t *testing.T, s *Session, seg proto.SegKey, slot int) []byte {
	t.Helper()
	addr, err := s.AddrOfSlot(seg, slot)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := s.Deref(addr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := obj.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// createLarge creates a large object holding content in seg, in one
// transaction of w, and returns its slot.
func createLarge(t *testing.T, w *Session, seg proto.SegKey, content []byte) int {
	t.Helper()
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	addr, err := w.CreateLarge(seg, 0, content)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := w.Deref(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	return obj.Slot
}

// replaceLarge replaces the large object at slot of seg with one holding
// content, in one transaction of w: the object is deleted, and the new one
// takes its slot.
func replaceLarge(t *testing.T, w *Session, seg proto.SegKey, slot int, content []byte) {
	t.Helper()
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	addr, err := w.AddrOfSlot(seg, slot)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DeleteObject(addr); err != nil {
		t.Fatal(err)
	}
	if addr, err = w.CreateLarge(seg, 0, content); err != nil {
		t.Fatal(err)
	}
	if obj, err := w.Deref(addr); err != nil || obj.Slot != slot {
		t.Fatalf("the replacement is at %v (%v), want slot %d", obj, err, slot)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestLargeObjectSnapshotAsOfStamp: a snapshot reads a large object as of its
// stamp while a later commit replaces it — the segment's as-of image names
// the old content segment, which is fetched as of the stamp like any other —
// and a transaction after it reads the replacement, whether the reader is
// linked to the server or reaches it over an rpc peer.
func TestLargeObjectSnapshotAsOfStamp(t *testing.T) {
	for _, via := range []string{"server", "remote"} {
		t.Run(via, func(t *testing.T) {
			srv := server.NewMem(1)
			defer srv.Close()
			w := openDirect(t, srv, "writer")
			r := openDirect(t, srv, "reader")
			if via == "remote" {
				r, _ = openRemote(t, srv, "reader")
			}
			seg, err := w.CreateSegment(1, 1, 2, -1)
			if err != nil {
				t.Fatal(err)
			}
			old, next := bytes.Repeat([]byte("old large "), 2000), bytes.Repeat([]byte("next large "), 1500)
			slot := createLarge(t, w, seg, old)
			if err := r.BeginSnapshot(); err != nil {
				t.Fatal(err)
			}
			replaceLarge(t, w, seg, slot, next)
			if got := readLarge(t, r, seg, slot); !bytes.Equal(got, old) {
				t.Fatalf("the snapshot reads %d bytes, want the %d it was opened over", len(got), len(old))
			}
			if err := r.EndSnapshot(); err != nil {
				t.Fatal(err)
			}
			if err := r.Begin(); err != nil {
				t.Fatal(err)
			}
			if got := readLarge(t, r, seg, slot); !bytes.Equal(got, next) {
				t.Fatalf("after the snapshot the object reads %d bytes, want the replacement's %d", len(got), len(next))
			}
			if err := r.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLargeObjectCalledBack: a reader's read of a large object fetches two
// segments through the one read pipeline — the object's and its content's —
// and keeps them cached; a writer's X on the object's segment calls the copy
// back, and the reader's next read sees the new content.
func TestLargeObjectCalledBack(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	w := openDirect(t, srv, "writer")
	r := openDirect(t, srv, "reader")
	seg, err := w.CreateSegment(1, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	old, next := bytes.Repeat([]byte("cached "), 3000), bytes.Repeat([]byte("called back "), 1000)
	slot := createLarge(t, w, seg, old)
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	fetches := srv.Snapshot().SlottedFetches
	if got := readLarge(t, r, seg, slot); !bytes.Equal(got, old) {
		t.Fatalf("first read: %d bytes, want %d", len(got), len(old))
	}
	if d := srv.Snapshot().SlottedFetches - fetches; d != 2 {
		t.Fatalf("the read fetched %d segments, want 2: the object's and its content's", d)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	drops := r.Snapshot().Drops
	replaceLarge(t, w, seg, slot, next)
	if r.Snapshot().Drops == drops {
		t.Fatal("the writer's X did not call back the reader's copy")
	}
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	if got := readLarge(t, r, seg, slot); !bytes.Equal(got, next) {
		t.Fatalf("after the callback the object reads %d bytes, want the new %d", len(got), len(next))
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestReplacedLargeObjectReleasesItsRange: a large object deleted and created
// again in its slot, ten times in one session, gives its reserved range back
// each time, so dropping every cached segment leaves no frame mapped and only
// the slotted reservations reserved. The old ranges used to stay reserved and
// mapped for the session's life.
func TestReplacedLargeObjectReleasesItsRange(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	w := openDirect(t, srv, "writer")
	seg, err := w.CreateSegment(1, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("twenty KB "), 2048)
	slot := createLarge(t, w, seg, content)
	if err := w.DropAllCached(); err != nil {
		t.Fatal(err)
	}
	before := w.space.Snapshot()
	for i := range 10 {
		content[0] = byte(i)
		replaceLarge(t, w, seg, slot, content)
	}
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	if got := readLarge(t, w, seg, slot); !bytes.Equal(got, content) {
		t.Fatalf("the last replacement reads %d bytes, want its %d", len(got), len(content))
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.DropAllCached(); err != nil {
		t.Fatal(err)
	}
	// Each replacement's content is a segment of its own, whose slotted
	// reservation stays, as every segment's does.
	if st := w.space.Snapshot(); st.MappedFrames != 0 || st.ReservedFrames != before.ReservedFrames+10 {
		t.Fatalf("after dropping every copy: %d frames mapped (want 0), %d reserved (want %d)",
			st.MappedFrames, st.ReservedFrames, before.ReservedFrames+10)
	}
}
