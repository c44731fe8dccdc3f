package server

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"bess/internal/cache"
	"bess/internal/client"
	"bess/internal/proto"
	"bess/internal/rpc"
	"bess/internal/segment"
)

// Snapshot reads have one path (DESIGN.md §7): the version chain or the disk.
// Every staged update's pre-update image is chain material, retention is by
// watermark alone, and an as-of read that finds neither is counted in
// VersionStats().Trimmed — which these tests hold at zero.

// body is a same-size object body tagged n, so overwrites keep the geometry.
func body(n int) []byte { return []byte(fmt.Sprintf("version %04d", n)) }

// update commits body(n) over object 0 of key as client cl.
func update(t *testing.T, s *Server, cl uint32, key proto.SegKey, n int) {
	t.Helper()
	img := overwriteImage(t, s, key, body(n))
	txid, _ := s.NewTx()
	if err := s.Lock(cl, txid, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(cl, txid, []proto.SegImage{img}); err != nil {
		t.Fatal(err)
	}
}

// TestAsOfOutlivesLongHistory: a snapshot keeps reading its image from the
// chain however many commits of the segment pile up on top of it — there is
// no per-segment cap, only the watermark.
func TestAsOfOutlivesLongHistory(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, body(0))
	cl, _ := s.Hello("c")
	old, _, err := s.SnapOpen(cl)
	if err != nil {
		t.Fatal(err)
	}
	const commits = 24
	mid := uint64(0)
	for n := 1; n <= commits; n++ {
		update(t, s, cl, key, n)
		if n == commits/2 {
			if mid, _, err = s.SnapOpen(cl); err != nil {
				t.Fatal(err)
			}
		}
	}
	for snap, want := range map[uint64][]byte{old: body(0), mid: body(commits / 2)} {
		if got := snapObject(t, s, cl, snap, key); !bytes.Equal(got, want) {
			t.Fatalf("snapshot %d reads %q, want %q", snap, got, want)
		}
	}
	if st := s.VersionStats(); st.Trimmed != 0 || st.Entries != commits || st.ChainHits != 2 {
		t.Fatalf("after %d commits under an open snapshot: %+v", commits, st)
	}
	// Closing the older snapshot frees what only it could reach.
	if err := s.SnapClose(cl, old); err != nil {
		t.Fatal(err)
	}
	if st := s.VersionStats(); st.Entries != commits/2 {
		t.Fatalf("after the oldest snapshot closed: %+v", st)
	}
}

// TestAsOfOpenedMidCommit: a snapshot that opens after a writer staged and
// wrote its pages, but before it committed, reads the pre-update image —
// taken when the writer staged, while no snapshot was open to ask for it.
func TestAsOfOpenedMidCommit(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, body(1))
	cl, _ := s.Hello("c")
	txid, _ := s.NewTx()
	if err := s.Lock(cl, txid, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(cl, txid, nil, []proto.SegImage{overwriteImage(t, s, key, body(2))}, true); err != nil {
		t.Fatal(err)
	}
	snap, _, err := s.SnapOpen(cl)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Decide(txid, true); err != nil {
		t.Fatal(err)
	}
	if got := snapObject(t, s, cl, snap, key); !bytes.Equal(got, body(1)) {
		t.Fatalf("snapshot opened mid-commit reads %q, want the pre-update %q", got, body(1))
	}
	if st := s.VersionStats(); st.Trimmed != 0 || st.ChainHits != 1 {
		t.Fatalf("read not served by the chain: %+v", st)
	}
}

// TestAsOfRetainsNothingUnread: with no snapshot open every pre-update image
// is dropped at its own commit — none joins a chain, not even until the next
// trim. The version clock passes a commit before the commit publishes, so
// the watermark the publication is judged by already counts it.
func TestAsOfRetainsNothingUnread(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, body(0))
	cl, _ := s.Hello("c")
	commits := 1000
	if testing.Short() {
		commits = 200
	}
	for n := 1; n <= commits; n++ {
		update(t, s, cl, key, n)
		if st := s.VersionStats(); st.Entries != 0 || st.Captures != 0 {
			t.Fatalf("commit %d with no snapshot open retained an image: %+v", n, st)
		}
	}
}

// TestAsOfCommitReadsDataOnce: applyOne's image is both the chain's
// pre-update image and the before-image of every run the commit overwrites in
// place, so a commit reads the same pages whether a snapshot is open or not.
func TestAsOfCommitReadsDataOnce(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, body(0))
	cl, _ := s.Hello("c")
	reads := func() (n int64) {
		for _, a := range s.openAreas() {
			r, _, _ := a.Stats()
			n += r
		}
		return n
	}
	commitReads := func(n int) int64 {
		img := overwriteImage(t, s, key, body(n))
		txid, _ := s.NewTx()
		if err := s.Lock(cl, txid, key, proto.LockX); err != nil {
			t.Fatal(err)
		}
		before := reads()
		if err := s.Commit(cl, txid, []proto.SegImage{img}); err != nil {
			t.Fatal(err)
		}
		return reads() - before
	}
	without := commitReads(1)
	if _, _, err := s.SnapOpen(cl); err != nil {
		t.Fatal(err)
	}
	if with := commitReads(2); with != without {
		t.Fatalf("a commit reads %d pages with a snapshot open, %d without", with, without)
	}
}

// TestAsOfChainImagesAreNeverWritten: the image a chain keeps is the buffer
// applyOne read, so nothing may write it afterwards — a commit that adds a
// large object's descriptor to the overflow run logs a new image of the run,
// and the snapshot's image still verifies against its own header.
func TestAsOfChainImagesAreNeverWritten(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, body(0))
	cl, _ := s.Hello("c")
	w, err := client.Open(s, "w", "d", false)
	if err != nil {
		t.Fatal(err)
	}
	large := func() {
		t.Helper()
		if err := w.Begin(); err != nil {
			t.Fatal(err)
		}
		if _, err := w.CreateLarge(key, 0, bytes.Repeat([]byte("L"), 5000)); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	large() // moves the overflow section to its first run
	snap, _, err := s.SnapOpen(cl)
	if err != nil {
		t.Fatal(err)
	}
	large() // writes a second descriptor into it
	sl, ov, _, err := s.SnapFetchSeg(cl, snap, key)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := segment.DecodeSlotted(sl)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.VerifyOverflow(ov); err != nil {
		t.Fatalf("the snapshot's overflow image was written after it was kept: %v", err)
	}
	if n := len(dec.LiveSlots()); n != 2 {
		t.Fatalf("snapshot sees %d live slots, want the object and one large object", n)
	}
}

// TestSnapCloseIsTheCallers: a client closes only its own snapshot. Another
// client's close is refused with cache.ErrNotOwner and the owner keeps
// reading through it; an id that is not open closes as a no-op.
func TestSnapCloseIsTheCallers(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, body(0))
	owner, _ := s.Hello("owner")
	other, _ := s.Hello("other")
	snap, _, err := s.SnapOpen(owner)
	if err != nil {
		t.Fatal(err)
	}
	update(t, s, other, key, 1)
	if err := s.SnapClose(other, snap); !errors.Is(err, cache.ErrNotOwner) {
		t.Fatalf("another client's close: %v, want cache.ErrNotOwner", err)
	}
	// Over rpc the refusal is the remote error every refusal becomes, and
	// the snapshot stays open all the same.
	cEnd, sEnd := rpc.Pipe()
	defer cEnd.Close()
	ServePeer(s, sEnd)
	var re *rpc.RemoteError
	err = rpc.Call(cEnd, proto.MethodSnapClose, &proto.SnapCloseArgs{Client: other, Snap: snap}, &proto.Empty{})
	if !errors.As(err, &re) || !strings.Contains(re.Msg, cache.ErrNotOwner.Error()) {
		t.Fatalf("another client's close over rpc: %v, want a remote %q", err, cache.ErrNotOwner)
	}
	if got := snapObject(t, s, owner, snap, key); !bytes.Equal(got, body(0)) {
		t.Fatalf("owner reads %q after the refused close, want %q", got, body(0))
	}
	if err := s.SnapClose(other, snap+1); err != nil {
		t.Fatalf("closing an id that is not open: %v", err)
	}
	if err := s.SnapClose(owner, snap); err != nil {
		t.Fatal(err)
	}
	if err := s.SnapClose(owner, snap); err != nil {
		t.Fatalf("closing twice: %v", err)
	}
	if st := s.VersionStats(); st.Entries != 0 {
		t.Fatalf("the owner's close left %+v", st)
	}
}

// TestSnapshotChurnRetainsNothing: writers commit to a few segments while
// readers open snapshots, read through them and close them — one reader
// leaving by Disconnect with its snapshots open. Every read finds its image
// (a miss panics under -tags invariants), and once the writers stop and the
// last snapshot closes the store holds nothing, at once: a close trims in
// the same section in which commits publish, so no image outlives the
// watermark.
func TestSnapshotChurnRetainsNothing(t *testing.T) {
	const writers, readers, rounds = 3, 3, 100
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	keys := make([]proto.SegKey, writers)
	for i := range keys {
		keys[i] = commitOne(t, s, db, body(0))
	}
	errs := make(chan error, writers+readers)
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, _ := s.Hello("writer")
			for n := 1; n <= rounds; n++ {
				if err := commitBody(s, cl, keys[w], body(n)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, _ := s.Hello("reader")
			for n := range rounds {
				snap, _, err := s.SnapOpen(cl)
				if err == nil {
					_, _, _, err = s.SnapFetchSeg(cl, snap, keys[(r+n)%writers])
				}
				if err == nil && (r > 0 || n < rounds/2) {
					err = s.SnapClose(cl, snap)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			if r == 0 {
				s.Disconnect(cl) // leaves with half its snapshots open
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.VersionStats(); st.Entries != 0 || st.Bytes != 0 || st.Trimmed != 0 {
		t.Fatalf("after the last snapshot closed: %+v", st)
	}
}

// commitBody commits body over object 0 of key as client cl, reporting what
// fails rather than failing the test, for callers off the test goroutine.
func commitBody(s *Server, cl uint32, key proto.SegKey, body []byte) error {
	sl, ov, data, err := s.FetchSeg(cl, key)
	if err != nil {
		return err
	}
	seg, err := segment.DecodeSlotted(sl)
	if err != nil {
		return err
	}
	seg.Overflow, seg.Data = ov, data
	if err := seg.UpdateObject(0, body); err != nil {
		return err
	}
	txid, _ := s.NewTx()
	if err := s.Lock(cl, txid, key, proto.LockX); err != nil {
		return err
	}
	return s.Commit(cl, txid, []proto.SegImage{{Seg: key, Slotted: seg.EncodeSlotted(), Overflow: seg.Overflow, Data: seg.Data}})
}
