package server

import (
	"bytes"
	"errors"
	"testing"

	"bess/internal/client"
	"bess/internal/fault"
	"bess/internal/lock"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/segment"
)

// Tests of segment creation from reserved runs (reserve.go), and of the runs
// a commit allocates outliving a power loss.

// TestPublishRefusesUnreservedRuns: a commit whose created list names runs
// that are not reserved to its client as it names them — another client's
// runs, its own with a wrong geometry, runs nobody reserved, a run it lists
// twice, no file — is refused whole, and changes no byte: not the log, not the
// allocator, not the catalog, not the reservation, which its owner can still
// publish.
func TestPublishRefusesUnreservedRuns(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, err := s.OpenDB("d", true)
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := s.Hello("owner")
	thief, _ := s.Hello("thief")
	theirs, err := s.ReserveSegments(owner, db, -1, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	mine, err := s.ReserveSegments(thief, db, -1, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// An object's image of the segment a hostile list names first, shipped
	// with it: nothing of it may land either.
	img := func(r proto.Reserved) proto.SegImage {
		seg := segment.New(1, 1, r.DataPages, page.AreaID(r.Seg.Area), page.No(r.DataStart))
		if _, err := seg.CreateObject(0, []byte("thief")); err != nil {
			t.Fatal(err)
		}
		return proto.SegImage{Seg: r.Seg, Slotted: seg.EncodeSlots(), Data: seg.Data}
	}
	wrong := mine[0]
	wrong.DataPages *= 2
	never := mine[0]
	never.Seg.Start += 64
	for _, tc := range []struct {
		name    string
		created []proto.Created
	}{
		{"another client's runs", []proto.Created{{Reserved: theirs[0], FileID: 1}}},
		{"a wrong geometry", []proto.Created{{Reserved: wrong, FileID: 1}}},
		{"runs nobody reserved", []proto.Created{{Reserved: never, FileID: 1}}},
		{"its runs twice", []proto.Created{{Reserved: mine[0], FileID: 1}, {Reserved: mine[0], FileID: 1}}},
		{"no file", []proto.Created{{Reserved: mine[0]}}},
		{"its runs beside another's", []proto.Created{{Reserved: mine[0], FileID: 1}, {Reserved: theirs[0], FileID: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			next, free := s.log.NextLSN(), s.lookupArea(1).FreePages()
			txid, _ := s.NewTx()
			if err := s.Publish(thief, txid, tc.created, []proto.SegImage{img(tc.created[0].Reserved)}, false); !errors.Is(err, proto.ErrNotReserved) {
				t.Fatalf("publish: %v, want ErrNotReserved", err)
			}
			if got := s.log.NextLSN(); got != next {
				t.Errorf("the refused commit appended %d log bytes", got-next)
			}
			if got := s.lookupArea(1).FreePages(); got != free {
				t.Errorf("the refused commit moved the allocator's free pages %d → %d", free, got)
			}
			if segs, _ := s.SegmentsOf(db, 1); len(segs) != 0 {
				t.Errorf("the refused commit cataloged %v", segs)
			}
			if owned := s.locks.Owned(lock.TxID(txid)); len(owned) != 0 {
				t.Errorf("the refused commit left its transaction holding %v", owned)
			}
		})
	}
	for _, who := range []struct {
		client uint32
		r      proto.Reserved
	}{{owner, theirs[0]}, {thief, mine[0]}} {
		txid, _ := s.NewTx()
		if err := s.Publish(who.client, txid, []proto.Created{{Reserved: who.r, FileID: 1}}, nil, false); err != nil {
			t.Fatalf("the owner's publish after the refusals: %v", err)
		}
	}
	if segs, _ := s.SegmentsOf(db, 1); len(segs) != 2 {
		t.Fatalf("the owners' publishes cataloged %v, want both segments", segs)
	}
}

// TestDisconnectFreesReservedRuns: the runs reserved to a client that goes
// away unpublished go back to the allocator, as if never reserved — and no
// extent map ever named them — while what it published stays.
func TestDisconnectFreesReservedRuns(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, err := s.OpenDB("d", true)
	if err != nil {
		t.Fatal(err)
	}
	a := s.lookupArea(1)
	free := a.FreePages()
	cl, _ := s.Hello("leaver")
	runs, err := s.ReserveSegments(cl, db, -1, 1, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.FreePages(); got != free-8*(1+4) {
		t.Fatalf("8 reserved pairs of 1+4 pages left %d of %d pages free", got, free)
	}
	txid, _ := s.NewTx()
	if err := s.Publish(cl, txid, []proto.Created{{Reserved: runs[0], FileID: 1}}, nil, false); err != nil {
		t.Fatal(err)
	}
	s.Disconnect(cl)
	if got := a.FreePages(); got != free-(1+4) {
		t.Fatalf("after the disconnect %d of %d pages are free, want all but the published segment's 5", got, free)
	}
	if _, err := s.SegInfo(runs[0].Seg); err != nil {
		t.Fatalf("the published segment went with its creator: %v", err)
	}
	if _, err := s.ReserveSegments(cl, db, -1, 1, 4, 1); err == nil {
		t.Fatal("a client that is gone was reserved runs")
	}
	if got := a.FreePages(); got != free-(1+4) {
		t.Fatalf("a refused reservation left %d of %d pages free", got, free)
	}
}

// TestCommittedRunsSurvivePowerLoss: every run a durable commit fills is
// re-established by restart, whatever the extent map on the device says — a
// transparent large object's content segment and the lone run a growing data
// section moves to, both reserved by the session and published by its commit
// (add-segment and add-run records) — so segments allocated after the
// restart land elsewhere, and each object reads back as committed.
func TestCommittedRunsSurvivePowerLoss(t *testing.T) {
	inj := fault.NewInjector(0)
	d := newDevices(inj, inj)
	s := d.open(t)
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }

	// A large object in one segment, a relocating growth of another.
	content := fill(10_000, 0x5A)
	large, at, w := sessionLarge(t, s, content)
	grown, err := w.CreateSegment(1, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	body := fill(12_000, 0x3C)
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.CreateObject(grown, 0, body); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if h := fetchHeader(t, s, grown); h.DataPages < 4 {
		t.Fatalf("the grown segment's data section has %d pages: it did not move", h.DataPages)
	}
	db := w.DB()

	// Power loss: each device keeps what it synced. No area was synced.
	inj = fault.NewInjector(0)
	lost := newDevices(inj, inj)
	lost.log = fault.NewStoreFrom(lost.logInj, d.log.CrashImage())
	for id, st := range d.areas {
		lost.areas[id] = fault.NewStoreFrom(lost.logInj, st.CrashImage())
	}
	after := lost.open(t)
	defer after.Close()
	var fresh []proto.SegKey
	for i := 0; i < 40; i++ {
		for _, pages := range []int{1, 2, 4} {
			key, err := createSeg(after, db, 2, 1, pages, -1)
			if err != nil {
				t.Fatal(err)
			}
			fresh = append(fresh, key)
		}
	}
	wrong := func(got, want []byte) int {
		n := 0
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				n++
			}
		}
		return n
	}
	if _, _, data, err := after.FetchSeg(0, contentOf(t, after, large, at)); err != nil || wrong(data, content) > 0 {
		t.Errorf("large object: %d of %d bytes wrong (%v)", wrong(data, content), len(content), err)
	}
	sl, ov, data, err := after.FetchSeg(0, grown)
	if err != nil {
		t.Fatalf("grown segment: %v", err)
	}
	if got, err := decodeSeg(t, sl, ov, data).ObjectBytes(0); err != nil || wrong(got, body) > 0 {
		t.Errorf("grown segment's object: %d of %d bytes wrong (%v)", wrong(got, body), len(body), err)
	}
	// A checksummed run a new segment was formatted over reads back right
	// only by repair from the log, which then breaks the new segment.
	if n := after.scrubCtr.corruptions.Load(); n != 0 {
		t.Errorf("reading the committed objects back found %d corrupt runs", n)
	}
	for _, key := range fresh {
		if _, _, _, err := after.FetchSeg(0, key); err != nil {
			t.Errorf("segment %v allocated after the restart: %v", key, err)
			break
		}
	}
}

// TestAbortedLargeAndMoveLeaveFreePages: a session's aborted CreateLarge and
// its aborted move of a growing data section allocate nothing on the area —
// their runs were reserved to the session, go back to its spares on abort
// and serve the next try with no new reservation — and once the session is
// gone the area has every page free it had before.
func TestAbortedLargeAndMoveLeaveFreePages(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	w, err := client.Open(s, "w", "d", true)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := w.CreateSegment(1, 1, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	tx := func(change func() error, end func() error) {
		t.Helper()
		if err := w.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := change(); err != nil {
			t.Fatal(err)
		}
		if err := end(); err != nil {
			t.Fatal(err)
		}
	}
	tx(func() error { _, err := w.CreateObject(seg, 0, []byte("small")); return err }, w.Commit)
	try := func() {
		t.Helper()
		tx(func() error {
			if _, err := w.CreateLarge(seg, 0, bytes.Repeat([]byte("L"), 10_000)); err != nil {
				return err
			}
			_, err := w.CreateObject(seg, 0, bytes.Repeat([]byte("G"), 6_000)) // outgrows the one data page
			return err
		}, w.Abort)
	}
	a := s.lookupArea(seg.Area)
	free := a.FreePages()
	try()
	spared := a.FreePages()
	for range 3 {
		try()
	}
	if got := a.FreePages(); got != spared {
		t.Fatalf("three more aborted tries left %d pages free, %d after the first: they took pages", got, spared)
	}
	if h := fetchHeader(t, s, seg); h.OverPages != 0 || h.DataPages != 1 {
		t.Fatalf("the aborted moves reached the segment: %d overflow and %d data pages", h.OverPages, h.DataPages)
	}
	s.Disconnect(w.Client())
	if got := a.FreePages(); got != free {
		t.Fatalf("with the session gone %d pages are free, %d before its aborted tries", got, free)
	}
}
