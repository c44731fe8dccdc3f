package server

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/segment"
)

// flipPageByte XORs one byte of an on-disk page, bypassing the WAL — the
// silent bit rot the detect/repair pipeline exists for.
func flipPageByte(t *testing.T, s *Server, areaID uint32, pno page.No, off int) {
	t.Helper()
	a := s.lookupArea(areaID)
	if a == nil {
		t.Fatalf("no area %d", areaID)
	}
	buf := make([]byte, page.Size)
	if err := a.ReadPage(pno, buf); err != nil {
		t.Fatal(err)
	}
	buf[off] ^= 0x5A
	if err := a.WritePage(pno, buf); err != nil {
		t.Fatal(err)
	}
}

// commitOne creates a segment with one object and commits it, so every
// section has logged full-page history.
func commitOne(t *testing.T, s *Server, db uint32, body []byte) proto.SegKey {
	t.Helper()
	key, img := mkSegImage(t, s, db, body)
	cl, _ := s.Hello("c")
	txid, _ := s.NewTx()
	if err := s.Lock(cl, txid, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(cl, txid, []proto.SegImage{img}); err != nil {
		t.Fatal(err)
	}
	return key
}

// largeDesc is the descriptor of the large object in slot of key.
func largeDesc(t *testing.T, s *Server, key proto.SegKey, slot int) segment.LargeDesc {
	t.Helper()
	sl, ov, _, err := s.FetchSeg(0, key)
	if err != nil {
		t.Fatal(err)
	}
	b, err := decodeSeg(t, sl, ov, nil).Descriptor(slot, segment.LargeDescSize)
	if err != nil {
		t.Fatal(err)
	}
	d, err := segment.DecodeLargeDesc(b)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func fetchObject(t *testing.T, s *Server, key proto.SegKey) ([]byte, error) {
	t.Helper()
	sl, ov, data, err := s.FetchSeg(0, key)
	if err != nil {
		return nil, err
	}
	dec, err := segment.DecodeSlotted(sl)
	if err != nil {
		return nil, err
	}
	dec.Overflow, dec.Data = ov, data
	return dec.ObjectBytes(0)
}

func TestRepairSlottedPageFromWAL(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, []byte("survives rot"))
	flipPageByte(t, s, key.Area, page.No(key.Start), segment.HeaderSize+3)
	b, err := fetchObject(t, s, key)
	if err != nil {
		t.Fatalf("fetch after rot: %v", err)
	}
	if !bytes.Equal(b, []byte("survives rot")) {
		t.Fatalf("repaired object = %q", b)
	}
	st := s.ScrubStatus()
	if st.CorruptionsFound == 0 || st.Repaired == 0 || st.Quarantined != 0 {
		t.Fatalf("counters = %+v", st)
	}
}

func TestRepairDataSectionFromWAL(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, []byte("data section payload"))
	sl, _, _, err := s.FetchSeg(0, key)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := segment.DecodeSlotted(sl)
	if err != nil {
		t.Fatal(err)
	}
	flipPageByte(t, s, uint32(dec.Hdr.DataArea), dec.Hdr.DataStart, 7)
	written := s.Snapshot().PagesWritten
	b, err := fetchObject(t, s, key)
	if err != nil {
		t.Fatalf("fetch after data rot: %v", err)
	}
	if !bytes.Equal(b, []byte("data section payload")) {
		t.Fatalf("repaired object = %q", b)
	}
	if st := s.ScrubStatus(); st.Repaired == 0 {
		t.Fatalf("counters = %+v", st)
	}
	// The commit logged the run's first page only. Repair rewrites that one
	// on its record's proof and gives the rest — never logged, so no proof
	// exists — their unlogged initial image back; both count as page writes.
	if dec.Hdr.DataPages < 2 {
		t.Fatalf("data run of %d pages: the test needs a page without log history", dec.Hdr.DataPages)
	}
	if got := s.Snapshot().PagesWritten - written; got != int64(dec.Hdr.DataPages) {
		t.Fatalf("repair wrote %d pages, want the run's %d", got, dec.Hdr.DataPages)
	}
}

func TestQuarantineUnrepairableSegment(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	// Never committed: the initial slotted image has no logged history.
	doomed, err := createSeg(s, db, 1, 1, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	healthy := commitOne(t, s, db, []byte("healthy"))
	flipPageByte(t, s, doomed.Area, page.No(doomed.Start), 40)
	if _, _, _, err := s.FetchSeg(0, doomed); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("want ErrQuarantined, got %v", err)
	}
	// Quarantine is sticky and typed on the fast path too.
	if _, _, _, err := s.FetchSeg(0, doomed); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("second fetch: %v", err)
	}
	if q := s.Quarantined(); len(q) != 1 {
		t.Fatalf("quarantined = %v", q)
	}
	// The server keeps serving other segments.
	if b, err := fetchObject(t, s, healthy); err != nil || !bytes.Equal(b, []byte("healthy")) {
		t.Fatalf("healthy segment: %q, %v", b, err)
	}
	if st := s.ScrubStatus(); st.Quarantined != 1 {
		t.Fatalf("counters = %+v", st)
	}
}

func TestScrubOnceRepairs(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, []byte("scrub me"))
	sl, _, _, _ := s.FetchSeg(0, key)
	dec, _ := segment.DecodeSlotted(sl)
	flipPageByte(t, s, uint32(dec.Hdr.DataArea), dec.Hdr.DataStart, 100)
	st, err := s.ScrubOnce()
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsChecked == 0 || st.PagesVerified == 0 || st.CorruptionsFound == 0 || st.Repaired == 0 {
		t.Fatalf("counters = %+v", st)
	}
	if b, err := fetchObject(t, s, key); err != nil || !bytes.Equal(b, []byte("scrub me")) {
		t.Fatalf("after scrub: %q, %v", b, err)
	}
}

func TestBackgroundScrubberRepairs(t *testing.T) {
	s := NewMem(1)
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, []byte("background"))
	sl, _, _, _ := s.FetchSeg(0, key)
	dec, _ := segment.DecodeSlotted(sl)
	flipPageByte(t, s, uint32(dec.Hdr.DataArea), dec.Hdr.DataStart, 11)
	s.StartScrub(time.Millisecond)
	s.StartScrub(time.Millisecond) // idempotent while running
	deadline := time.Now().Add(5 * time.Second)
	for s.ScrubStatus().Repaired == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("scrubber never repaired: %+v", s.ScrubStatus())
		}
		time.Sleep(time.Millisecond)
	}
	s.StopScrub()
	if err := s.Close(); err != nil { // Close after StopScrub is clean
		t.Fatal(err)
	}
}

func TestLargeObjectChecksumRepair(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key, img := mkSegImage(t, s, db, []byte("small"))
	cl, _ := s.Hello("c")
	txid, _ := s.NewTx()
	if err := s.Lock(cl, txid, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(cl, txid, []proto.SegImage{img}); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("large-object-content."), 300) // > 1 page
	slot := storeLarge(t, s, cl, key, big)
	// Find the run and rot one of its pages.
	d := largeDesc(t, s, key, slot)
	flipPageByte(t, s, uint32(d.Area), d.Start+1, 9)
	got, err := s.FetchLarge(0, key, slot)
	if err != nil {
		t.Fatalf("fetch large after rot: %v", err)
	}
	if !bytes.Equal(got, big) {
		t.Fatalf("large object mismatch after repair (%d bytes)", len(got))
	}
	if st := s.ScrubStatus(); st.Repaired == 0 {
		t.Fatalf("counters = %+v", st)
	}
}

// TestSnapshotReadRepairsDataRot: a snapshot reading an unchanged segment
// off disk gets the same verify→repair treatment as FetchSeg — the data
// section used to ship to snapshots unchecked.
func TestSnapshotReadRepairsDataRot(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, []byte("as-of payload"))
	sl, _, _, err := s.FetchSeg(0, key)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := segment.DecodeSlotted(sl)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := s.Hello("reader")
	snap, _, err := s.SnapOpen(cl)
	if err != nil {
		t.Fatal(err)
	}
	flipPageByte(t, s, uint32(dec.Hdr.DataArea), dec.Hdr.DataStart, 5)
	before := s.ScrubStatus()
	if got := snapObject(t, s, cl, snap, key); !bytes.Equal(got, []byte("as-of payload")) {
		t.Fatalf("snapshot read after data rot = %q", got)
	}
	if st := s.ScrubStatus(); st.Repaired != before.Repaired+1 || st.Quarantined != 0 {
		t.Fatalf("counters = %+v, before %+v", st, before)
	}
	if s.VersionStats().DiskReads == 0 {
		t.Fatal("snapshot read never took the disk verdict")
	}
}

// TestTornReadsAreNotCorruption races unlocked readers — snapshots, and
// the optimistic live fetches clients make — against a committer rewriting
// the same segment. A reader that catches the segment mid-overwrite fails
// verification, but that is a torn read: a snapshot must retry and serve a
// committed image, a live fetch may report ErrTornRead, and nobody may
// count, repair, or quarantine.
func TestTornReadsAreNotCorruption(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key, imgs, bodies := altImages(t, s, db, "torn")
	writer, _ := s.Hello("w")
	commit := func(i int) error {
		txid, err := s.NewTx()
		if err != nil {
			return err
		}
		if err := s.Lock(writer, txid, key, proto.LockX); err != nil {
			return err
		}
		return s.Commit(writer, txid, []proto.SegImage{imgs[i%2]})
	}
	if err := commit(0); err != nil {
		t.Fatal(err)
	}
	// read fetches the segment once, live or through a fresh snapshot.
	read := func(cl uint32, live bool) ([]byte, []byte, []byte, error) {
		if live {
			return s.FetchSeg(0, key)
		}
		snap, _, err := s.SnapOpen(cl)
		if err != nil {
			return nil, nil, nil, err
		}
		defer s.SnapClose(cl, snap)
		return s.SnapFetchSeg(cl, snap, key)
	}

	const readers, commits = 4, 150
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(live bool) {
			defer wg.Done()
			cl, _ := s.Hello("r")
			for {
				select {
				case <-done:
					return
				default:
				}
				sl, ov, data, err := read(cl, live)
				if live && errors.Is(err, ErrTornRead) {
					continue
				}
				if err != nil {
					t.Errorf("fetch (live=%v): %v", live, err)
					return
				}
				dec, err := segment.DecodeSlotted(sl)
				if err != nil {
					t.Errorf("image (live=%v): %v", live, err)
					return
				}
				dec.Overflow, dec.Data = ov, data
				if b, err := dec.ObjectBytes(0); err != nil ||
					!(bytes.Equal(b, bodies[0]) || bytes.Equal(b, bodies[1])) {
					t.Errorf("read (live=%v) %q, %v: not a committed image", live, b, err)
					return
				}
			}
		}(r%2 == 0)
	}
	for i := 1; i <= commits; i++ {
		if err := commit(i); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if st := s.ScrubStatus(); st.CorruptionsFound != 0 || st.Repaired != 0 || st.Quarantined != 0 {
		t.Fatalf("torn reads were treated as corruption: %+v", st)
	}
}

// TestAbortedBranchOverRotRepairs: a rollback re-anchors its pages from the
// log's history of them, not from the disk, so rot on a page under a
// prepared branch that then aborts stays repairable from the log, as it was
// before the branch.
func TestAbortedBranchOverRotRepairs(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, []byte("survives rot"))
	sl, ov, data, err := s.FetchSeg(0, key)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := segment.DecodeSlotted(sl)
	if err != nil {
		t.Fatal(err)
	}
	seg.Overflow, seg.Data = ov, data
	if _, err := seg.CreateObject(0, []byte("the branch's")); err != nil {
		t.Fatal(err)
	}
	cl, _ := s.Hello("c")
	txid, _ := s.NewTx()
	if err := s.Lock(cl, txid, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	img := proto.SegImage{Seg: key, Slotted: seg.EncodeSlotted(), Overflow: seg.Overflow, Data: seg.Data}
	if err := s.Publish(cl, txid, nil, []proto.SegImage{img}, true); err != nil {
		t.Fatal(err)
	}
	flipPageByte(t, s, key.Area, page.No(key.Start), segment.HeaderSize+3)
	if err := s.Decide(txid, false); err != nil {
		t.Fatal(err)
	}
	b, err := fetchObject(t, s, key)
	if err != nil || !bytes.Equal(b, []byte("survives rot")) {
		t.Fatalf("fetch after the rolled-back branch: %q, %v", b, err)
	}
	if st := s.ScrubStatus(); st.Repaired == 0 || st.Quarantined != 0 {
		t.Fatalf("counters = %+v", st)
	}
}

// TestShortSectionRefused: a commit that ships a data or overflow section
// shorter than the run it overwrites is refused before anything is logged,
// and the section stays as verifiable as it was. Clearing its checksum flag
// instead would let any rot in the run pass until a whole section shipped.
func TestShortSectionRefused(t *testing.T) {
	for _, section := range []string{"data", "overflow"} {
		t.Run(section, func(t *testing.T) {
			s := NewMem(1)
			defer s.Close()
			db, _, _ := s.OpenDB("d", true)
			key := commitOne(t, s, db, []byte("whole"))
			cl, _ := s.Hello("w")
			commit := func(img proto.SegImage) error {
				txid, _ := s.NewTx()
				if err := s.Lock(cl, txid, key, proto.LockX); err != nil {
					t.Fatal(err)
				}
				return s.Commit(cl, txid, []proto.SegImage{img})
			}
			grown := overwriteImage(t, s, key, []byte("whole"))
			dec := decodeSeg(t, grown.Slotted, grown.Overflow, grown.Data)
			dec.EnsureOverflow(2)
			grown.Slotted, grown.Overflow = dec.EncodeSlotted(), dec.Overflow
			if err := commit(grown); err != nil {
				t.Fatal(err)
			}

			short := overwriteImage(t, s, key, []byte("torn!"))
			flag := segment.CRCData
			if section == "data" {
				short.Data = short.Data[:len(short.Data)-page.Size]
			} else {
				short.Overflow, flag = short.Overflow[:page.Size], segment.CRCOver
			}
			next := s.Log().NextLSN()
			if err := commit(short); !errors.Is(err, ErrShortSection) {
				t.Fatalf("commit of a short %s section: %v, want ErrShortSection", section, err)
			}
			if s.Log().NextLSN() != next {
				t.Fatal("the refused commit reached the log")
			}
			sl, ov, data, err := s.FetchSeg(cl, key)
			if err != nil {
				t.Fatal(err)
			}
			if decodeSeg(t, sl, ov, data).Hdr.CRCFlags&flag == 0 {
				t.Fatalf("the %s section lost its checksum", section)
			}
			if got, err := fetchObject(t, s, key); err != nil || string(got) != "whole" {
				t.Fatalf("object after the refusal: %q, %v", got, err)
			}
		})
	}
}
