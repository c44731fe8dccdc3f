package server

import (
	"errors"
	"testing"

	"bess/internal/area"
	"bess/internal/fault"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/segment"
)

// Tests of a fresh segment's pages: its publish writes none of them, its
// commit writes every one after its force, and an aborted publish leaves the
// segment formatted and empty.

// freshImage is the image of a segment of the reserved runs r holding one
// object.
func freshImage(t *testing.T, r proto.Reserved) proto.SegImage {
	t.Helper()
	seg := segment.New(1, r.SlottedPages, r.DataPages, page.AreaID(r.Seg.Area), page.No(r.DataStart))
	if _, err := seg.CreateObject(0, []byte("fresh object")); err != nil {
		t.Fatal(err)
	}
	return proto.SegImage{Seg: r.Seg, Slotted: seg.EncodeSlots(), Data: seg.Data}
}

// reserveOne reserves one run pair of 1 slotted and 4 data pages to cl.
func reserveOne(t *testing.T, s *Server, cl, db uint32) proto.Created {
	t.Helper()
	runs, err := s.ReserveSegments(cl, db, -1, 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return proto.Created{Reserved: runs[0], FileID: 1}
}

// requireFormatted fails t unless seg reads back as a formatted segment with
// no live object.
func requireFormatted(t *testing.T, s *Server, seg proto.SegKey) {
	t.Helper()
	sl, _, data, err := s.FetchSeg(0, seg)
	if err != nil {
		t.Fatalf("segment %v: %v", seg, err)
	}
	dec, err := segment.DecodeSlotted(sl)
	if err == nil {
		err = dec.VerifyData(data)
	}
	if err != nil {
		t.Fatalf("segment %v does not read back formatted: %v", seg, err)
	}
	if live := dec.LiveSlots(); len(live) != 0 {
		t.Fatalf("segment %v holds %d objects, want none", seg, len(live))
	}
}

// syncCountingLog is a log device that counts its syncs.
type syncCountingLog struct {
	fault.WALView
	syncs *int
}

func (l syncCountingLog) Sync() error {
	*l.syncs++
	return l.WALView.Sync()
}

// writeWatchedArea is an area device that hands each write's byte range to write.
type writeWatchedArea struct {
	fault.AreaView
	write func(off, n int64)
}

func (a writeWatchedArea) WriteAt(p []byte, off int64) (int, error) {
	a.write(off, int64(len(p)))
	return a.AreaView.WriteAt(p, off)
}

// TestFreshRunsWaitForTheForce: on the fault media, a commit that publishes a
// segment — one it ships an image of, one it ships nothing of — writes no
// byte of their runs before its force, and after it writes every page of
// them, each run in one write.
func TestFreshRunsWaitForTheForce(t *testing.T) {
	inj := fault.NewInjector(0)
	syncs := 0
	type write struct {
		off, n int64
		synced int
	}
	var writes []write
	s, err := OpenMedia(Media{
		Log: syncCountingLog{fault.NewStore(inj).WAL(), &syncs},
		NewArea: func(uint32) (area.Store, error) {
			return writeWatchedArea{fault.NewStore(inj).Area(), func(off, n int64) { writes = append(writes, write{off, n, syncs}) }}, nil
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	db, _, err := s.OpenDB("d", true)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := s.Hello("c")
	shipped, bare := reserveOne(t, s, cl, db), reserveOne(t, s, cl, db)
	txid, _ := s.NewTx()
	writes, synced := nil, syncs
	if err := s.Publish(cl, txid, []proto.Created{shipped, bare}, []proto.SegImage{freshImage(t, shipped.Reserved)}, false); err != nil {
		t.Fatal(err)
	}
	if syncs == synced {
		t.Fatal("the commit forced nothing")
	}
	covered := make(map[int64]int) // fresh page -> writes of it
	var runs []int64
	for _, c := range []proto.Created{shipped, bare} {
		runs = append(runs, c.Seg.Start, int64(c.SlottedPages), c.DataStart, int64(c.DataPages))
	}
	for _, w := range writes {
		for i := 0; i < len(runs); i += 2 {
			lo, hi := runs[i]*page.Size, (runs[i]+runs[i+1])*page.Size
			if w.off >= hi || w.off+w.n <= lo {
				continue
			}
			if w.synced == synced {
				t.Fatalf("a write of %d bytes at %d, in a fresh run, came before the commit's force", w.n, w.off)
			}
			if w.off != lo || w.n != hi-lo {
				t.Errorf("run [%d,%d) written as %d bytes at %d, want one write of the whole run", lo, hi, w.n, w.off)
			}
			for p := lo; p < hi; p += page.Size {
				covered[p]++
			}
		}
	}
	for i := 0; i < len(runs); i += 2 {
		for p := runs[i]; p < runs[i]+runs[i+1]; p++ {
			if covered[p*page.Size] != 1 {
				t.Errorf("fresh page %d written %d times, want once", p, covered[p*page.Size])
			}
		}
	}
	requireFormatted(t, s, bare.Seg)
	if n := s.Snapshot().FormatPages; n != 0 {
		t.Fatalf("%d pages formatted with no record", n)
	}
}

// TestAbortedPublishLeavesTheSegmentFormatted: a segment whose publishing
// transaction ends without committing — a runtime abort, a 2PC abort decision
// after the branch prepared, a commit whose images are refused after the
// publish — enters the catalog formatted and empty, and restart reads it so
// too.
func TestAbortedPublishLeavesTheSegmentFormatted(t *testing.T) {
	for _, how := range []string{"abort", "decide abort", "refused apply"} {
		t.Run(how, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, 1)
			if err != nil {
				t.Fatal(err)
			}
			db, _, err := s.OpenDB("d", true)
			if err != nil {
				t.Fatal(err)
			}
			cl, _ := s.Hello("c")
			c := reserveOne(t, s, cl, db)
			img := freshImage(t, c.Reserved)
			txid, _ := s.NewTx()
			switch how {
			case "abort":
				if _, _, err := s.apply(cl, txid, []proto.Created{c}, []proto.SegImage{img}); err != nil {
					t.Fatal(err)
				}
				if err := s.Abort(cl, txid); err != nil {
					t.Fatal(err)
				}
			case "decide abort":
				if err := s.Publish(cl, txid, []proto.Created{c}, []proto.SegImage{img}, true); err != nil {
					t.Fatal(err)
				}
				if err := s.Decide(txid, false); err != nil {
					t.Fatal(err)
				}
			case "refused apply":
				// The overflow section moves to a run the commit does not
				// publish: refused after the publish.
				bad := freshImage(t, c.Reserved)
				dec, err := segment.DecodeSlotted(bad.Slotted)
				if err != nil {
					t.Fatal(err)
				}
				dec.Hdr.OverArea, dec.Hdr.OverStart, dec.Hdr.OverPages = page.AreaID(c.Seg.Area), 1<<20, 1
				bad.Slotted, bad.Overflow = dec.EncodeSlots(), make([]byte, page.Size)
				if err := s.Publish(cl, txid, []proto.Created{c}, []proto.SegImage{bad}, false); !errors.Is(err, proto.ErrNotReserved) {
					t.Fatalf("a section moved to an unpublished run: %v, want ErrNotReserved", err)
				}
			}
			requireFormatted(t, s, c.Seg)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(dir, 1); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			requireFormatted(t, s, c.Seg)
		})
	}
}
