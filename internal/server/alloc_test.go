package server

import (
	"math"
	"runtime"
	"testing"

	"bess/internal/lockcheck"
	"bess/internal/page"
)

// Allocation budgets for the snapshot read (DESIGN.md §4f). readAsOf
// allocates nothing of its own on either hot verdict: a chain hit hands back
// the version's images as they are, and a disk verdict costs exactly what
// the fetch path's readImage costs: one buffer per run it reads and the
// decoded slotted header.
func TestReadAsOfAllocs(t *testing.T) {
	if lockcheck.Enabled {
		t.Skip("the instrumented locks allocate on every Lock")
	}
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, body(0))
	cl, _ := s.Hello("c")
	snap, stamp, err := s.SnapOpen(cl)
	if err != nil {
		t.Fatal(err)
	}
	old := page.LSN(stamp)
	update(t, s, cl, key, 1)
	now := s.live()

	chain := testing.AllocsPerRun(100, func() {
		if _, _, _, shared, err := s.readAsOf(key, 0, old); err != nil || !shared {
			t.Fatalf("as of the snapshot: shared=%v err=%v, want a chain hit", shared, err)
		}
	})
	if chain != 0 {
		t.Errorf("readAsOf chain hit: %v allocs/op, want 0", chain)
	}
	bySnap := testing.AllocsPerRun(100, func() {
		if _, _, _, shared, err := s.readAsOf(key, snap, 0); err != nil || !shared {
			t.Fatalf("as of snapshot %d: shared=%v err=%v, want a chain hit", snap, shared, err)
		}
	})
	if bySnap != 0 {
		t.Errorf("readAsOf chain hit by snapshot id: %v allocs/op, want 0", bySnap)
	}

	disk := testing.AllocsPerRun(100, func() {
		if _, _, _, shared, err := s.readAsOf(key, 0, now); err != nil || shared {
			t.Fatalf("as of now: shared=%v err=%v, want the disk image", shared, err)
		}
	})
	read := testing.AllocsPerRun(100, func() {
		if _, _, _, _, err := s.readImage(key, secAll, now); err != nil {
			t.Fatal(err)
		}
	})
	if disk != read || disk != 4 {
		t.Errorf("readAsOf disk verdict: %v allocs/op, readImage alone %v; want both 4 (three runs and the header)", disk, read)
	}
}

// TestFormatSegmentAllocs: creating a segment builds its slotted image and
// slot array, and nothing the size of its data section — the header's data
// checksum is page.ZeroChecksum's, and the zeros written are one shared run.
// The constant is the two extent-map writes and the catalog's bookkeeping.
// Building the data section cost a 126-page segment 516 KB more. The least of
// four creations is held to the limit.
func TestFormatSegmentAllocs(t *testing.T) {
	const slotted, dataPages = 1, 126
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	cl, _ := s.Hello("c")
	if _, err := s.CreateSegment(cl, 0, db, 1, slotted, dataPages, -1); err != nil {
		t.Fatal(err)
	}
	// TotalAlloc counts every goroutine of the process, so a goroutine left
	// from another test can only add to a measure: the least of a few holds.
	got, limit := uint64(math.MaxUint64), uint64(2*slotted*page.Size+16<<10)
	for range 4 {
		// Room for the measured segment's data run, so that it grows no extent.
		area, start, _, err := s.AllocRun(db, dataPages)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.lookupArea(area).FreeSegment(page.No(start)); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := s.CreateSegment(cl, 0, db, 1, slotted, dataPages, -1)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if rep.DataStart != start {
			t.Fatalf("the data run went to %d, not to the freed run at %d: the measure includes an extent", rep.DataStart, start)
		}
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("CreateSegment of %d+%d pages: %d bytes allocated", slotted, dataPages, got)
	if got > limit {
		t.Fatalf("CreateSegment of %d+%d pages allocated %d bytes, want <= %d: its slotted image, its slots and a constant", slotted, dataPages, got, limit)
	}
}
