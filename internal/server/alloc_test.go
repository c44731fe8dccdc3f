package server

import (
	"testing"

	"bess/internal/lockcheck"
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
	snap, _, err := s.SnapOpen(cl)
	if err != nil {
		t.Fatal(err)
	}
	old, err := s.snapStamp(snap)
	if err != nil {
		t.Fatal(err)
	}
	update(t, s, cl, key, 1)
	now := s.live()

	chain := testing.AllocsPerRun(100, func() {
		if _, _, _, shared, err := s.readAsOf(key, old); err != nil || !shared {
			t.Fatalf("as of the snapshot: shared=%v err=%v, want a chain hit", shared, err)
		}
	})
	if chain != 0 {
		t.Errorf("readAsOf chain hit: %v allocs/op, want 0", chain)
	}

	disk := testing.AllocsPerRun(100, func() {
		if _, _, _, shared, err := s.readAsOf(key, now); err != nil || shared {
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
