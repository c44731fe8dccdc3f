package buddy

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewBounds(t *testing.T) {
	if _, err := New(-1); err == nil {
		t.Fatal("New(-1) should fail")
	}
	if _, err := New(MaxOrder + 1); err == nil {
		t.Fatal("New(MaxOrder+1) should fail")
	}
	a, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != 1 {
		t.Fatalf("Size() = %d, want 1", a.Size())
	}
}

func TestOrderFor(t *testing.T) {
	cases := []struct {
		n    int64
		k    int
		fail bool
	}{
		{1, 0, false}, {2, 1, false}, {3, 2, false}, {4, 2, false},
		{5, 3, false}, {1024, 10, false}, {1025, 11, false},
		{0, 0, true}, {-7, 0, true},
	}
	for _, c := range cases {
		k, err := OrderFor(c.n)
		if c.fail {
			if err == nil {
				t.Errorf("OrderFor(%d): want error", c.n)
			}
			continue
		}
		if err != nil {
			t.Errorf("OrderFor(%d): %v", c.n, err)
			continue
		}
		if k != c.k {
			t.Errorf("OrderFor(%d) = %d, want %d", c.n, k, c.k)
		}
	}
}

func TestAllocExactFit(t *testing.T) {
	a, _ := New(4) // 16 units
	off, granted, err := a.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if off != 0 || granted != 16 {
		t.Fatalf("Alloc(16) = (%d,%d), want (0,16)", off, granted)
	}
	if _, _, err := a.Alloc(1); err != ErrNoSpace {
		t.Fatalf("expected ErrNoSpace, got %v", err)
	}
	if err := a.Free(0); err != nil {
		t.Fatal(err)
	}
	if a.FreeUnits() != a.Size() {
		t.Fatalf("FreeUnits() = %d after free, want %d", a.FreeUnits(), a.Size())
	}
}

func TestAllocRoundsUp(t *testing.T) {
	a, _ := New(6)
	_, granted, err := a.Alloc(5)
	if err != nil {
		t.Fatal(err)
	}
	if granted != 8 {
		t.Fatalf("granted = %d, want 8", granted)
	}
}

func TestSplitAndCoalesce(t *testing.T) {
	a, _ := New(3) // 8 units
	off1, _, _ := a.Alloc(1)
	off2, _, _ := a.Alloc(1)
	if off1 == off2 {
		t.Fatal("duplicate offsets")
	}
	if a.Splits() == 0 {
		t.Fatal("expected splits")
	}
	if err := a.Free(off1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(off2); err != nil {
		t.Fatal(err)
	}
	if len(a.free[a.maxOrder]) != 1 {
		t.Fatal("freeing everything did not coalesce back to one 8-unit block")
	}
	if a.Coalesces() == 0 {
		t.Fatal("expected coalesces")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFree(t *testing.T) {
	a, _ := New(3)
	off, _, _ := a.Alloc(2)
	if err := a.Free(off); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(off); err != ErrBadFree {
		t.Fatalf("double free: got %v, want ErrBadFree", err)
	}
	if err := a.Free(12345); err != ErrBadFree {
		t.Fatalf("bogus free: got %v, want ErrBadFree", err)
	}
}

func TestBlockSize(t *testing.T) {
	a, _ := New(5)
	off, granted, _ := a.Alloc(3)
	sz, ok := a.BlockSize(off)
	if !ok || sz != granted {
		t.Fatalf("BlockSize = (%d,%v), want (%d,true)", sz, ok, granted)
	}
	if _, ok := a.BlockSize(off + 1); ok {
		t.Fatal("BlockSize of non-start offset should be false")
	}
}

func TestAllocZeroOrBad(t *testing.T) {
	a, _ := New(4)
	if _, _, err := a.Alloc(0); err != ErrBadRequest {
		t.Fatalf("Alloc(0): %v", err)
	}
	if _, _, err := a.Alloc(-2); err != ErrBadRequest {
		t.Fatalf("Alloc(-2): %v", err)
	}
	if _, _, err := a.Alloc(32); err != ErrNoSpace {
		t.Fatalf("Alloc(>size): %v", err)
	}
}

func TestNoOverlap(t *testing.T) {
	a, _ := New(8) // 256 units
	rng := rand.New(rand.NewSource(42))
	type block struct{ off, size int64 }
	var live []block
	for i := 0; i < 2000; i++ {
		if len(live) > 0 && rng.Intn(2) == 0 {
			j := rng.Intn(len(live))
			if err := a.Free(live[j].off); err != nil {
				t.Fatal(err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		n := int64(1 + rng.Intn(32))
		off, granted, err := a.Alloc(n)
		if err == ErrNoSpace {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range live {
			if off < b.off+b.size && b.off < off+granted {
				t.Fatalf("overlap: [%d,%d) and [%d,%d)", off, off+granted, b.off, b.off+b.size)
			}
		}
		live = append(live, block{off, granted})
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Free all remaining; allocator must coalesce back to one block.
	for _, b := range live {
		if err := a.Free(b.off); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.free[a.maxOrder]) != 1 {
		t.Fatal("after freeing all, the space is not one free block")
	}
}

func TestUtilization(t *testing.T) {
	a, _ := New(4)
	if a.Utilization() != 0 {
		t.Fatal("fresh allocator not empty")
	}
	a.Alloc(8)
	if u := a.Utilization(); u != 0.5 {
		t.Fatalf("Utilization = %v, want 0.5", u)
	}
	if a.FreeUnits() != 8 {
		t.Fatalf("FreeUnits = %d, want 8", a.FreeUnits())
	}
}

// Property: any sequence of allocations aligned: off % granted == 0.
func TestQuickAlignment(t *testing.T) {
	f := func(sizes []uint8) bool {
		a, _ := New(10)
		for _, s := range sizes {
			n := int64(s%64) + 1
			off, granted, err := a.Alloc(n)
			if err != nil {
				continue
			}
			if granted < n || off%granted != 0 {
				return false
			}
		}
		return a.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: alloc/free in random interleavings always restores full free
// space and passes invariants.
func TestQuickAllocFreeRoundTrip(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		a, _ := New(9)
		rng := rand.New(rand.NewSource(seed))
		var live []int64
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				off, _, err := a.Alloc(int64(op%100) + 1)
				if err == nil {
					live = append(live, off)
				}
			} else {
				j := rng.Intn(len(live))
				if a.Free(live[j]) != nil {
					return false
				}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		for _, off := range live {
			if a.Free(off) != nil {
				return false
			}
		}
		return a.FreeUnits() == a.Size() && len(a.free[a.maxOrder]) == 1 && a.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
