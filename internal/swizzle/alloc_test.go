package swizzle

import (
	"testing"

	"bess/internal/lockcheck"
	"bess/internal/vmem"
)

// Allocation budget for the trusted-update refresh (DESIGN.md §4b): bringing
// the mapped slotted image and the DPs up to date after an object is created
// rewrites both in place and allocates nothing, and it re-fixes the DP of the
// slot that changed alone, not every slot's.
func TestRefreshSlottedAllocs(t *testing.T) {
	if lockcheck.Enabled {
		t.Skip("an invariants build re-encodes every slot to check the image")
	}
	f, reg, _, idB := buildGraph(t)
	m := NewMapper(vmem.New(), f, reg)
	if err := m.EnsureData(idB); err != nil {
		t.Fatal(err)
	}
	ms := m.bySeg[idB]
	live := ms.seg.LiveSlots()
	if len(live) < 2 {
		t.Fatal("the segment has fewer than two objects")
	}
	m.refreshSlotted(ms)
	i := live[len(live)-1]
	sl := ms.seg.Slots[i]
	fixups := m.stats.DPFixups
	const runs = 200
	n := testing.AllocsPerRun(runs, func() {
		// The slot is freed and taken again: it is the one slot changed.
		if ms.seg.FreeSlot(i) != nil {
			t.Fatal("FreeSlot")
		}
		if j, err := ms.seg.AllocSlot(sl.Kind, sl.Type, sl.Size, sl.DataOff); err != nil || j != i {
			t.Fatalf("AllocSlot: slot %d, %v", j, err)
		}
		m.refreshSlotted(ms)
	})
	if n != 0 {
		t.Fatalf("refreshSlotted: %v allocs/op, want 0", n)
	}
	if got := m.stats.DPFixups - fixups; got != runs+1 {
		t.Fatalf("%d refreshes after one slot changed fixed %d DPs, want one each", runs+1, got)
	}
}
