package swizzle

import (
	"testing"

	"bess/internal/lockcheck"
	"bess/internal/vmem"
)

// Allocation budget for the trusted-update refresh (DESIGN.md §4b): bringing
// the mapped slotted image and the DPs up to date after an object is created
// rewrites both in place and allocates nothing.
func TestRefreshSlottedAllocs(t *testing.T) {
	if lockcheck.Enabled {
		t.Skip("an invariants build re-encodes every slot to check the image")
	}
	f, reg, idA, _ := buildGraph(t)
	m := NewMapper(vmem.New(), f, reg)
	if err := m.EnsureData(idA); err != nil {
		t.Fatal(err)
	}
	ms := m.bySeg[idA]
	fixups := m.stats.DPFixups
	if n := testing.AllocsPerRun(200, func() { m.refreshSlotted(ms) }); n != 0 {
		t.Fatalf("refreshSlotted: %v allocs/op, want 0", n)
	}
	if m.stats.DPFixups == fixups {
		t.Fatal("refreshSlotted fixed no DP: the segment has no small objects")
	}
}
