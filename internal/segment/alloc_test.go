package segment

import (
	"testing"

	"bess/internal/lockcheck"
)

// Allocation budget for the kept slotted image (DESIGN.md §4b): once the
// segment has its image, EncodeSlots rewrites the header and two checksums
// in place and allocates nothing.
func TestEncodeSlotsAllocs(t *testing.T) {
	if lockcheck.Enabled {
		t.Skip("an invariants build re-encodes every slot to check the image")
	}
	s := New(1, 1, 2, 1, 100)
	for i := 0; i < 8; i++ {
		if _, err := s.CreateObject(0, make([]byte, 40)); err != nil {
			t.Fatal(err)
		}
	}
	first := s.EncodeSlots()
	if n := testing.AllocsPerRun(200, func() {
		if got := s.EncodeSlots(); &got[0] != &first[0] {
			t.Fatal("EncodeSlots returned a new image")
		}
	}); n != 0 {
		t.Fatalf("EncodeSlots: %v allocs/op on a segment that has its image, want 0", n)
	}
}
