package largeobj

import (
	"fmt"

	"bess/internal/area"
	"bess/internal/page"
)

// AreaStore adapts a storage area to the large-object Store interface for the
// package's tests: it writes and frees at once, with no log and no
// transaction, as no product store may (a session's run store writes through
// its transaction and never frees).
type AreaStore struct {
	A *area.Area
}

var _ Store = (*AreaStore)(nil)

// Alloc allocates a segment from the area.
func (s *AreaStore) Alloc(nPages int) (page.No, int, error) {
	return s.A.AllocSegment(nPages)
}

// Free releases a segment.
func (s *AreaStore) Free(start page.No) error {
	return s.A.FreeSegment(start)
}

// ReadRun reads n contiguous pages into buf.
func (s *AreaStore) ReadRun(start page.No, n int, buf []byte) error {
	if len(buf) < n*page.Size {
		return fmt.Errorf("largeobj: ReadRun buffer too small (%d < %d)", len(buf), n*page.Size)
	}
	return s.A.ReadRun(start, buf[:n*page.Size])
}

// WriteRun writes len(data)/page.Size contiguous pages.
func (s *AreaStore) WriteRun(start page.No, data []byte) error {
	n := len(data) / page.Size
	for i := 0; i < n; i++ {
		if err := s.A.WriteUnlogged(start+page.No(i), data[i*page.Size:(i+1)*page.Size]); err != nil {
			return err
		}
	}
	return nil
}
