// The area writes that take no proof (DESIGN.md §5, Assumption). A page whose
// history is in the log reaches its area only through reader.WriteRun, on the
// proofs of its records; the two writers here write a page before it has a
// history: a segment's initial images, and the zeros a repair puts back on a
// page the log never saw. They are the only callers of
// area.Area.WriteUnlogged outside internal/area (tombstones_test.go).
package server

import (
	"bess/internal/area"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/segment"
)

// formatSegment writes the initial images of the segment op adds: the empty
// slotted segment and the zeroed data section, one write per run. The header
// carries the zero section's checksum, so the segment verifies from its very
// first read. It writes a segment no transaction publishes, one whose
// publishing transaction rolls back (formatAborted), and one restart finds
// without its pages (redoSegment); a committed transaction's writes its own.
func (rd *reader) formatSegment(a *area.Area, op *proto.CatalogOp) error {
	rd.stats.formatPages.Add(int64(op.SlottedPages + op.DataPages))
	slotted := segment.Format(op.FileID, op.SlottedPages, op.DataPages, a.ID(), page.No(op.DataStart))
	if err := a.WriteUnlogged(page.No(op.Seg.Start), slotted); err != nil {
		return err
	}
	return a.WriteUnlogged(page.No(op.DataStart), zeroRun[:op.DataPages*page.Size])
}

// repairZero gives page pno of a, a page of a zero-based run with no history
// in the log, its initial image back the way formatSegment first wrote it
// (repairRange).
func (rd *reader) repairZero(a *area.Area, pno page.No) error {
	if err := a.WriteUnlogged(pno, zeroRun[:page.Size]); err != nil {
		return err
	}
	rd.stats.pagesWritten.Add(1)
	return nil
}

// zeroRun is the data section formatSegment writes and logFormat queues, and a
// published segment's pre-update image (applyOne), shared by every segment
// and written by nobody.
// Every caller bounds DataPages by area.MaxSegmentPages (Reserve,
// EnsureSegment).
var zeroRun [area.MaxSegmentPages * page.Size]byte
