// The server's one read pipeline (DESIGN.md §5, §7). A disk segment is a
// contiguous run (paper §2), so every section — slotted, overflow, data,
// large-object body — moves with one area.ReadRun, and every consumer
// (fetches, snapshot reads, commit's current-image read, the scrubber)
// gets its bytes from the two functions below: readRun verifies one run
// and owns the repair/quarantine sequence; readImage assembles a segment
// image out of verified runs.
package server

import (
	"errors"
	"fmt"

	"bess/internal/area"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/segment"
)

// ErrTornRead reports a read that failed verification because a committer
// was overwriting the run, not because the disk rotted. Snapshot reads retry
// it internally (readAsOf); a live fetch — clients read optimistically,
// without an S lock — returns it as a conflict for the caller to retry.
var ErrTornRead = errors.New("server: read raced an update of the segment")

// runRead names one contiguous on-disk run and the check its bytes must pass.
type runRead struct {
	Area  uint32
	Start page.No
	Pages int
	// ZeroBase marks runs whose unlogged initial state is all zeroes (data,
	// overflow, large-object runs), so repairRange can replay them from an
	// empty history; a slotted run needs a logged full-page image.
	ZeroBase bool
	// Verify checks the run against the checksum recorded for it.
	Verify func(run []byte) error
}

// view says which version of a segment a read is for.
type view struct {
	// t is the snapshot's stamp; for a live read, the commit stamp when the
	// read began (Server.live), which makes it a one-shot snapshot of "now".
	t page.LSN
	// rebuild: the version chain no longer covers t, so each run is rewound
	// with the WAL's before-images (asOfBefores) between read and verify. The
	// run is read before the log is scanned — any write that could have raced
	// the read appended its record first (WAL rule) — so the rewind also
	// heals torn reads.
	//
	// Known limitation: CreateSegment initializes pages without logging, so
	// an as-of image whose pages were since freed and handed to a new segment
	// rebuilds to that segment's initial state.
	rebuild bool
}

// live is the view of a read of the current image.
func (s *Server) live() view { return view{t: s.txm.CommitStamp()} }

// readRun reads r and verifies it: detect → repair → re-read → quarantine.
// Damage is repaired in place by replaying the run's WAL history and the
// read retried once; a run that still fails takes seg out of service. Unless
// the run was rebuilt, a checksum failure while vs.Recheck reports an update
// staged, or committed since v.t, underneath the read is a torn read, not
// rot: it returns ErrTornRead and counts, repairs, and quarantines nothing.
func (s *Server) readRun(seg proto.SegKey, r runRead, v view) ([]byte, error) {
	if err := s.quarCheck(seg); err != nil {
		return nil, err
	}
	a := s.lookupArea(r.Area)
	if a == nil {
		return nil, ErrNoArea
	}
	if r.Pages > area.MaxSegmentPages {
		return nil, area.ErrTooLarge // no run is longer than a segment; don't size a buffer off a bad header
	}
	buf := make([]byte, r.Pages*page.Size)
	attempt := func() error {
		if err := a.ReadRun(r.Start, buf); err != nil {
			return err
		}
		if v.rebuild {
			befores, err := s.asOfBefores(v.t, page.AreaID(r.Area), r.Start, r.Pages)
			if err != nil {
				return err
			}
			overlayAsOf(befores, r.Start, buf)
		}
		return r.Verify(buf)
	}
	err := attempt()
	if err == nil {
		return buf, nil
	}
	if !corruptionIn(err) {
		return nil, err
	}
	var ce *page.CorruptError
	if errors.As(err, &ce) {
		ce.Area, ce.Page = page.AreaID(r.Area), r.Start // the verifiers see bytes, not places
	}
	if !v.rebuild && !s.vs.Recheck(vkeyOf(seg), v.t) {
		return nil, ErrTornRead
	}
	s.scrubCtr.corruptions.Add(1)
	if s.repairRange(r.Area, r.Start, r.Pages, r.ZeroBase) == nil && attempt() == nil {
		s.scrubCtr.repaired.Add(1)
		return buf, nil
	}
	s.quarantine(seg, err)
	return nil, fmt.Errorf("%w: segment %d/%d: %v", ErrQuarantined, seg.Area, seg.Start, err)
}

// sections selects the runs readImage reads beyond the slotted one, which
// it always needs: the slotted header names the other two.
type sections uint8

const (
	secOverflow sections = 1 << iota
	secData
	secAll = secOverflow | secData
)

// readImage assembles seg's image for v out of verified runs: the decoded
// slotted header plus the raw bytes of each section in want. Sections not
// asked for (or empty) come back nil.
func (s *Server) readImage(seg proto.SegKey, want sections, v view) (dec *segment.Seg, sl, over, data []byte, err error) {
	sm, _, ok := s.cat.segMetaOf(seg)
	if !ok {
		return nil, nil, nil, nil, ErrNoSegment
	}
	sl, err = s.readRun(seg, runRead{
		Area: seg.Area, Start: page.No(seg.Start), Pages: sm.SlottedPages,
		// DecodeSlotted checks the header and slot-region CRCs.
		Verify: func(run []byte) (verr error) { dec, verr = segment.DecodeSlotted(run); return verr },
	}, v)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if want&secOverflow != 0 && dec.Hdr.OverPages > 0 {
		over, err = s.readRun(seg, runRead{
			Area: uint32(dec.Hdr.OverArea), Start: dec.Hdr.OverStart, Pages: int(dec.Hdr.OverPages),
			ZeroBase: true, Verify: dec.VerifyOverflow,
		}, v)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		dec.Overflow = over
	}
	if want&secData != 0 && dec.Hdr.DataPages > 0 {
		data, err = s.readRun(seg, runRead{
			Area: uint32(dec.Hdr.DataArea), Start: dec.Hdr.DataStart, Pages: int(dec.Hdr.DataPages),
			ZeroBase: true, Verify: dec.VerifyData,
		}, v)
		if err != nil {
			return nil, nil, nil, nil, err
		}
	}
	return dec, sl, over, data, nil
}
