// The server's one read pipeline (DESIGN.md §5, §7). A disk segment is a
// contiguous run (paper §2), so every section — slotted, overflow, data —
// moves with one area.ReadRun, and every consumer
// (fetches, snapshot reads, commit's current-image read, the scrubber)
// gets its bytes from the two functions below: readRun verifies one run
// and owns the repair/quarantine sequence; readImage assembles a segment
// image out of verified runs.
package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"bess/internal/area"
	"bess/internal/cache"
	"bess/internal/lockcheck"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/segment"
	"bess/internal/wal"
)

// reader is the read pipeline and everything it can touch: the areas, the
// catalog, the log, the version store (which holds the open snapshots), and
// the quarantine/repair state. Server embeds it, so s.readImage and the rest
// read as they always did — but a method whose receiver is *reader cannot name
// the lock manager, the transaction table or the copy table. That a
// snapshot read consults none of them (DESIGN.md §4f) is therefore not
// something to check: there is no path to write.
type reader struct {
	areaMu lockcheck.RWMutex
	areas  map[uint32]*area.Area // guarded by areaMu

	cat *catalog
	log *wal.Log
	vs  *cache.VersionStore // the version chains, clock and snapshot registry

	// Silent-corruption state (corrupt.go). These are plain (unranked)
	// mutexes: none is ever held while taking a ranked server lock.
	quarMu      sync.Mutex
	quarantined map[proto.SegKey]string // guarded by quarMu
	repairMu    sync.Mutex              // serializes WAL-replay repairs
	scrubCtr    struct {
		segsChecked, pagesVerified, corruptions, repaired, quarantined atomic.Int64
	}

	stats struct {
		messages, slottedFetches, dataFetches      atomic.Int64
		commits, aborts, pagesWritten, snapFetches atomic.Int64
		formatPages, released                      atomic.Int64
	}
}

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
	// ZeroBase marks runs whose unlogged initial state is all zeroes (data
	// and overflow runs), so repairRange can replay them from an
	// empty history; a slotted run needs a logged full-page image.
	ZeroBase bool
	// Verify checks the run against the checksum recorded for it.
	Verify func(run []byte) error
}

// live is the stamp of a read of the current image: the version clock when
// the read began, which makes it a one-shot snapshot of "now".
func (s *Server) live() page.LSN { return s.vs.Clock() }

// readRun reads r for a read at stamp t (a snapshot's, or live) and verifies
// it: detect → repair → re-read → quarantine. It first waits out the
// write-back of a commit published and still writing seg's pages
// (cache.VersionStore.WaitWritten). Damage is repaired in place by replaying
// the run's WAL history and the read retried once; a run that still fails
// takes seg out of service. A checksum failure while vs.Recheck reports
// an update staged, or committed since t, underneath the read is a torn read,
// not rot: it returns ErrTornRead and counts, repairs, and quarantines
// nothing.
func (rd *reader) readRun(seg proto.SegKey, r runRead, t page.LSN) ([]byte, error) {
	rd.vs.WaitWritten(vkeyOf(seg))
	if err := rd.quarCheck(seg); err != nil {
		return nil, err
	}
	a := rd.lookupArea(r.Area)
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
	if !rd.vs.Recheck(vkeyOf(seg), t) {
		return nil, ErrTornRead
	}
	rd.scrubCtr.corruptions.Add(1)
	if rd.repairRange(r.Area, r.Start, r.Pages, r.ZeroBase) == nil && attempt() == nil {
		rd.scrubCtr.repaired.Add(1)
		return buf, nil
	}
	rd.quarantine(seg, err)
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

// readImage assembles seg's image for a read at stamp t out of verified runs:
// the decoded slotted header plus the raw bytes of each section in want, each
// in a buffer of its own. Sections not asked for (or empty) come back nil.
func (rd *reader) readImage(seg proto.SegKey, want sections, t page.LSN) (dec *segment.Seg, sl, over, data []byte, err error) {
	sm, _, ok := rd.cat.segMetaOf(seg)
	if !ok {
		return nil, nil, nil, nil, ErrNoSegment
	}
	sl, err = rd.readRun(seg, runRead{
		Area: seg.Area, Start: page.No(seg.Start), Pages: sm.SlottedPages,
		// DecodeSlotted checks the header and slot-region CRCs.
		Verify: func(run []byte) (verr error) { dec, verr = segment.DecodeSlotted(run); return verr },
	}, t)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if want&secOverflow != 0 && dec.Hdr.OverPages > 0 {
		over, err = rd.readRun(seg, runRead{
			Area: uint32(dec.Hdr.OverArea), Start: dec.Hdr.OverStart, Pages: int(dec.Hdr.OverPages),
			ZeroBase: true, Verify: dec.VerifyOverflow,
		}, t)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		dec.Overflow = over
	}
	if want&secData != 0 && dec.Hdr.DataPages > 0 {
		data, err = rd.readRun(seg, runRead{
			Area: uint32(dec.Hdr.DataArea), Start: dec.Hdr.DataStart, Pages: int(dec.Hdr.DataPages),
			ZeroBase: true, Verify: dec.VerifyData,
		}, t)
		if err != nil {
			return nil, nil, nil, nil, err
		}
	}
	return dec, sl, over, data, nil
}
