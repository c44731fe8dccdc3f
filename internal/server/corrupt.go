// Silent-corruption resilience (DESIGN.md §5): the server's read path
// (read.go) verifies the section checksums carried by slotted images, data
// and overflow runs, and large-object descriptors. Detected damage is repaired
// in place by replaying the page's WAL history — the log is never truncated,
// and a page's first record after every Open, hence its first record ever, is
// a whole-page image (the anchor rule, internal/tx/logging.go), so replaying
// every record of the page in the order it took effect (wal.ReplayPages, the
// replay restart redo runs) — the anchors whole, the byte-range records over
// them — ends at its current content. The same replay rebuilds a page whose
// write after a commit's force failed (repairWrites).
// Pages with no logged history (the initial images a segment's publish
// formats) cannot be reconstructed; their
// segment is quarantined with a typed error while the rest of the server
// keeps serving.
//
// The same verified read path backs the background scrubber (StartScrub)
// and `bess-inspect -verify`, so one walker covers online scrubbing,
// offline audit, and demand-read verification.
package server

import (
	"errors"
	"fmt"
	"time"

	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/segment"
	"bess/internal/wal"
)

// ErrQuarantined marks a segment whose corruption could not be repaired
// from WAL history. Reads and writes of the segment fail with an error
// wrapping this sentinel; other segments are unaffected.
var ErrQuarantined = errors.New("server: segment quarantined")

// ScrubStats is the cumulative detect/repair/scrub accounting.
type ScrubStats struct {
	SegmentsChecked  int64 // segments walked by scrub passes
	PagesVerified    int64 // pages covered by scrub-pass checksum checks
	CorruptionsFound int64 // checksum failures seen on any read path
	Repaired         int64 // corruptions healed by WAL replay
	Quarantined      int64 // segments taken out of service
}

// ScrubStatus returns the cumulative corruption counters.
func (s *Server) ScrubStatus() ScrubStats {
	return ScrubStats{
		SegmentsChecked:  s.scrubCtr.segsChecked.Load(),
		PagesVerified:    s.scrubCtr.pagesVerified.Load(),
		CorruptionsFound: s.scrubCtr.corruptions.Load(),
		Repaired:         s.scrubCtr.repaired.Load(),
		Quarantined:      s.scrubCtr.quarantined.Load(),
	}
}

// quarantine takes seg out of service, recording why.
func (rd *reader) quarantine(seg proto.SegKey, cause error) {
	rd.quarMu.Lock()
	if rd.quarantined == nil {
		rd.quarantined = make(map[proto.SegKey]string)
	}
	if _, dup := rd.quarantined[seg]; !dup {
		rd.quarantined[seg] = cause.Error()
		rd.scrubCtr.quarantined.Add(1)
	}
	rd.quarMu.Unlock()
}

// quarCheck fails fast when seg is quarantined.
func (rd *reader) quarCheck(seg proto.SegKey) error {
	rd.quarMu.Lock()
	cause, bad := rd.quarantined[seg]
	rd.quarMu.Unlock()
	if bad {
		return fmt.Errorf("%w: segment %d/%d: %s", ErrQuarantined, seg.Area, seg.Start, cause)
	}
	return nil
}

// Quarantined lists the out-of-service segments and why each one was
// pulled (tools, tests, operators).
func (s *Server) Quarantined() map[proto.SegKey]string {
	s.quarMu.Lock()
	defer s.quarMu.Unlock()
	out := make(map[proto.SegKey]string, len(s.quarantined))
	for k, v := range s.quarantined {
		out[k] = v
	}
	return out
}

// corruptionIn reports whether err is a checksum-style detection (including
// a magic number destroyed by rot) rather than an I/O or logic error.
func corruptionIn(err error) bool {
	var ce *page.CorruptError
	return errors.As(err, &ce) || errors.Is(err, segment.ErrBadMagic)
}

// repairRange reconstructs pages [start, start+n) of area from the durable
// log: every change of a page is replayed in memory in the order it took
// effect (wal.ReplayPages: a committed transaction's changes at its commit, an
// aborted one's never, a rollback's anchors at its abort) — its anchors
// whole, its byte ranges over them — which leaves the page as redo would. zeroBase marks ranges whose
// initial on-disk state was all zeroes
// (data and overflow runs, which a format zeroes without logging) — those replay correctly from an empty history, while a slotted
// page is only repairable from a whole-page image, which the anchor rule
// makes the first record any commit logs of it. A page with history is
// rewritten on the proof of the last record replayed; a zeroBase page with
// none gets its unlogged initial image back the way it first got it
// (repairZero).
func (rd *reader) repairRange(areaID uint32, start page.No, n int, zeroBase bool) error {
	rd.repairMu.Lock()
	defer rd.repairMu.Unlock()
	a := rd.lookupArea(areaID)
	if a == nil {
		return ErrNoArea
	}
	if err := rd.log.Flush(0); err != nil {
		return err
	}
	hist, err := wal.ReplayPages(rd.log, wal.FirstLSN(), func(_ page.LSN, c *wal.Change) bool {
		return uint32(c.Page.Area) == areaID && c.Page.Page >= start && c.Page.Page < start+page.No(n)
	}, nil)
	if err != nil {
		return fmt.Errorf("server: repair: log history unreadable: %w", err)
	}
	for i := 0; i < n; i++ {
		pno := start + page.No(i)
		ph := hist[page.ID{Area: page.AreaID(areaID), Page: pno}]
		if ph == nil {
			if !zeroBase {
				return fmt.Errorf("server: repair: page %d:%d has no logged history", areaID, pno)
			}
			if err := rd.repairZero(a, pno); err != nil {
				return err
			}
			continue
		}
		if !ph.Whole && !zeroBase {
			return fmt.Errorf("server: repair: page %d:%d has no full-page image in the log", areaID, pno)
		}
		if err := rd.WriteRun([]wal.Logged{ph.Last}, ph.Data); err != nil {
			return err
		}
	}
	return nil
}

// repairWrites is the transaction manager's answer to page writes a commit
// failed after its force (tx.Manager.SetRepair). The commit stands, so each
// page is rebuilt from the log (repairRange); the segment of a page that
// cannot be is quarantined with the write's error as the cause — left as it
// was, the page could read back as the segment's last image, silently.
func (rd *reader) repairWrites(pages []page.ID, cause error) error {
	var lost []page.ID
	for _, pid := range pages {
		if err := rd.repairRange(uint32(pid.Area), pid.Page, 1, false); err != nil {
			lost = append(lost, pid)
			continue
		}
		rd.scrubCtr.repaired.Add(1)
	}
	if lost == nil {
		return nil
	}
	for _, seg := range rd.segmentsHolding(lost) {
		rd.quarantine(seg, cause)
	}
	return fmt.Errorf("%w: %d page(s) of a committed transaction were neither written nor rebuilt: %v",
		ErrQuarantined, len(lost), cause)
}

// segmentsHolding names the segments pages belong to: a slotted page by the
// catalog, a data or overflow page by its segment's header on disk.
func (rd *reader) segmentsHolding(pages []page.ID) []proto.SegKey {
	within := func(a page.AreaID, start page.No, n int) bool {
		for _, pid := range pages {
			if pid.Area == a && pid.Page >= start && pid.Page < start+page.No(n) {
				return true
			}
		}
		return false
	}
	var segs []proto.SegKey
	for _, sm := range rd.cat.allSegMetas() {
		start := page.No(sm.Seg.Start)
		holds := within(page.AreaID(sm.Seg.Area), start, sm.SlottedPages)
		if a := rd.lookupArea(sm.Seg.Area); !holds && a != nil {
			sl := make([]byte, sm.SlottedPages*page.Size)
			if a.ReadRun(start, sl) == nil {
				if dec, err := segment.DecodeSlotted(sl); err == nil {
					h := dec.Hdr
					holds = within(h.DataArea, h.DataStart, int(h.DataPages)) || within(h.OverArea, h.OverStart, int(h.OverPages))
				}
			}
		}
		if holds {
			segs = append(segs, sm.Seg)
		}
	}
	return segs
}

// --- background scrubber ---

// ScrubOnce walks every cataloged segment through the verified read path
// (readImage), repairing or quarantining whatever it finds. Segments a
// transaction holds a lock on (a writer may be mid-flight; the next pass sees
// its image) are skipped — a cached copy is no transaction's — as are
// already-quarantined ones. It returns the
// cumulative counters and the first non-corruption error.
//
// The walker is shared by three consumers: the background scrubber
// (StartScrub), `bess-inspect -verify`, and tests.
func (s *Server) ScrubOnce() (ScrubStats, error) {
	for _, sm := range s.cat.allSegMetas() {
		if s.closed.Load() {
			break
		}
		seg := sm.Seg
		if len(s.locks.Holders(segLockName(seg))) > 0 {
			continue // in-flight writer: verify on the next pass
		}
		_, sl, over, data, err := s.readImage(seg, secAll, s.live())
		s.scrubCtr.segsChecked.Add(1)
		if err != nil {
			if errors.Is(err, ErrQuarantined) || errors.Is(err, ErrTornRead) {
				continue // out of service, or a writer slipped in after the holder check
			}
			return s.ScrubStatus(), err
		}
		s.scrubCtr.pagesVerified.Add(int64((len(sl) + len(over) + len(data)) / page.Size))
	}
	return s.ScrubStatus(), nil
}

// StartScrub launches the background scrubber: one full pass every
// interval. One-shot per server: a second call is a no-op, and StopScrub (or
// Close) retires the scrubber for good.
func (s *Server) StartScrub(interval time.Duration) {
	s.scrubOnce.Do(func() {
		s.scrub.Go("server.scrubber", func(stop <-chan struct{}) {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
				}
				if s.closed.Load() {
					continue
				}
				_, _ = s.ScrubOnce()
			}
		})
	})
}

// StopScrub stops the background scrubber and waits for it to exit.
// Idempotent; called by Close.
func (s *Server) StopScrub() { s.scrub.Stop() }
