package server

import (
	"errors"
	"fmt"

	"bess/internal/cache"
	"bess/internal/lock"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/tx"
	"bess/internal/wal"
)

// Snapshot reads (DESIGN.md §7): SnapOpen pins a version stamp, SnapFetchSeg
// serves segment images as of that stamp, SnapClose unpins it. The read path
// touches neither the lock manager nor the copy table — snapshot readers
// hold no locks, receive no callbacks, and cause none.

// snapEntry is one open snapshot: its tx-layer pin and owning client.
type snapEntry struct {
	snap   *tx.Snap
	client uint32
}

func vkeyOf(seg proto.SegKey) cache.VKey {
	return cache.VKey{Area: seg.Area, Start: seg.Start}
}

// publishSnapsLocked copies the registry and publishes the copy for
// lock-free readers. Called with snapMu held; the published map is never
// mutated again.
//
//bess:holds snapMu
func (s *Server) publishSnapsLocked() {
	view := make(map[uint64]*snapEntry, len(s.snapshots))
	for id, e := range s.snapshots {
		view[id] = e
	}
	s.snapView.Store(&view)
}

// SnapOpen implements proto.Conn: open a read-only snapshot at the current
// commit stamp.
func (s *Server) SnapOpen(client uint32) (uint64, uint64, error) {
	s.stats.messages.Add(1)
	if s.closed.Load() {
		return 0, 0, ErrShutdown
	}
	sn := s.txm.BeginSnapshot()
	s.snapMu.Lock()
	s.snapshots[sn.ID()] = &snapEntry{snap: sn, client: client}
	s.publishSnapsLocked()
	s.snapMu.Unlock()
	return sn.ID(), uint64(sn.Stamp()), nil
}

// SnapClose implements proto.Conn: release a snapshot and trim versions it
// alone was retaining.
func (s *Server) SnapClose(client uint32, snap uint64) error {
	s.stats.messages.Add(1)
	s.snapMu.Lock()
	e := s.snapshots[snap]
	delete(s.snapshots, snap)
	s.publishSnapsLocked()
	s.snapMu.Unlock()
	if e != nil {
		e.snap.Close()
		s.vs.Trim()
	}
	return nil
}

// snapStamp resolves a snapshot id to its stamp. Lock-free: it runs on
// every snapshot fetch, so it reads the published copy-on-write view
// instead of taking snapMu (bess-vet's lockfree analyzer holds this path
// to zero lock acquisitions).
func (s *Server) snapStamp(snap uint64) (page.LSN, error) {
	var e *snapEntry
	if view := s.snapView.Load(); view != nil {
		e = (*view)[snap]
	}
	if e == nil {
		return 0, fmt.Errorf("server: unknown snapshot %d", snap)
	}
	return e.snap.Stamp(), nil
}

// closeClientSnaps releases every snapshot a disconnecting client left open.
func (s *Server) closeClientSnaps(client uint32) {
	s.snapMu.Lock()
	var doomed []*snapEntry
	for id, e := range s.snapshots {
		if e.client == client {
			doomed = append(doomed, e)
			delete(s.snapshots, id)
		}
	}
	if len(doomed) > 0 {
		s.publishSnapsLocked()
	}
	s.snapMu.Unlock()
	for _, e := range doomed {
		e.snap.Close()
	}
	if len(doomed) > 0 && s.vs != nil {
		s.vs.Trim()
	}
}

// SnapFetchSeg implements proto.Conn: the segment's image as of the
// snapshot's stamp. Unlike FetchSeg it records no cached copy (the image
// may be stale by design, so it must not join the callback protocol) and
// acquires no locks. bess-vet's lockfree analyzer walks the whole call
// graph from here: any reachable lock acquisition is a finding unless a
// waiver names the deliberate exception.
//
//bess:lockfree
func (s *Server) SnapFetchSeg(client uint32, snap uint64, seg proto.SegKey) ([]byte, []byte, []byte, error) {
	s.stats.messages.Add(1)
	t, err := s.snapStamp(snap)
	if err != nil {
		return nil, nil, nil, err
	}
	return s.readAsOf(seg, t)
}

// readAsOf serves seg's image as of stamp t: a retained chain version, the
// current disk image when the segment is unchanged since t (verified
// against concurrent overwrites), or — chain trimmed, or version never
// captured — the disk image rewound with WAL before-images. On the hot
// outcomes it allocates nothing of its own: chain images are served as-is
// and the disk read is the fetch path's readImage.
//
//bess:hotpath
func (s *Server) readAsOf(seg proto.SegKey, t page.LSN) ([]byte, []byte, []byte, error) {
	s.stats.snapFetches.Add(1)
	key := vkeyOf(seg)
	for {
		//bess:lockfree ignore=version-store latch only: AsOf pins a chain entry under VersionStore.mu, never the lock manager; it blocks only on a committing writer's page-copy window
		v, trimmed := s.vs.AsOf(key, t)
		if v != nil {
			// Chain images are immutable after capture (StageUpdate clones
			// them once), so the sections are returned as-is: the reply
			// encoder only reads them, and three per-fetch clones off the
			// hot snapshot path are pure waste. Release only unpins the
			// entry; the GC drops the chain reference and the bytes stay
			// alive for as long as this reply needs them.
			sl, ov, data := v.Img.Slotted, v.Img.Overflow, v.Img.Data
			//bess:lockfree ignore=version-store latch only: Release unpins under VersionStore.mu and returns
			s.vs.Release(v)
			return sl, ov, data, nil
		}
		// Disk image verdict: read it, then confirm no update staged or
		// committed underneath the read. A rebuilt image needs no recheck —
		// its rewind already undid every write that could have raced it.
		//bess:lockfree ignore=disk read under the area's short page latches (plus the catalog and log latches on the trimmed-chain rebuild, off the hot chain and disk paths); the lock manager is never consulted
		_, img, over, data, err := s.readImage(seg, secAll, view{t: t, rebuild: trimmed != nil})
		if errors.Is(err, ErrTornRead) {
			continue
		}
		if err != nil {
			return nil, nil, nil, err
		}
		//bess:lockfree ignore=version-store latch only: Recheck compares the stamp under VersionStore.mu and returns
		if trimmed != nil || s.vs.Recheck(key, t) {
			return img, over, data, nil
		}
	}
}

// asOfBefores scans the durable log and returns, per page, the before-image
// of its earliest update whose transaction committed after t or has no
// commit record — exactly the content the page held at stamp t. The log is
// flushed first so records for every page write that already reached an
// area are visible to the scan.
func (s *Server) asOfBefores(t page.LSN) (map[page.ID][]byte, error) {
	if err := s.log.Flush(s.log.NextLSN()); err != nil {
		return nil, err
	}
	commit := make(map[uint64]page.LSN)
	if err := s.log.Iterate(wal.FirstLSN(), func(lsn page.LSN, rec *wal.Record) error {
		if rec.Type == wal.TCommit {
			commit[rec.Tx] = lsn
		}
		return nil
	}); err != nil {
		return nil, err
	}
	befores := make(map[page.ID][]byte)
	if err := s.log.Iterate(wal.FirstLSN(), func(lsn page.LSN, rec *wal.Record) error {
		if rec.Type != wal.TUpdate {
			return nil
		}
		if cl, done := commit[rec.Tx]; done && cl <= t {
			// Part of the as-of state: its After supersedes anything an
			// earlier rolled-back writer left in the map. The as-of image is
			// now this update's After — the Before of the next undone write,
			// or the disk content if none follows (aborted writers in
			// between net out through their CLRs).
			delete(befores, rec.Page)
			return nil
		}
		if _, seen := befores[rec.Page]; seen {
			return nil // an earlier undone update already fixed this page's as-of image
		}
		if rec.Off != 0 {
			return fmt.Errorf("server: as-of reconstruction: partial update at %d (off %d)", lsn, rec.Off)
		}
		befores[rec.Page] = append([]byte(nil), rec.Before...)
		return nil
	}); err != nil {
		return nil, err
	}
	return befores, nil
}

// overlayAsOf replaces the pages of buf (a whole-page run starting at
// area/start) that have an as-of before-image.
func overlayAsOf(befores map[page.ID][]byte, areaID page.AreaID, start page.No, buf []byte) {
	for off := 0; off < len(buf); off += page.Size {
		if b, ok := befores[page.ID{Area: areaID, Page: start + page.No(off/page.Size)}]; ok {
			dst := buf[off : off+page.Size]
			clear(dst[copy(dst, b):])
		}
	}
}

// VersionStats exposes the version store's counters (tests, benches).
func (s *Server) VersionStats() cache.VStats { return s.vs.VersionStats() }

// LockStats exposes the lock manager's counters — the zero-locks assertion
// for snapshot reads (E16) checks the Acquires delta across a read phase.
func (s *Server) LockStats() lock.Stats { return s.locks.Snapshot() }
