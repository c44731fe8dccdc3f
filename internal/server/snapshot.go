package server

import (
	"bytes"
	"errors"
	"fmt"

	"bess/internal/cache"
	"bess/internal/lock"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/tx"
	"bess/internal/wal"
)

// Snapshot reads (DESIGN.md §7): SnapOpen registers a stamp — the watermark
// below which the version store trims nothing a reader could ask for —
// SnapFetchSeg serves segment images as of that stamp, SnapClose drops it. The
// read path runs on the reader (read.go), which has neither the lock manager
// nor the copy table: snapshot readers hold no locks, receive no callbacks,
// and cause none.

// snapEntry is one open snapshot: its tx-layer pin and owning client.
type snapEntry struct {
	snap   *tx.Snap
	client uint32
}

func vkeyOf(seg proto.SegKey) cache.VKey {
	return cache.VKey{Area: seg.Area, Start: seg.Start}
}

// publishSnapsLocked publishes each open snapshot's stamp for the reader,
// which has no snapMu to take. Called with snapMu held; the published map is
// never mutated again.
//
//bess:holds snapMu
func (s *Server) publishSnapsLocked() {
	view := make(map[uint64]page.LSN, len(s.snapshots))
	for id, e := range s.snapshots {
		view[id] = e.snap.Stamp()
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

// snapStamp resolves a snapshot id to its stamp. It runs on every snapshot
// fetch, so it reads the published copy-on-write view; the registry and its
// snapMu are the Server's, out of the reader's reach.
func (rd *reader) snapStamp(snap uint64) (page.LSN, error) {
	if view := rd.snapView.Load(); view != nil {
		if t, ok := (*view)[snap]; ok {
			return t, nil
		}
	}
	return 0, fmt.Errorf("server: unknown snapshot %d", snap)
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
// acquires no locks. What it returns is the caller's (proto.Conn): a session
// on a direct handle swizzles the data in place, so an image the version
// chain still owns is cloned here — and only here; the rpc handler encodes
// straight from the chain (snapFetch).
func (s *Server) SnapFetchSeg(client uint32, snap uint64, seg proto.SegKey) ([]byte, []byte, []byte, error) {
	sl, ov, data, shared, err := s.snapFetch(snap, seg)
	if shared {
		sl, ov, data = bytes.Clone(sl), bytes.Clone(ov), bytes.Clone(data)
	}
	return sl, ov, data, err
}

// snapFetch is SnapFetchSeg for a caller that only reads the image: shared
// reports that the bytes are the version chain's own.
func (rd *reader) snapFetch(snap uint64, seg proto.SegKey) (sl, ov, data []byte, shared bool, err error) {
	rd.stats.messages.Add(1)
	t, err := rd.snapStamp(snap)
	if err != nil {
		return nil, nil, nil, false, err
	}
	return rd.readAsOf(seg, t)
}

// readAsOf serves seg's image as of stamp t: a retained chain version, the
// current disk image when the segment is unchanged since t (verified
// against concurrent overwrites), or — chain trimmed, or version never
// captured — the disk image rewound with WAL before-images. On the hot
// outcomes it allocates nothing of its own: chain images are served as-is
// (shared: read them, do not write them) and the disk read is the fetch
// path's readImage.
//
//bess:hotpath
func (rd *reader) readAsOf(seg proto.SegKey, t page.LSN) (sl, ov, data []byte, shared bool, err error) {
	rd.stats.snapFetches.Add(1)
	key := vkeyOf(seg)
	for {
		// Chain images are immutable after capture (StageUpdate clones them
		// once) and handed out by value: the reply encoder only reads them,
		// and if the store trims the entry meanwhile it drops its own
		// reference, not the bytes this reply holds.
		img, hit, trimmed := rd.vs.AsOf(key, t)
		if hit {
			return img.Slotted, img.Overflow, img.Data, true, nil
		}
		// Disk image verdict: read it, then confirm no update staged or
		// committed underneath the read. A rebuilt image needs no recheck —
		// its rewind already undid every write that could have raced it.
		_, sl, ov, data, err = rd.readImage(seg, secAll, view{t: t, rebuild: trimmed != nil})
		if errors.Is(err, ErrTornRead) {
			continue
		}
		if err != nil {
			return nil, nil, nil, false, err
		}
		if trimmed != nil || rd.vs.Recheck(key, t) {
			return sl, ov, data, false, nil
		}
	}
}

// undone is the undo half of one update record: Before, cut at UndoOff.
type undone struct {
	page   page.No
	off    uint32
	before []byte
}

// asOfBefores scans the durable log once and returns, for each page of the
// run [start, start+n) of areaID changed after stamp t, the undo images that
// take the page's current content back to what it held at t, in log order.
//
// A transaction's images wait in pending until the log says how it ended. A
// commit at or before t makes its updates part of the as-of state: whatever
// was collected for their pages came from writers that rolled back before
// this one got its lock (their CLRs already netted them out of the image it
// built on) and is dropped. Any other ending — a later commit, an abort, none
// yet — moves its images to their pages' lists. Two-phase locking keeps each
// page's list in log order and puts every transaction committed by t ahead of
// those that were not, so laying a list over its page latest-first
// (overlayAsOf) undoes exactly the writes the stamp must not see. CLRs need no
// part in it: a range a CLR restored is covered by the image of the update it
// compensates. Resolving a transaction at its own commit, abort or end record
// also keeps a transaction id reissued after a restart apart from its earlier
// life. The log is flushed first so records for every page write that already
// reached an area are visible to the scan.
func (rd *reader) asOfBefores(t page.LSN, areaID page.AreaID, start page.No, n int) (map[page.No][]undone, error) {
	if err := rd.log.Flush(rd.log.NextLSN()); err != nil {
		return nil, err
	}
	befores := make(map[page.No][]undone)
	pending := make(map[uint64][]undone)
	undo := func(tx uint64) {
		for _, u := range pending[tx] {
			befores[u.page] = append(befores[u.page], u)
		}
		delete(pending, tx)
	}
	if err := rd.log.Iterate(wal.FirstLSN(), func(lsn page.LSN, rec *wal.Record) error {
		switch rec.Type {
		case wal.TUpdate:
			if rec.Page.Area != areaID || rec.Page.Page < start || rec.Page.Page >= start+page.No(n) {
				return nil
			}
			if int(rec.UndoOff)+len(rec.Before) > page.Size {
				return fmt.Errorf("server: as-of reconstruction: update at %d runs past its page", lsn)
			}
			pending[rec.Tx] = append(pending[rec.Tx], undone{rec.Page.Page, rec.UndoOff, rec.Before})
		case wal.TCommit:
			if lsn > t {
				undo(rec.Tx)
				return nil
			}
			for _, u := range pending[rec.Tx] {
				delete(befores, u.page)
			}
			delete(pending, rec.Tx)
		case wal.TAbort, wal.TEnd:
			undo(rec.Tx)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for tx := range pending {
		undo(tx) // still running, or in doubt
	}
	return befores, nil
}

// overlayAsOf rewinds buf, a whole-page run starting at start, with the undo
// images asOfBefores collected: per page latest-first, so that where two
// overlap the earliest — the content at the stamp — wins.
func overlayAsOf(befores map[page.No][]undone, start page.No, buf []byte) {
	for off := 0; off < len(buf); off += page.Size {
		us := befores[start+page.No(off/page.Size)]
		for i := len(us) - 1; i >= 0; i-- {
			copy(buf[off+int(us[i].off):], us[i].before)
		}
	}
}

// VersionStats exposes the version store's counters (tests, benches).
func (s *Server) VersionStats() cache.VStats { return s.vs.VersionStats() }

// LockStats exposes the lock manager's counters — the zero-locks assertion
// for snapshot reads (E16) checks the Acquires delta across a read phase.
func (s *Server) LockStats() lock.Stats { return s.locks.Snapshot() }
