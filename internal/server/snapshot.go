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

// readAsOf serves seg's image as of stamp t: a retained chain version, or
// the current disk image when the segment is unchanged since t (verified
// against concurrent overwrites). The log is never read: the version store
// keeps every image an open snapshot can reach, so anything else is the
// store's *cache.VersionMiss. On the hot outcomes it allocates nothing of its
// own: chain images are served as-is (shared: read them, do not write them)
// and the disk read is the fetch path's readImage.
//
//bess:hotpath
func (rd *reader) readAsOf(seg proto.SegKey, t page.LSN) (sl, ov, data []byte, shared bool, err error) {
	rd.stats.snapFetches.Add(1)
	key := vkeyOf(seg)
	for {
		// Chain images are immutable from StageUpdate on and handed out by
		// value: the reply encoder only reads them, and if the store trims
		// the entry meanwhile it drops its own reference, not the bytes this
		// reply holds.
		img, hit, err := rd.vs.AsOf(key, t)
		if err != nil {
			return nil, nil, nil, false, err
		}
		if hit {
			return img.Slotted, img.Overflow, img.Data, true, nil
		}
		// Disk image verdict: read it, then confirm no update staged or
		// committed underneath the read.
		_, sl, ov, data, err = rd.readImage(seg, secAll, t)
		if errors.Is(err, ErrTornRead) {
			continue
		}
		if err != nil {
			return nil, nil, nil, false, err
		}
		if rd.vs.Recheck(key, t) {
			return sl, ov, data, false, nil
		}
	}
}

// VersionStats exposes the version store's counters (tests, benches).
func (s *Server) VersionStats() cache.VStats { return s.vs.VersionStats() }

// LockStats exposes the lock manager's counters — the zero-locks assertion
// for snapshot reads (E16) checks the Acquires delta across a read phase.
func (s *Server) LockStats() lock.Stats { return s.locks.Snapshot() }
