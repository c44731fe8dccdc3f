package server

import (
	"bytes"
	"errors"

	"bess/internal/cache"
	"bess/internal/lock"
	"bess/internal/page"
	"bess/internal/proto"
)

// Snapshot reads (DESIGN.md §7): SnapOpen registers a stamp with the version
// store — which trims nothing below the oldest open one — SnapFetchSeg serves
// segment images as of that stamp, SnapClose drops it. The read path runs on
// the reader (read.go), which has neither the lock manager nor the copy
// table: snapshot readers hold no locks, receive no callbacks, and cause
// none.

func vkeyOf(seg proto.SegKey) cache.VKey {
	return cache.VKey{Area: seg.Area, Start: seg.Start}
}

// SnapOpen implements proto.Conn: open a read-only snapshot for client at the
// current commit stamp.
func (s *Server) SnapOpen(client uint32) (uint64, uint64, error) {
	s.stats.messages.Add(1)
	if s.closed.Load() {
		return 0, 0, ErrShutdown
	}
	snap, stamp := s.vs.Open(client)
	return snap, uint64(stamp), nil
}

// SnapClose implements proto.Conn: release client's snapshot and trim the
// versions it alone was retaining. Another client's snapshot is refused
// (cache.ErrNotOwner; over rpc, an *rpc.RemoteError carrying its text, as
// every error does) and stays open; an id that is not open is a no-op.
func (s *Server) SnapClose(client uint32, snap uint64) error {
	s.stats.messages.Add(1)
	return s.vs.Close(client, snap)
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
	return rd.readAsOf(seg, snap, 0)
}

// readAsOf serves seg's image as of stamp t — or, when snap is not 0, as of
// open snapshot snap's stamp, which the store looks up in the same mu section
// as it first resolves seg: a retained chain version, or the current disk
// image when the segment is unchanged since t (verified against concurrent
// overwrites). The log is never read: the version store
// keeps every image an open snapshot can reach, so anything else is the
// store's *cache.VersionMiss. On the hot outcomes it allocates nothing of its
// own: chain images are served as-is (shared: read them, do not write them)
// and the disk read is the fetch path's readImage.
//
// TestReadAsOfAllocs pins its allocation budget.
func (rd *reader) readAsOf(seg proto.SegKey, snap uint64, t page.LSN) (sl, ov, data []byte, shared bool, err error) {
	rd.stats.snapFetches.Add(1)
	key := vkeyOf(seg)
	for {
		// Chain images are immutable from StageUpdate on and handed out by
		// value: the reply encoder only reads them, and if the store trims
		// the entry meanwhile it drops its own reference, not the bytes this
		// reply holds.
		var img cache.VImage
		var hit bool
		if snap != 0 {
			t, img, hit, err = rd.vs.SnapAsOf(snap, key)
			snap = 0
		} else {
			img, hit, err = rd.vs.AsOf(key, t)
		}
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
