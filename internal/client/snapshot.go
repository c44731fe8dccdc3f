package client

import (
	"errors"

	"bess/internal/proto"
	"bess/internal/swizzle"
)

// Snapshot mode (DESIGN.md §7): a read-only transaction that never touches
// the lock manager. BeginSnapshot pins a version stamp at the server; every
// access then resolves against that stamp — cached copies keep serving
// (a registered copy is by definition unchanged since it was fetched, hence
// valid at any later stamp), cold fetches route to SnapFetchSeg for the
// as-of image, and writes fail. Callbacks arriving mid-snapshot are always
// accepted — the revoking writer commits after our stamp was pinned, so the
// cached pre-write copy is exactly the as-of image; it keeps serving until
// EndSnapshot, the version boundary where all snapshot-only state drops.

// Errors returned by snapshot mode.
var (
	ErrSnapshotRead = errors.New("client: snapshot transactions are read-only")
	ErrNoSnap       = errors.New("client: no open snapshot")
	ErrSnapLarge    = errors.New("client: large objects are not available in snapshot mode")
)

// BeginSnapshot opens a read-only snapshot transaction at the server's
// current commit stamp. Reads acquire no locks (and thus never block on or
// deadlock with writers); writes fail with ErrSnapshotRead. End it with
// EndSnapshot (Commit and Abort also end it).
func (s *Session) BeginSnapshot() error {
	s.mu.Lock()
	if s.inTx {
		s.mu.Unlock()
		return ErrTxActive
	}
	// Claim the transaction slot first so a concurrent Begin fails fast.
	s.inTx = true
	s.txID = 0
	s.mu.Unlock()
	snap, stamp, err := s.conn.SnapOpen(s.client)
	if err != nil {
		s.mu.Lock()
		s.inTx = false
		s.mu.Unlock()
		return err
	}
	// Enter snapshot mode and take the pending-drop queue in one critical
	// section: every revocation accepted before this instant may belong to a
	// writer that committed before our stamp was pinned, so those copies
	// must be dropped (the refetch serves the as-of image); every revocation
	// after it is queued to snapDrops and the copy retained — its writer
	// commits strictly after our stamp.
	s.mu.Lock()
	s.snapMode = true
	s.snapID, s.snapStamp = snap, stamp
	s.snapDrops = make(map[proto.SegKey]bool)
	s.snapFetched = make(map[swizzle.SegID]bool)
	s.touched = make(map[proto.SegKey]bool)
	drops := s.pendingDrops
	s.pendingDrops = make(map[proto.SegKey]bool)
	s.stats.Snapshots++
	s.mu.Unlock()
	for key := range drops {
		if err := s.dropSeg(segID(key)); err != nil {
			_ = s.EndSnapshot()
			return err
		}
	}
	return nil
}

// EndSnapshot closes the snapshot: the server unpins the stamp (releasing
// retained versions), and every as-of image plus every copy revoked during
// the snapshot is dropped — the version boundary at which invalidations
// take effect.
func (s *Session) EndSnapshot() error {
	s.mu.Lock()
	if !s.snapMode {
		s.mu.Unlock()
		return ErrNoSnap
	}
	snap := s.snapID
	fetched := s.snapFetched
	revoked := s.snapDrops
	s.snapMode = false
	s.snapID, s.snapStamp = 0, 0
	s.snapFetched, s.snapDrops = nil, nil
	s.mu.Unlock()
	for id := range fetched {
		_ = s.dropSeg(id) // as-of image, already stale and never registered
	}
	for key := range revoked {
		_ = s.dropSeg(segID(key)) // promised to the server mid-snapshot
	}
	err := s.conn.SnapClose(s.client, snap)
	s.endTx(false)
	return err
}

// snapState returns the snapshot id and whether snapshot mode is active —
// the fetcher's routing switch.
func (s *Session) snapState() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapID, s.snapMode
}

// markSnapFetched records, while a snapshot is open, an as-of image on its
// way into the mapper; it is dropped at EndSnapshot.
func (s *Session) markSnapFetched(id swizzle.SegID) {
	s.mu.Lock()
	if s.snapMode {
		s.snapFetched[id] = true
	}
	s.mu.Unlock()
}
