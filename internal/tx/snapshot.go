package tx

import "bess/internal/page"

// Snapshot reads (DESIGN.md §7): a read-only transaction mode that never
// touches the lock manager. The monotonic commit LSN doubles as the version
// timestamp — every committed transaction's TCommit LSN stamps the images it
// produced, and a snapshot opened at stamp T observes exactly the
// transactions whose commit LSN is ≤ T. Snapshots acquire zero locks and
// therefore can neither block writers nor deadlock; the cost is version
// retention, bounded by the watermark (Watermark) alone.

// SetCommitHook installs fn to run on every commit, after the commit record
// is durable and the version clock has reached it, and before the
// transaction's locks release, with the transaction id and its commit LSN
// (the version stamp). Must be called before any transaction begins; the
// hook is read unsynchronized.
func (m *Manager) SetCommitHook(fn func(txID uint64, commitLSN page.LSN)) { m.commitHook = fn }

// SetAbortHook installs fn to run on every runtime abort, after its abort
// record is durable and before locks release. Same registration contract as
// SetCommitHook.
func (m *Manager) SetAbortHook(fn func(txID uint64)) { m.abortHook = fn }

// noteCommit publishes lsn as the latest commit stamp. Commit LSNs are
// allocated monotonically but hooks can race, so the clock only moves
// forward.
func (m *Manager) noteCommit(lsn page.LSN) {
	m.mu.Lock()
	if lsn > m.commitStamp {
		m.commitStamp = lsn
	}
	m.mu.Unlock()
}

// SeedCommitStamp raises the version clock to lsn (no-op if already past
// it). Restart recovery seeds the clock from the log tail so snapshots
// opened after a crash sit above every pre-crash commit.
func (m *Manager) SeedCommitStamp(lsn page.LSN) { m.noteCommit(lsn) }

// CommitStamp returns the current version clock: the highest published
// commit LSN.
func (m *Manager) CommitStamp() page.LSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.commitStamp
}

// Snap is one open snapshot: a stamp pinned against version GC.
type Snap struct {
	m     *Manager
	id    uint64
	stamp page.LSN
}

// BeginSnapshot opens a read-only snapshot at the current commit stamp. It
// allocates no transaction id, takes no locks, and writes nothing to the
// log; it only pins its stamp in the manager's snapshot table so the
// version watermark cannot pass it. Close releases the pin.
func (m *Manager) BeginSnapshot() *Snap {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.snaps == nil {
		m.snaps = make(map[uint64]page.LSN)
	}
	m.nextSnap++
	s := &Snap{m: m, id: m.nextSnap, stamp: m.commitStamp}
	m.snaps[s.id] = s.stamp
	return s
}

// ID returns the snapshot's registry id (unique per manager).
func (s *Snap) ID() uint64 { return s.id }

// Stamp returns the snapshot's version timestamp.
func (s *Snap) Stamp() page.LSN { return s.stamp }

// Close releases the snapshot's pin on the version watermark. Idempotent.
func (s *Snap) Close() {
	s.m.mu.Lock()
	delete(s.m.snaps, s.id)
	s.m.mu.Unlock()
}

// Watermark is the version store's reclaim horizon: the smallest stamp an
// open snapshot has, or the commit stamp when none is open. A snapshot opened
// later takes a stamp at or above it, so an image superseded at or below the
// watermark is one no snapshot, open or to come, can read. One m.mu section
// reads both terms, so a snapshot that registers meanwhile is never undercut.
func (m *Manager) Watermark() page.LSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.commitStamp
	for _, st := range m.snaps {
		w = min(w, st)
	}
	return w
}
