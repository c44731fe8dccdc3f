package tx

import (
	"fmt"
	"maps"
	"slices"

	"bess/internal/hooks"
	"bess/internal/lock"
	"bess/internal/wal"
)

// Restart brings the pages and the transaction table to what the log
// describes and returns the manager to go on with. an is the log's analysis
// (wal.Analyze); Restart repeats history from it (Redo), adopts the
// transactions it found open into the new manager's table, and ends the
// losers among them, latest first, by the rollback every runtime abort runs
// (Tx.Abort): an abort record each, re-anchoring the pages their spills
// named, and nothing else on a page — redo never wrote what they logged. An
// in-doubt 2PC branch is simply still in the table, Prepared, for its
// coordinator's decision to Commit or Abort — with its pages unwritten, for a
// commit to rebuild by the replay of its records.
func Restart(an *wal.Analysis, locks *lock.Manager, pager wal.Pager, hk *hooks.Registry) (*Manager, *wal.RecoveryStats, error) {
	if err := an.Redo(pager); err != nil {
		return nil, nil, err
	}
	st := &an.Stats
	m := NewManager(an.Log(), locks, pager, hk)
	for _, u := range an.Open {
		state := Active
		if u.Prepared {
			state = Prepared
		}
		m.mu.Lock()
		t := m.register(u.Tx, 0, state, 0)
		m.mu.Unlock()
		t.adopt(u)
		if u.Prepared {
			continue
		}
		if err := t.rollback(false); err != nil {
			return nil, nil, fmt.Errorf("tx: restart: rollback of transaction %d: %w", u.Tx, err)
		}
	}
	return m, st, nil
}

// adopt gives a transaction restart found open what its own run kept in
// memory, as analysis read it off the log: its records' LSNs, the last of
// which its next record links to; for each page whose change it logged, the
// recLSN a checkpoint must list while it is open; and whether changes it
// logged wait for its commit.
func (t *Tx) adopt(u wal.Unfinished) {
	t.logged = slices.Clone(u.Logged)
	t.lastLSN = t.logged[len(t.logged)-1]
	maps.Copy(t.dirty, u.Dirty)
	t.deferred = len(t.dirty) > 0
}
