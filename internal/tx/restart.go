package tx

import (
	"fmt"
	"slices"

	"bess/internal/hooks"
	"bess/internal/lock"
	"bess/internal/wal"
)

// Restart brings the pages and the transaction table to what the log
// describes and returns the manager to go on with. an is the log's analysis
// (wal.Analyze); Restart repeats history from it (Redo), adopts the
// transactions it found open into the new manager's table with their log
// chains, and ends the losers among them, latest first, by the rollback every
// runtime abort runs (Tx.Abort): an abort record each, re-anchoring the pages
// their spills named, and nothing else on a page — redo never wrote what they
// logged. An in-doubt 2PC branch is simply still in the table, Prepared, for
// its coordinator's decision to Commit or Abort — with its pages unwritten,
// for a commit to write from its chain.
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
		t := m.register(u.Tx, 0, state, u.LastLSN)
		m.mu.Unlock()
		if err := t.adopt(an); err != nil {
			return nil, nil, fmt.Errorf("tx: restart: adopting transaction %d: %w", u.Tx, err)
		}
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
// memory: its records' LSNs; for each page whose change it logged, the recLSN
// a checkpoint must list while it is open — where this restart's redo started
// the page; and whether changes in its chain wait for its commit.
func (t *Tx) adopt(an *wal.Analysis) error {
	for next := t.lastLSN; next != 0; {
		rec, err := t.m.log.ReadRecord(next)
		if err != nil {
			return err
		}
		t.logged = append(t.logged, next)
		for _, c := range rec.Changes {
			rl, ok := an.RecLSN(c.Page)
			if !ok || rl > next {
				rl = next
			}
			t.dirty[c.Page] = rl
			t.deferred = true
		}
		next = rec.PrevLSN
	}
	slices.Reverse(t.logged)
	return nil
}
