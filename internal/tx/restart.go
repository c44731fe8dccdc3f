package tx

import (
	"fmt"

	"bess/internal/hooks"
	"bess/internal/lock"
	"bess/internal/wal"
)

// Restart brings the pages and the transaction table to what the log
// describes, ARIES-style, and returns the manager to go on with. an is the
// log's analysis (wal.Analyze); Restart repeats history from it (Redo), adopts
// the transactions it found open into the new manager's table with their log
// chains, and rolls the losers among them back, latest first, by the loop
// every runtime abort runs (Tx.Abort), so restart's CLRs follow the anchor
// rule like any others; an in-doubt 2PC branch is simply still in the table,
// Prepared, for its coordinator's decision to Commit or Abort — with its
// redo-only records' pages unwritten, for a commit to write from its chain.
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
		if u.Prepared {
			if err := t.adopt(an); err != nil {
				return nil, nil, fmt.Errorf("tx: restart: adopting branch %d: %w", u.Tx, err)
			}
			continue
		}
		undone, err := t.rollback(false)
		if err != nil {
			return nil, nil, fmt.Errorf("tx: restart: undo of transaction %d: %w", u.Tx, err)
		}
		st.UndoApplied += undone
	}
	return m, st, nil
}

// adopt gives a prepared branch restart found what its own run kept in memory:
// for each page it changed, the recLSN a checkpoint must list while it is in
// doubt — where this restart's redo started the page — and whether redo-only
// records in its chain wait for its commit.
func (t *Tx) adopt(an *wal.Analysis) error {
	for next := t.lastLSN; next != 0; {
		rec, err := t.m.log.ReadRecord(next)
		if err != nil {
			return err
		}
		if rec.Type == wal.TUpdate || rec.Type == wal.TRedo {
			rl, ok := an.RecLSN(rec.Page)
			if !ok || rl > next {
				rl = next
			}
			t.dirty[rec.Page] = rl
			t.deferred = t.deferred || rec.Type == wal.TRedo
		}
		next = rec.PrevLSN
	}
	return nil
}
