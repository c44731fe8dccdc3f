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
// Prepared, for its coordinator's decision to Commit or Abort.
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
