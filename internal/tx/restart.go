package tx

import (
	"fmt"

	"bess/internal/hooks"
	"bess/internal/lock"
	"bess/internal/wal"
)

// Restart brings the pages and the transaction table to what the log
// describes, ARIES-style, and returns the manager to go on with. Package wal
// analyses the log and repeats history (wal.Redo); the transactions it finds
// open are adopted into the new manager's table with their log chains; the
// losers among them are rolled back, latest first, by the loop every runtime
// abort runs (Tx.Abort), so restart's CLRs follow the anchor rule like any
// others; an in-doubt 2PC branch is simply still in the table, Prepared, for
// its coordinator's decision to Commit or Abort.
func Restart(log *wal.Log, locks *lock.Manager, pager wal.Pager, hk *hooks.Registry) (*Manager, *wal.RecoveryStats, error) {
	st, open, err := wal.Redo(log, pager)
	if err != nil {
		return nil, nil, err
	}
	m := NewManager(log, locks, pager, hk)
	for _, u := range open {
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
