package wal

import (
	"fmt"
	"sort"

	"bess/internal/page"
)

// Pager is the page store recovery replays against. WritePage stores data as
// the whole of page proof.Page() and rejects the zero proof with ErrNotLogged:
// there is no way to name a page to it other than by a record of that page.
type Pager interface {
	ReadPage(id page.ID, buf []byte) error
	WritePage(proof Logged, data []byte) error
}

// RecoveryStats summarizes one restart: Redo fills in what analysis and redo
// found, tx.Restart what undo wrote.
type RecoveryStats struct {
	RecordsAnalyzed int
	RedoApplied     int
	UndoApplied     int // CLRs written during undo
	Losers          []uint64
	Winners         []uint64
	InDoubt         []uint64 // prepared but undecided 2PC participants
	CheckpointLSN   page.LSN
	RedoStartLSN    page.LSN
	// UnanchoredPages counts pages whose earliest replayed record was a
	// byte-range delta instead of a whole-page image. The logging rule
	// (tx.Tx.LogUpdate) keeps it at 0: redo then rebuilds every page it
	// touches from a full image, whatever a torn write left on disk.
	UnanchoredPages int
}

// Unfinished is a transaction the log leaves open: a loser to roll back, or,
// when Prepared, a 2PC branch to keep until its coordinator decides.
type Unfinished struct {
	Tx       uint64
	LastLSN  page.LSN
	Prepared bool
}

// Redo performs the first two passes of ARIES-style restart — analysis from
// the most recent checkpoint, physical redo of history — and returns the
// transactions still open at the end of the log, latest record first. Undo is
// not done here: the transaction manager adopts them and rolls the losers
// back the way it rolls back at runtime (tx.Restart).
//
// Redo replays a record only at or after its page's recLSN — the
// checkpoint's dirty-page entry, or the page's first record after the
// checkpoint. Update records are byte ranges, so where a page's replay starts
// matters: the logging rule makes each of those two LSNs a whole-page image.
//
// Catalog records (TCatalog) are not Redo's: the server replays them into its
// catalog, and re-establishes the storage they name, before it restarts the
// pages. Both passes skip them.
func Redo(l *Log, p Pager) (*RecoveryStats, []Unfinished, error) {
	st := &RecoveryStats{}

	// Pass 0: find the most recent checkpoint.
	var ckptLSN page.LSN
	var ckpt *Record
	if err := l.Iterate(firstLSN, func(lsn page.LSN, rec *Record) error {
		st.RecordsAnalyzed++
		if rec.Type == TCheckpoint {
			ckptLSN, ckpt = lsn, rec
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	st.CheckpointLSN = ckptLSN

	// Pass 1: analysis — rebuild the transaction table and dirty-page table
	// starting from the checkpoint. A transaction's status is the type of the
	// record that last changed it: TUpdate while active, TPrepare in doubt
	// (neither redone away nor undone until the coordinator's decision
	// arrives), TCommit a winner, TAbort rolled back before the crash.
	type txInfo struct {
		lastLSN page.LSN
		status  Type
	}
	txs := make(map[uint64]txInfo)
	dpt := make(map[page.ID]page.LSN)
	scanFrom := firstLSN
	if ckpt != nil {
		scanFrom = ckptLSN
		for _, e := range ckpt.ActiveTxs {
			txs[e.Tx] = txInfo{e.LastLSN, TUpdate}
		}
		for _, e := range ckpt.DirtyPages {
			dpt[e.Page] = e.RecLSN
		}
	}
	if err := l.Iterate(scanFrom, func(lsn page.LSN, rec *Record) error {
		switch rec.Type {
		case TUpdate, TCLR:
			txs[rec.Tx] = txInfo{lsn, TUpdate}
			if _, ok := dpt[rec.Page]; !ok {
				dpt[rec.Page] = lsn
			}
		case TCommit, TPrepare:
			txs[rec.Tx] = txInfo{lsn, rec.Type}
		case TAbort:
			if ti, ok := txs[rec.Tx]; ok {
				txs[rec.Tx] = txInfo{ti.lastLSN, TAbort}
			}
		case TEnd:
			delete(txs, rec.Tx)
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}

	// Pass 2: redo — repeat history from the earliest recLSN.
	redoStart := firstLSN
	if ckpt != nil {
		redoStart = ckptLSN
		for _, rl := range dpt {
			if rl < redoStart {
				redoStart = rl
			}
		}
	}
	st.RedoStartLSN = redoStart
	buf := make([]byte, page.Size)
	replayed := make(map[page.ID]bool)
	if err := l.Iterate(redoStart, func(lsn page.LSN, rec *Record) error {
		if rec.Type != TUpdate && rec.Type != TCLR {
			return nil
		}
		if rl, dirty := dpt[rec.Page]; !dirty || lsn < rl || len(rec.After) == 0 {
			return nil
		}
		if !replayed[rec.Page] {
			replayed[rec.Page] = true
			if !rec.WholePage() {
				st.UnanchoredPages++
			}
		}
		if err := p.ReadPage(rec.Page, buf); err != nil {
			return fmt.Errorf("wal: redo read %v: %w", rec.Page, err)
		}
		if int(rec.Off)+len(rec.After) > len(buf) {
			return fmt.Errorf("wal: redo record at %d out of page bounds", lsn)
		}
		copy(buf[rec.Off:], rec.After)
		if err := p.WritePage(rec.Logged(), buf); err != nil {
			return fmt.Errorf("wal: redo write %v: %w", rec.Page, err)
		}
		st.RedoApplied++
		return nil
	}); err != nil {
		return nil, nil, err
	}

	var open []Unfinished
	for tx, ti := range txs {
		switch ti.status {
		case TUpdate:
			st.Losers = append(st.Losers, tx)
			open = append(open, Unfinished{Tx: tx, LastLSN: ti.lastLSN})
		case TPrepare:
			st.InDoubt = append(st.InDoubt, tx)
			open = append(open, Unfinished{Tx: tx, LastLSN: ti.lastLSN, Prepared: true})
		case TCommit:
			st.Winners = append(st.Winners, tx)
		}
	}
	for _, ids := range [][]uint64{st.Losers, st.Winners, st.InDoubt} {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	sort.Slice(open, func(i, j int) bool { return open[i].LastLSN > open[j].LastLSN })
	return st, open, nil
}

// Checkpoint writes a fuzzy checkpoint record capturing the live
// transaction table and dirty-page table, and flushes the log.
func Checkpoint(l *Log, active []CkptTx, dirty []CkptPage) (page.LSN, error) {
	lsn, err := l.Append(&Record{Type: TCheckpoint, ActiveTxs: active, DirtyPages: dirty})
	if err != nil {
		return 0, err
	}
	if err := l.Flush(0); err != nil {
		return 0, err
	}
	return lsn, nil
}
