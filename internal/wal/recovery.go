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

// RecoveryStats summarizes one restart.
type RecoveryStats struct {
	RecordsAnalyzed int
	RedoApplied     int
	UndoApplied     int // CLRs written during undo
	Losers          []uint64
	Winners         []uint64
	InDoubt         []uint64 // prepared but undecided 2PC participants
	// InDoubtLast maps each in-doubt transaction to its last LSN (the
	// prepare record) so the server can adopt and later commit or roll
	// back the branch when the coordinator's decision arrives.
	InDoubtLast   map[uint64]page.LSN
	CheckpointLSN page.LSN
	RedoStartLSN  page.LSN
	// UnanchoredPages counts pages whose earliest replayed record was a
	// byte-range delta instead of a whole-page image. The logging rule
	// (tx.Tx.LogUpdate) keeps it at 0: redo then rebuilds every page it
	// touches from a full image, whatever a torn write left on disk.
	UnanchoredPages int
}

// txInfo tracks one transaction during analysis.
type txInfo struct {
	lastLSN page.LSN
	status  byte // 'A' active, 'C' committed, 'E' ended
}

// Recover performs ARIES-style restart: analysis from the most recent
// checkpoint, physical redo of history, and undo of loser transactions with
// CLR logging. New CLR/abort records are appended to l and flushed.
//
// Redo replays a record only at or after its page's recLSN — the
// checkpoint's dirty-page entry, or the page's first record after the
// checkpoint. Update records are byte ranges, so where a page's replay starts
// matters: the logging rule makes each of those two LSNs a whole-page image.
//
// Catalog records (TCatalog) are not Recover's: the server replays them into
// its catalog, and re-establishes the storage they name, before it calls
// Recover. All three passes skip them.
func Recover(l *Log, p Pager) (*RecoveryStats, error) {
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
		return nil, err
	}
	st.CheckpointLSN = ckptLSN

	// Pass 1: analysis — rebuild the transaction table and dirty-page table
	// starting from the checkpoint.
	txs := make(map[uint64]*txInfo)
	dpt := make(map[page.ID]page.LSN)
	scanFrom := firstLSN
	if ckpt != nil {
		scanFrom = ckptLSN
		for _, e := range ckpt.ActiveTxs {
			txs[e.Tx] = &txInfo{lastLSN: e.LastLSN, status: 'A'}
		}
		for _, e := range ckpt.DirtyPages {
			dpt[e.Page] = e.RecLSN
		}
	}
	if err := l.Iterate(scanFrom, func(lsn page.LSN, rec *Record) error {
		switch rec.Type {
		case TUpdate, TCLR:
			ti := txs[rec.Tx]
			if ti == nil {
				ti = &txInfo{status: 'A'}
				txs[rec.Tx] = ti
			}
			ti.lastLSN = lsn
			ti.status = 'A'
			if _, ok := dpt[rec.Page]; !ok {
				dpt[rec.Page] = lsn
			}
		case TCommit:
			if ti := txs[rec.Tx]; ti != nil {
				ti.status = 'C'
				ti.lastLSN = lsn
			} else {
				txs[rec.Tx] = &txInfo{status: 'C', lastLSN: lsn}
			}
		case TPrepare:
			// In-doubt: neither redone away nor undone until the
			// coordinator's decision arrives (presumed-abort handled by
			// the server layer).
			if ti := txs[rec.Tx]; ti != nil {
				ti.status = 'P'
				ti.lastLSN = lsn
			} else {
				txs[rec.Tx] = &txInfo{status: 'P', lastLSN: lsn}
			}
		case TAbort:
			// Rollback completed before the crash: nothing left to undo.
			if ti := txs[rec.Tx]; ti != nil {
				ti.status = 'E'
			}
		case TEnd:
			delete(txs, rec.Tx)
		}
		return nil
	}); err != nil {
		return nil, err
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
		return nil, err
	}

	// Pass 3: undo losers, deepest LSN first, writing CLRs.
	type loser struct {
		tx   uint64
		next page.LSN
	}
	var losers []loser
	for tx, ti := range txs {
		switch ti.status {
		case 'A':
			losers = append(losers, loser{tx: tx, next: ti.lastLSN})
			st.Losers = append(st.Losers, tx)
		case 'C':
			st.Winners = append(st.Winners, tx)
		case 'P':
			st.InDoubt = append(st.InDoubt, tx)
			if st.InDoubtLast == nil {
				st.InDoubtLast = make(map[uint64]page.LSN)
			}
			st.InDoubtLast[tx] = ti.lastLSN
		}
	}
	sort.Slice(st.InDoubt, func(i, j int) bool { return st.InDoubt[i] < st.InDoubt[j] })
	sort.Slice(losers, func(i, j int) bool { return losers[i].next > losers[j].next })
	sort.Slice(st.Losers, func(i, j int) bool { return st.Losers[i] < st.Losers[j] })
	sort.Slice(st.Winners, func(i, j int) bool { return st.Winners[i] < st.Winners[j] })

	for len(losers) > 0 {
		// Take the loser with the largest next-LSN (reverse chronological).
		sort.Slice(losers, func(i, j int) bool { return losers[i].next > losers[j].next })
		cur := &losers[0]
		if cur.next == 0 {
			// Rollback complete for this transaction.
			if _, err := l.Append(&Record{Type: TAbort, Tx: cur.tx}); err != nil {
				return nil, err
			}
			if _, err := l.Append(&Record{Type: TEnd, Tx: cur.tx}); err != nil {
				return nil, err
			}
			losers = losers[1:]
			continue
		}
		rec, err := l.ReadRecord(cur.next)
		if err != nil {
			return nil, fmt.Errorf("wal: undo read at %d: %w", cur.next, err)
		}
		switch rec.Type {
		case TUpdate:
			// Apply the before-image and log a CLR.
			if len(rec.Before) > 0 {
				if err := p.ReadPage(rec.Page, buf); err != nil {
					return nil, err
				}
				if int(rec.UndoOff)+len(rec.Before) > len(buf) {
					return nil, fmt.Errorf("wal: undo record at %d out of page bounds", cur.next)
				}
				copy(buf[rec.UndoOff:], rec.Before)
				// The loser's update record covers its own undo; the CLR
				// appended below re-describes the restore for redo.
				if err := p.WritePage(rec.Logged(), buf); err != nil {
					return nil, err
				}
			}
			if _, err := l.Append(&Record{
				Type:     TCLR,
				Tx:       rec.Tx,
				Page:     rec.Page,
				Off:      rec.UndoOff,
				After:    rec.Before, // the CLR's redo is the undo image
				UndoNext: rec.PrevLSN,
			}); err != nil {
				return nil, err
			}
			st.UndoApplied++
			cur.next = rec.PrevLSN
		case TCLR:
			// Already-compensated work: skip to UndoNext.
			cur.next = rec.UndoNext
		default:
			cur.next = rec.PrevLSN
		}
	}
	if err := l.Flush(0); err != nil {
		return nil, err
	}
	return st, nil
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
