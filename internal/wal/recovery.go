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

// RecoveryStats summarizes one restart: Analyze fills in what analysis found,
// Redo what it replayed, tx.Restart what undo wrote.
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

// Analysis is what restart learns of the log in one forward pass: the
// transactions it leaves open, which the transaction manager adopts and
// rolls back or keeps in doubt (tx.Restart), and the pages redo must replay.
type Analysis struct {
	Stats RecoveryStats
	Open  []Unfinished // latest record first
	log   *Log
	dirty map[page.ID]page.LSN // page → recLSN
}

// Analyze reads the log once, from its first record, and calls visit (if not
// nil) on every record, so that restart's other readers of the log — the
// server's catalog replay — ride this pass instead of walking it themselves.
//
// A transaction's status is the type of its own last record: TUpdate or TCLR
// while active, TPrepare in doubt (kept until its coordinator decides),
// TCommit a winner, TAbort or TEnd finished, and forgotten. A checkpoint's
// dirty-page table replaces the one analysis built: a page's recLSN is the
// last checkpoint's entry, or else the page's first record after it (or in the
// log). The logging rule makes each of those a whole-page image. Catalog
// records belong to no transaction and no page.
func Analyze(l *Log, visit func(lsn page.LSN, rec *Record) error) (*Analysis, error) {
	a := &Analysis{log: l, dirty: make(map[page.ID]page.LSN)}
	st := &a.Stats
	type txInfo struct {
		lastLSN page.LSN
		status  Type
	}
	txs := make(map[uint64]txInfo)
	if err := l.Iterate(firstLSN, func(lsn page.LSN, rec *Record) error {
		st.RecordsAnalyzed++
		switch rec.Type {
		case TUpdate, TCLR:
			txs[rec.Tx] = txInfo{lsn, TUpdate}
			if _, ok := a.dirty[rec.Page]; !ok {
				a.dirty[rec.Page] = lsn
			}
		case TCommit, TPrepare:
			txs[rec.Tx] = txInfo{lsn, rec.Type}
		case TAbort, TEnd:
			delete(txs, rec.Tx)
		case TCheckpoint:
			st.CheckpointLSN = lsn
			clear(a.dirty)
			for _, e := range rec.DirtyPages {
				a.dirty[e.Page] = e.RecLSN
			}
		}
		if visit == nil {
			return nil
		}
		return visit(lsn, rec)
	}); err != nil {
		return nil, err
	}

	st.RedoStartLSN = max(st.CheckpointLSN, firstLSN)
	for _, rl := range a.dirty {
		st.RedoStartLSN = min(st.RedoStartLSN, rl)
	}
	for tx, ti := range txs {
		switch ti.status {
		case TUpdate:
			st.Losers = append(st.Losers, tx)
			a.Open = append(a.Open, Unfinished{Tx: tx, LastLSN: ti.lastLSN})
		case TPrepare:
			st.InDoubt = append(st.InDoubt, tx)
			a.Open = append(a.Open, Unfinished{Tx: tx, LastLSN: ti.lastLSN, Prepared: true})
		case TCommit:
			st.Winners = append(st.Winners, tx)
		}
	}
	for _, ids := range [][]uint64{st.Losers, st.Winners, st.InDoubt} {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	sort.Slice(a.Open, func(i, j int) bool { return a.Open[i].LastLSN > a.Open[j].LastLSN })
	return a, nil
}

// Log is the log a was made from.
func (a *Analysis) Log() *Log { return a.log }

// Redo repeats history onto p: every update and CLR from the redo start on,
// each only at or after its page's recLSN. Update records are byte ranges, so
// where a page's replay starts matters; the logging rule makes each recLSN a
// whole-page image, and Stats.UnanchoredPages counts the pages it did not.
func (a *Analysis) Redo(p Pager) error {
	st := &a.Stats
	buf := make([]byte, page.Size)
	replayed := make(map[page.ID]bool)
	return a.log.Iterate(st.RedoStartLSN, func(lsn page.LSN, rec *Record) error {
		if rec.Type != TUpdate && rec.Type != TCLR {
			return nil
		}
		if rl, dirty := a.dirty[rec.Page]; !dirty || lsn < rl || len(rec.After) == 0 {
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
	})
}

// Checkpoint writes a fuzzy checkpoint record carrying the dirty-page table
// and flushes the log.
func Checkpoint(l *Log, dirty []CkptPage) (page.LSN, error) {
	lsn, err := l.Append(&Record{Type: TCheckpoint, DirtyPages: dirty})
	if err != nil {
		return 0, err
	}
	if err := l.Flush(0); err != nil {
		return 0, err
	}
	return lsn, nil
}
