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
// Redo what it replayed.
type RecoveryStats struct {
	RecordsAnalyzed int
	RedoApplied     int
	Losers          []uint64
	Winners         []uint64
	InDoubt         []uint64 // prepared but undecided 2PC participants
	CheckpointLSN   page.LSN
	RedoStartLSN    page.LSN
	// UnanchoredPages counts pages whose earliest replayed record was a
	// byte-range delta instead of a whole-page image. The logging rule
	// (tx.Tx.LogRedo) keeps it at 0: redo then rebuilds every page it
	// touches from a full image, whatever a torn write left on disk.
	UnanchoredPages int
}

// Unfinished is a transaction the log leaves open: a loser to end, or, when
// Prepared, a 2PC branch to keep until its coordinator decides.
type Unfinished struct {
	Tx       uint64
	LastLSN  page.LSN
	Prepared bool
}

// Analysis is what restart learns of the log in one forward pass: the
// transactions it leaves open, which the transaction manager adopts and
// ends or keeps in doubt (tx.Restart), and the pages redo must replay.
type Analysis struct {
	Stats RecoveryStats
	Open  []Unfinished // latest record first
	log   *Log
	dirty map[page.ID]page.LSN // page → recLSN
}

// Replayer hands the page changes of a forward walk of the log — one record
// at a time (Add), then End — to apply in the order they take effect. That
// order is the one rule every reader of page history follows (restart redo,
// the server's catalog replay and repair): a page change is a transaction's
// redo-only record (TRedo), which takes effect at its commit, in its
// transaction's own order, and is held until then — until the transaction's
// TEnd, or the end of the walk, finds its TCommit its last word. A TRedo whose
// transaction aborted — also after a TCommit whose force failed, which
// tx.Tx.Commit rolls back — or is still open or in doubt when the walk ends is
// never handed on; nor is any other record. apply gets each record with the
// proof a store of its page takes.
type Replayer struct {
	apply func(lsn page.LSN, rec *Record, proof Logged) error
	held  map[uint64]*shipment // by transaction: its redo-only records so far
}

// shipment is what a Replayer holds of one transaction.
type shipment struct {
	recs   []*Record // its TRedo records, each stamped with its LSN (Record.Pending)
	commit page.LSN  // of its TCommit, while that is its last word
}

// NewReplayer returns a Replayer that hands page changes to apply.
func NewReplayer(apply func(lsn page.LSN, rec *Record, proof Logged) error) *Replayer {
	return &Replayer{apply: apply, held: make(map[uint64]*shipment)}
}

// Add takes the record at lsn, the next one of the walk.
func (r *Replayer) Add(lsn page.LSN, rec *Record) error {
	s := r.held[rec.Tx]
	switch rec.Type {
	case TRedo:
		if s == nil {
			s = new(shipment)
			r.held[rec.Tx] = s
		}
		rec.stamp(lsn)
		s.recs = append(s.recs, rec)
	case TCommit:
		if s != nil {
			s.commit = lsn
		}
	case TAbort:
		delete(r.held, rec.Tx)
	case TEnd:
		delete(r.held, rec.Tx)
		return r.release(s)
	}
	return nil
}

// End hands on the transactions the walk leaves committed without an end
// record — a commit durable, its page writes perhaps not — in commit order.
func (r *Replayer) End() error {
	var done []*shipment
	for tx, s := range r.held {
		if s.commit != 0 {
			done = append(done, s)
		}
		delete(r.held, tx)
	}
	sort.Slice(done, func(i, j int) bool { return done[i].commit < done[j].commit })
	for _, s := range done {
		if err := r.release(s); err != nil {
			return err
		}
	}
	return nil
}

// release applies s's records if its transaction committed.
func (r *Replayer) release(s *shipment) error {
	if s == nil || s.commit == 0 {
		return nil
	}
	for _, rec := range s.recs {
		if err := r.apply(rec.pending.lsn, rec, Logged{page: rec.Page, lsn: rec.pending.lsn}); err != nil {
			return err
		}
	}
	return nil
}

// Analyze reads the log once, from its first record, and calls visit (if not
// nil) on every record, so that restart's other readers of the log — the
// server's catalog replay — ride this pass instead of walking it themselves.
//
// A transaction's status is the type of its own last record: TRedo while
// active, TPrepare in doubt (kept until its coordinator
// decides), TCommit a winner, TAbort or TEnd finished, and forgotten. A
// checkpoint's dirty-page table replaces the one analysis built: a page's
// recLSN is the last checkpoint's entry, or else the page's first record after
// it (or in the log). The logging rule makes each of those a whole-page image.
// Catalog records belong to no transaction and no page.
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
		case TRedo:
			txs[rec.Tx] = txInfo{lsn, TRedo}
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
		case TRedo:
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

// RecLSN is where redo starts page p, if it replays p at all.
func (a *Analysis) RecLSN(p page.ID) (page.LSN, bool) {
	rl, ok := a.dirty[p]
	return rl, ok
}

// Redo repeats history onto p: every page change from the redo start on, in
// the order it takes effect (Replayer), each only at or after its page's
// recLSN. Records are byte ranges, so where a page's replay starts matters;
// the logging rule makes each recLSN a whole-page image, and
// Stats.UnanchoredPages counts the pages it did not.
func (a *Analysis) Redo(p Pager) error {
	st := &a.Stats
	buf := make([]byte, page.Size)
	replayed := make(map[page.ID]bool)
	rp := NewReplayer(func(lsn page.LSN, rec *Record, proof Logged) error {
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
		if err := p.WritePage(proof, buf); err != nil {
			return fmt.Errorf("wal: redo write %v: %w", rec.Page, err)
		}
		st.RedoApplied++
		return nil
	})
	if err := a.log.Iterate(st.RedoStartLSN, rp.Add); err != nil {
		return err
	}
	return rp.End()
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
