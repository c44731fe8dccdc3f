package wal

import (
	"bytes"
	"fmt"
	"sort"

	"bess/internal/page"
)

// Restart's side of the log. Analyze reads the whole log once: the
// transactions it leaves open, the pages redo must rebuild, and for each of
// those the latest whole-page record (anchor) of a committed transaction,
// where its replay starts. Page anchors belong to a page's history, not to a
// checkpoint: a page is anchored once per server lifetime (tx/logging.go), so
// a page's replay may start before the last checkpoint. Redo replays each page
// of the redo set in memory from its anchor and writes it once; the server's
// repair runs the same replay (ReplayPages) over a page's whole history. All
// of them take page changes in the order the Replayer hands them on.

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
	// AnchorHorizon is the lowest of the pages' latest committed anchors: the
	// oldest record a replay of any page's whole history still starts from.
	// 0 when no committed transaction logged a whole page.
	AnchorHorizon page.LSN
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
	dirty map[page.ID]page.LSN // the redo set: page → recLSN
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
	held  map[uint64]shipment // by transaction: its redo-only records so far
}

// shipment is what a Replayer holds of one transaction.
type shipment struct {
	recs   []Record // its TRedo records, each stamped with its LSN (Record.Pending)
	commit page.LSN // of its TCommit, while that is its last word
}

// NewReplayer returns a Replayer that hands page changes to apply.
func NewReplayer(apply func(lsn page.LSN, rec *Record, proof Logged) error) *Replayer {
	return &Replayer{apply: apply, held: make(map[uint64]shipment)}
}

// Add takes the record at lsn, the next one of the walk. It keeps a copy of a
// TRedo, whose images must stay as they are until the Replayer hands the
// record on or drops it; rec itself is free again once Add returns.
func (r *Replayer) Add(lsn page.LSN, rec *Record) error {
	s, ok := r.held[rec.Tx]
	switch rec.Type {
	case TRedo:
		s.recs = append(s.recs, *rec)
		s.recs[len(s.recs)-1].lsn = lsn
		r.held[rec.Tx] = s
	case TCommit:
		if ok {
			s.commit = lsn
			r.held[rec.Tx] = s
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
	var done []shipment
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
func (r *Replayer) release(s shipment) error {
	if s.commit == 0 {
		return nil
	}
	for i := range s.recs {
		rec := &s.recs[i]
		if err := r.apply(rec.lsn, rec, Logged{page: rec.Page, lsn: rec.lsn}); err != nil {
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
// decides), TCommit a winner, TAbort or TEnd finished, and forgotten.
//
// The redo set is the pages the last checkpoint's dirty-page table names and
// those the log changes after it. A page's recLSN is its latest committed
// anchor: the last whole-page TRedo of a transaction whose commit stands,
// counted when the Replayer would apply it — at the transaction's TEnd after
// its TCommit, or at the end of the walk if TCommit is its last word — and
// never if a TAbort follows (a commit whose force failed) or the transaction
// is open or in doubt. A page with none keeps the checkpoint's entry, or its
// first record after the checkpoint: the logging rule makes every page's first
// committed record an anchor, so that happens only to pages no committed
// record of changes. Catalog records belong to no transaction and no page.
func Analyze(l *Log, visit func(lsn page.LSN, rec *Record) error) (*Analysis, error) {
	a := &Analysis{log: l, dirty: make(map[page.ID]page.LSN)}
	st := &a.Stats
	type txInfo struct {
		lastLSN page.LSN
		status  Type
		anchors []CkptPage // its whole-page TRedo records
	}
	txs := make(map[uint64]txInfo)
	anchor := make(map[page.ID]page.LSN) // page → its latest committed anchor
	settle := func(ti txInfo) {
		for _, e := range ti.anchors {
			anchor[e.Page] = e.RecLSN
		}
	}
	// The walk lends each record to this pass; visit gets one of its own.
	if err := l.walk(firstLSN, visit != nil, func(lsn page.LSN, rec *Record) error {
		st.RecordsAnalyzed++
		switch rec.Type {
		case TRedo, TCommit, TPrepare:
			ti := txs[rec.Tx]
			ti.lastLSN, ti.status = lsn, rec.Type
			if rec.Type == TRedo && rec.WholePage() {
				ti.anchors = append(ti.anchors, CkptPage{Page: rec.Page, RecLSN: lsn})
			}
			txs[rec.Tx] = ti
		}
		switch rec.Type {
		case TRedo:
			if _, ok := a.dirty[rec.Page]; !ok {
				a.dirty[rec.Page] = lsn
			}
		case TEnd:
			if ti, ok := txs[rec.Tx]; ok && ti.status == TCommit {
				settle(ti)
			}
			delete(txs, rec.Tx)
		case TAbort:
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

	var committed []txInfo
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
			committed = append(committed, ti)
		}
	}
	// In commit order, as Replayer.End applies them.
	sort.Slice(committed, func(i, j int) bool { return committed[i].lastLSN < committed[j].lastLSN })
	for _, ti := range committed {
		settle(ti)
	}
	for p, al := range anchor {
		if _, dirty := a.dirty[p]; dirty {
			a.dirty[p] = al
		}
		if st.AnchorHorizon == 0 || al < st.AnchorHorizon {
			st.AnchorHorizon = al
		}
	}
	st.RedoStartLSN = max(st.CheckpointLSN, firstLSN)
	for _, rl := range a.dirty {
		st.RedoStartLSN = min(st.RedoStartLSN, rl)
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

// Redo repeats history onto p: every page change of the redo set from the
// redo start on, in the order it takes effect (Replayer), each only at or
// after its page's recLSN. It replays each page in memory (ReplayPages) and
// writes it once, on its last record's proof. Records are byte ranges, so
// where a page's replay starts matters: the logging rule makes each recLSN a
// whole-page image, and only a page whose replay does not start whole is read
// from p first — Stats.UnanchoredPages counts those.
func (a *Analysis) Redo(p Pager) error {
	st := &a.Stats
	pages, err := ReplayPages(a.log, st.RedoStartLSN, func(lsn page.LSN, rec *Record) bool {
		rl, dirty := a.dirty[rec.Page]
		return dirty && lsn >= rl
	}, func(id page.ID, buf []byte) error {
		st.UnanchoredPages++
		if err := p.ReadPage(id, buf); err != nil {
			return fmt.Errorf("wal: redo read %v: %w", id, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	ids := make([]page.ID, 0, len(pages))
	for id := range pages {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Area != ids[j].Area {
			return ids[i].Area < ids[j].Area
		}
		return ids[i].Page < ids[j].Page
	})
	for _, id := range ids {
		img := pages[id]
		if err := p.WritePage(img.Last, img.Data); err != nil {
			return fmt.Errorf("wal: redo write %v: %w", id, err)
		}
		st.RedoApplied += img.Records
	}
	return nil
}

// Image is a page as a replay of its history leaves it (ReplayPages).
type Image struct {
	Data    []byte
	Whole   bool   // a whole-page record was replayed: Data owes nothing to what the page held before
	Last    Logged // of the last record replayed: what a store of Data takes
	Records int    // records replayed
}

// ReplayPages rebuilds pages in memory from the log: it walks the log from
// from, hands a Replayer every page change keep accepts — and every
// transaction's other records — and lays each change it hands on over an
// image of its page, one image per page. A page's image starts as what base
// reads for it (zeroes if base is nil) unless its first change replayed is a
// whole page, which needs nothing under it. keep runs before the Replayer
// holds a record, so the walk holds the bytes of the pages it rebuilds and of
// no other. This is the one page replay of restart redo (Analysis.Redo) and
// of the server's repair.
func ReplayPages(l *Log, from page.LSN, keep func(lsn page.LSN, rec *Record) bool, base func(id page.ID, buf []byte) error) (map[page.ID]*Image, error) {
	pages := make(map[page.ID]*Image)
	rp := NewReplayer(func(lsn page.LSN, rec *Record, proof Logged) error {
		if int(rec.Off)+len(rec.After) > page.Size {
			return fmt.Errorf("wal: redo record at %d out of page bounds", lsn)
		}
		img := pages[rec.Page]
		if img == nil {
			img = &Image{Data: make([]byte, page.Size)}
			pages[rec.Page] = img
			if !rec.WholePage() && base != nil {
				if err := base(rec.Page, img.Data); err != nil {
					return err
				}
			}
		}
		img.Whole = img.Whole || rec.WholePage()
		copy(img.Data[rec.Off:], rec.After)
		img.Last = proof
		img.Records++
		return nil
	})
	// The walk lends each record: only a kept TRedo, whose images the Replayer
	// holds until its commit, gets bytes of its own.
	if err := l.walk(from, false, func(lsn page.LSN, rec *Record) error {
		if rec.Type == TRedo {
			if len(rec.After) == 0 || !keep(lsn, rec) {
				return nil
			}
			rec.After = bytes.Clone(rec.After)
		}
		return rp.Add(lsn, rec)
	}); err != nil {
		return nil, err
	}
	if err := rp.End(); err != nil {
		return nil, err
	}
	return pages, nil
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
