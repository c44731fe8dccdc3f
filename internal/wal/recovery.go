package wal

import (
	"bytes"
	"fmt"
	"sort"

	"bess/internal/page"
)

// Restart's side of the log. Analyze reads the whole log once: the
// transactions it leaves open, the pages redo must rebuild, and for each of
// those the latest whole-page change (anchor) that took effect — a committed
// transaction's, or a completed rollback's re-anchoring — where its replay
// starts. Page anchors belong to a page's history, not to a checkpoint: a page
// is anchored once per server lifetime, and again by each rollback of changes
// to it that reached the log (tx/logging.go), so a page's replay may start
// before the last checkpoint. A rollback's anchors are the page as its history
// left it before the rolled-back transaction's first record, rebuilt by the
// same replay. Redo replays each page of the redo set in memory from its
// anchor and writes it once; the server's repair runs the same replay
// (ReplayPages) over a page's whole history, and a decided 2PC branch's commit
// over its own records (tx.Tx.Commit). All of them take page changes in the
// order the replayer hands them on.

// Pager is the page store recovery replays against. WriteRun stores data as
// the whole of the pages its proofs name, one page per proof, which must be
// consecutive pages of one area (RunOf checks them): there is no way to name
// a page to it other than by a record of that page. A single page is a run of
// one.
type Pager interface {
	ReadPage(id page.ID, buf []byte) error
	WriteRun(proofs []Logged, data []byte) error
}

// RunOf checks a run write's proofs against its data and returns the run's
// first page: at least one proof, none of them the zero Logged
// (ErrNotLogged), each naming the page after the one before it in the same
// area (ErrNotConsecutive), and one page of data per proof.
func RunOf(proofs []Logged, data []byte) (page.ID, error) {
	if len(proofs) == 0 || len(data) != len(proofs)*page.Size {
		return page.ID{}, fmt.Errorf("wal: a run write of %d bytes on %d proofs", len(data), len(proofs))
	}
	first := proofs[0].page
	for i, p := range proofs {
		if p.lsn == 0 {
			return page.ID{}, ErrNotLogged
		}
		if p.page.Area != first.Area || p.page.Page != first.Page+page.No(i) {
			return page.ID{}, fmt.Errorf("%w: %v after %v", ErrNotConsecutive, p.page, first)
		}
	}
	return first, nil
}

// RecoveryStats summarizes one restart: Analyze fills in what analysis found,
// Redo what it replayed.
type RecoveryStats struct {
	RecordsAnalyzed int
	RedoApplied     int // page changes replayed
	Losers          []uint64
	// Winners are the transactions whose commit stands and whose TCommit
	// follows the last checkpoint: those whose pages only the log past it
	// vouches for.
	Winners       []uint64
	InDoubt       []uint64 // prepared but undecided 2PC participants
	CheckpointLSN page.LSN
	RedoStartLSN  page.LSN
	// AnchorHorizon is the lowest of the pages' latest anchors: the oldest
	// record a replay of any page's whole history still starts from. 0 when
	// no anchor took effect.
	AnchorHorizon page.LSN
	// UnanchoredPages counts pages whose earliest replayed change was a
	// byte range instead of a whole-page image. The logging rule
	// (tx.Tx.LogRedo) keeps it at 0: redo then rebuilds every page it
	// touches from a full image, whatever a torn write left on disk.
	UnanchoredPages int
}

// Unfinished is a transaction the log leaves open: a loser to end, or, when
// Prepared, a 2PC branch to keep until its coordinator decides. Logged and
// Dirty are what its own run kept in memory, which restart gives back to it
// (tx.Restart): the LSNs of its records — spills, TPrepare, TRollback records
// — in log order, and for each page they change the recLSN a checkpoint lists
// while it stays open: where redo starts the page, or the transaction's first
// change of it if that is earlier or redo does not replay the page.
type Unfinished struct {
	Tx       uint64
	Prepared bool
	Logged   []page.LSN
	Dirty    map[page.ID]page.LSN
}

// Analysis is what restart learns of the log in one forward pass: the
// transactions it leaves open, which the transaction manager adopts and
// ends or keeps in doubt (tx.Restart), and the pages redo must replay.
type Analysis struct {
	Stats   RecoveryStats
	Open    []Unfinished // by their last record, latest first
	log     *Log
	dirty   map[page.ID]page.LSN // the redo set: page → recLSN
	anchors map[page.ID]page.LSN // every page's latest anchor that took effect
}

// replayer hands the page changes of a forward walk of the log — one record
// at a time (Add) — on to apply in the order they take effect. That order is
// the one rule every reader of page history follows — restart redo, the
// server's repair, a rollback's pre-images and a decided 2PC branch's page
// writes, all through ReplayPages:
//   - a transaction's page changes take effect at its TCommit, in its own
//     order: first those of its spills (TRedo) and its TPrepare, which the
//     replayer holds until then, then those the TCommit carries;
//   - a TAbort drops what the replayer holds of its transaction's spills and
//     TPrepare, and its anchors take effect where it stands, after those of
//     the rollback's TRollback records, which the replayer holds until then —
//     also after a TCommit whose force failed, which tx.Tx.Commit rolls back:
//     the anchors put back what the commit's changes had replaced;
//   - changes of a transaction still open or in doubt when the walk ends, and
//     anchors of a rollback no TAbort completed, are never handed on; nor is
//     any other record.
//
// apply gets each change with the proof a store of its page takes: that of
// the record that carries it.
type replayer struct {
	apply   func(lsn page.LSN, c *Change, proof Logged) error
	held    map[uint64][]heldChange // by transaction: its spilled and prepared changes so far
	rolling map[uint64][]heldChange // by transaction: its rollback's TRollback anchors so far
}

// heldChange is a change a replayer holds, with the LSN of its record.
type heldChange struct {
	Change
	lsn page.LSN
}

// newReplayer returns a replayer that hands page changes to apply.
func newReplayer(apply func(lsn page.LSN, c *Change, proof Logged) error) *replayer {
	return &replayer{apply: apply, held: make(map[uint64][]heldChange), rolling: make(map[uint64][]heldChange)}
}

// Add takes the record at lsn, the next one of the walk. It holds a copy of
// each change of a TRedo, TPrepare or TRollback, whose images must stay as
// they are until the replayer hands the change on or drops it; rec itself is
// free again once Add returns.
func (r *replayer) Add(lsn page.LSN, rec *Record) error {
	switch rec.Type {
	case TRedo, TPrepare:
		r.hold(r.held, lsn, rec)
		return nil
	case TRollback:
		delete(r.held, rec.Tx)
		r.hold(r.rolling, lsn, rec)
		return nil
	case TCommit:
		if err := r.handHeld(r.held, rec.Tx); err != nil {
			return err
		}
	case TAbort:
		delete(r.held, rec.Tx)
		if err := r.handHeld(r.rolling, rec.Tx); err != nil {
			return err
		}
	default:
		return nil
	}
	for i := range rec.Changes {
		if err := r.hand(lsn, &rec.Changes[i]); err != nil {
			return err
		}
	}
	return nil
}

// hold adds rec's changes, carried by the record at lsn, to what in holds of
// its transaction.
func (r *replayer) hold(in map[uint64][]heldChange, lsn page.LSN, rec *Record) {
	if len(rec.Changes) == 0 {
		return
	}
	h := in[rec.Tx]
	for _, c := range rec.Changes {
		h = append(h, heldChange{c, lsn})
	}
	in[rec.Tx] = h
}

// handHeld applies, in order, and forgets what in holds of transaction tx.
func (r *replayer) handHeld(in map[uint64][]heldChange, tx uint64) error {
	h := in[tx]
	delete(in, tx)
	for i := range h {
		if err := r.hand(h[i].lsn, &h[i].Change); err != nil {
			return err
		}
	}
	return nil
}

// hand applies c, carried by the record at lsn.
func (r *replayer) hand(lsn page.LSN, c *Change) error {
	return r.apply(lsn, c, Logged{page: c.Page, lsn: lsn})
}

// Analyze reads the log once, from its first record, and calls visit (if not
// nil) on every record, so that restart's other readers of the log — the
// server's catalog replay — ride this pass instead of walking it themselves.
// The record is lent to visit: it must not keep rec, or anything rec points
// to, past its return.
//
// A transaction's status is the type of its own last record: TRedo while
// active, TPrepare in doubt (kept until its coordinator decides), TRollback
// while a rollback is under way; TCommit and TAbort end it, and it is
// forgotten. A TRollback after its transaction's TCommit — the rollback of a
// commit whose force failed — does not open it again: if no TAbort completes
// that rollback, the commit stands.
//
// The redo set is the pages the last checkpoint's dirty-page table names and
// those the log changes after it. A page's recLSN is its latest anchor — the
// last whole-page change that took effect where the replayer hands it on: at
// a TCommit, its own or one of a spill or TPrepare its transaction held, and
// at a TAbort, whose anchors and those of the TRollback records before it
// re-anchor the pages of a rollback; never one of a transaction open or in
// doubt when the log ends, nor one of a rollback no TAbort completed. A page
// with none keeps the checkpoint's entry, or its first change after the
// checkpoint: the logging rule makes every page's first committed change an
// anchor, so that happens only to pages no committed record changes. Catalog
// records belong to no transaction and no page.
func Analyze(l *Log, visit func(lsn page.LSN, rec *Record) error) (*Analysis, error) {
	a := &Analysis{log: l, dirty: make(map[page.ID]page.LSN), anchors: make(map[page.ID]page.LSN)}
	st := &a.Stats
	type txInfo struct {
		status  Type
		logged  []page.LSN
		pages   map[page.ID]page.LSN // each page its records change → the first that does
		anchors []CkptPage           // whole-page changes of its spills and TPrepare
	}
	txs := make(map[uint64]*txInfo)
	// note adds the record at lsn to what ti knows of its transaction.
	note := func(ti *txInfo, lsn page.LSN, rec *Record) {
		ti.status = rec.Type
		ti.logged = append(ti.logged, lsn)
		for i := range rec.Changes {
			if _, ok := ti.pages[rec.Changes[i].Page]; !ok {
				ti.pages[rec.Changes[i].Page] = lsn
			}
		}
	}
	winners := make(map[uint64]bool)
	rolling := make(map[uint64][]CkptPage) // by transaction: its TRollback anchors
	settle := func(lsn page.LSN, rec *Record) {
		for i := range rec.Changes {
			if rec.Changes[i].WholePage() {
				a.anchors[rec.Changes[i].Page] = lsn
			}
		}
	}
	// The walk lends each record to this pass, and the pass to visit.
	if err := l.walk(firstLSN, false, func(lsn page.LSN, rec *Record) error {
		st.RecordsAnalyzed++
		for i := range rec.Changes {
			if _, ok := a.dirty[rec.Changes[i].Page]; !ok {
				a.dirty[rec.Changes[i].Page] = lsn
			}
		}
		switch rec.Type {
		case TRedo, TPrepare:
			ti := txs[rec.Tx]
			if ti == nil {
				ti = &txInfo{pages: make(map[page.ID]page.LSN)}
				txs[rec.Tx] = ti
			}
			note(ti, lsn, rec)
			for i := range rec.Changes {
				if rec.Changes[i].WholePage() {
					ti.anchors = append(ti.anchors, CkptPage{Page: rec.Changes[i].Page, RecLSN: lsn})
				}
			}
		case TCommit:
			if ti := txs[rec.Tx]; ti != nil {
				for _, e := range ti.anchors {
					a.anchors[e.Page] = e.RecLSN
				}
			}
			settle(lsn, rec)
			delete(txs, rec.Tx)
			winners[rec.Tx] = true
		case TRollback:
			if ti := txs[rec.Tx]; ti != nil {
				// Its spills and TPrepare will never take effect.
				note(ti, lsn, rec)
				ti.anchors = nil
			}
			for i := range rec.Changes {
				if rec.Changes[i].WholePage() {
					rolling[rec.Tx] = append(rolling[rec.Tx], CkptPage{Page: rec.Changes[i].Page, RecLSN: lsn})
				}
			}
		case TAbort:
			for _, e := range rolling[rec.Tx] {
				a.anchors[e.Page] = e.RecLSN
			}
			delete(rolling, rec.Tx)
			settle(lsn, rec)
			delete(txs, rec.Tx)
			delete(winners, rec.Tx)
		case TCheckpoint:
			st.CheckpointLSN = lsn
			clear(a.dirty)
			clear(winners)
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

	for p, al := range a.anchors {
		if _, dirty := a.dirty[p]; dirty {
			a.dirty[p] = al
		}
		if st.AnchorHorizon == 0 || al < st.AnchorHorizon {
			st.AnchorHorizon = al
		}
	}
	for tx, ti := range txs {
		for p, first := range ti.pages {
			if rl, dirty := a.dirty[p]; dirty && rl < first {
				ti.pages[p] = rl
			}
		}
		u := Unfinished{Tx: tx, Prepared: ti.status == TPrepare, Logged: ti.logged, Dirty: ti.pages}
		a.Open = append(a.Open, u)
		if u.Prepared {
			st.InDoubt = append(st.InDoubt, tx)
		} else {
			st.Losers = append(st.Losers, tx)
		}
	}
	for tx := range winners {
		st.Winners = append(st.Winners, tx)
	}
	st.RedoStartLSN = max(st.CheckpointLSN, firstLSN)
	for _, rl := range a.dirty {
		st.RedoStartLSN = min(st.RedoStartLSN, rl)
	}
	for _, ids := range [][]uint64{st.Losers, st.Winners, st.InDoubt} {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	last := func(u Unfinished) page.LSN { return u.Logged[len(u.Logged)-1] }
	sort.Slice(a.Open, func(i, j int) bool { return last(a.Open[i]) > last(a.Open[j]) })
	return a, nil
}

// Log is the log a was made from.
func (a *Analysis) Log() *Log { return a.log }

// RecLSN is where redo starts page p, if it replays p at all.
func (a *Analysis) RecLSN(p page.ID) (page.LSN, bool) {
	rl, ok := a.dirty[p]
	return rl, ok
}

// Anchor is p's latest anchor that took effect (see Analyze), if there is
// one: by the logging rule, every page a committed record changes has one.
func (a *Analysis) Anchor(p page.ID) (page.LSN, bool) {
	al, ok := a.anchors[p]
	return al, ok
}

// Redo repeats history onto p: every page change of the redo set from the
// redo start on, in the order it takes effect (replayer), each only if its
// record is at or after its page's recLSN. It replays each page in memory
// (ReplayPages) and writes it once, on its last change's proof. Changes are
// byte ranges, so where a page's replay starts matters: the logging rule
// makes each recLSN a whole-page image, and only a page whose replay does not
// start whole is read from p first — Stats.UnanchoredPages counts those.
func (a *Analysis) Redo(p Pager) error {
	st := &a.Stats
	pages, err := ReplayPages(a.log, st.RedoStartLSN, func(lsn page.LSN, c *Change) bool {
		rl, dirty := a.dirty[c.Page]
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
		if err := p.WriteRun([]Logged{img.Last}, img.Data); err != nil {
			return fmt.Errorf("wal: redo write %v: %w", id, err)
		}
		st.RedoApplied += img.Changes
	}
	return nil
}

// Image is a page as a replay of its history leaves it (ReplayPages).
type Image struct {
	Data    []byte
	Whole   bool   // a whole-page change was replayed: Data owes nothing to what the page held before
	Last    Logged // of the last change replayed: what a store of Data takes
	Changes int    // changes replayed
}

// ReplayPages rebuilds pages in memory from the log: it walks the log from
// from, hands a replayer every page change keep accepts — and every
// transaction's other records — and lays each change it hands on over an
// image of its page, one image per page. A page's image starts as what base
// reads for it (zeroes if base is nil) unless its first change replayed is a
// whole page, which needs nothing under it. keep runs before the replayer
// holds a change, so the walk holds the bytes of the pages it rebuilds and of
// no other. This is the one page replay of restart redo (Analysis.Redo), of
// the server's repair, of a rollback's pre-images and of a decided 2PC
// branch's page writes (internal/tx).
func ReplayPages(l *Log, from page.LSN, keep func(lsn page.LSN, c *Change) bool, base func(id page.ID, buf []byte) error) (map[page.ID]*Image, error) {
	pages := make(map[page.ID]*Image)
	// Every change lies within its page: the decoder takes no other.
	rp := newReplayer(func(lsn page.LSN, c *Change, proof Logged) error {
		img := pages[c.Page]
		if img == nil {
			img = &Image{Data: make([]byte, page.Size)}
			pages[c.Page] = img
			if !c.WholePage() && base != nil {
				if err := base(c.Page, img.Data); err != nil {
					return err
				}
			}
		}
		img.Whole = img.Whole || c.WholePage()
		copy(img.Data[c.Off:], c.After)
		img.Last = proof
		img.Changes++
		return nil
	})
	// The walk lends each record, which is the walk's to trim to the changes
	// kept: only those the replayer holds until a later record — a spill's, a
	// TPrepare's, a TRollback's — get bytes of their own.
	if err := l.walk(from, false, func(lsn page.LSN, rec *Record) error {
		held := rec.Type == TRedo || rec.Type == TPrepare || rec.Type == TRollback
		kept := rec.Changes[:0]
		for i, c := range rec.Changes {
			if len(c.After) == 0 || !keep(lsn, &rec.Changes[i]) {
				continue
			}
			if held {
				c.After = bytes.Clone(c.After)
			}
			kept = append(kept, c)
		}
		rec.Changes = kept
		return rp.Add(lsn, rec)
	}); err != nil {
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
