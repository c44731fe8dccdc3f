package torture

import (
	"bytes"
	"fmt"
	"slices"

	"bess/internal/area"
	"bess/internal/lock"
	"bess/internal/page"
	"bess/internal/tx"
	"bess/internal/wal"
)

// --- the transaction-level workloads (E13) ---
//
// These workloads drive tx.Manager, the log and one area directly, below the
// server, on a crash world. Transactions log by the product's rule and ship
// every change as the server's commit path does (tx.Tx.LogRedo: queued for
// the commit record, no page written before its force), each on a private
// page as segment-granular strict 2PL has it. The check reboots, restarts
// (wal.Analyze, tx.Restart) and holds the pages to a shadow model: (1) every
// acknowledged commit, yes vote and rollback is durable; (2) every page holds
// the image its last winner left, or its initial one; (3) a torn log tail is
// the end of the log — reopen never fails, redo never replays garbage; (4) a
// second restart finds no losers and changes nothing; (5) redo starts every
// page at a whole-page image (wal.RecoveryStats.UnanchoredPages == 0); (6) a
// branch whose prepare survived is in doubt through both restarts with none
// of its images on its pages, then its coordinator's commit (every mode but
// torn) or abort holds, through a third.
const (
	e13Txs     = 12 // transactions of the main loop; odd commit, even are left in flight (one aborts)
	e13Shipped = 6  // transactions beside them, on pages of their own
	e13Updates = 3  // updates per transaction: the whole page, then two sub-page overwrites
	e13AreaID  = 7
)

// E13Report is the crash experiment's output (BENCH_E13.json): the
// enumeration of the main transaction-level workload, and of the server
// history (srvWorkload).
type E13Report struct {
	CrashReport
	Server CrashReport `json:"server"`
}

// RunE13 enumerates the crash points of e13Workload and of srvWorkload.
func RunE13(seed int64, sample int) (E13Report, error) {
	main, err := enumerate(seed, sample, txWorkload(e13Workload))
	if err != nil {
		return E13Report{CrashReport: main}, err
	}
	srv, err := enumerate(seed, sample, srvWorkload)
	return E13Report{CrashReport: main, Server: srv}, err
}

// e13Write is one transaction's change of a page in the shadow model: what
// the page holds if the transaction commits.
type e13Write struct {
	tx  uint64
	img []byte
}

// txWorld is a crash world with a log and one area open on it, the
// workload it runs, and the shadow model the workload keeps as it runs.
type txWorld struct {
	*World
	wl   func(*txWorld)
	log  *wal.Log
	area *area.Area
	txm  *tx.Manager

	pages     map[uint64]page.No            // tx -> its private page
	acked     map[uint64]wal.Type           // commits (TCommit) and 2PC yes votes (TPrepare) acknowledged before any crash
	history   map[page.No][]e13Write        // page -> its transactions' changes, in log order
	committed map[page.No][]byte            // page -> what the last acknowledged commit left on it
	shipped   map[uint64]map[page.No][]byte // tx -> the pages its commit is to write
	midWB     func() error                  // runs once, ahead of the next store through the pager

	setupEvents int64
	writesFrom  int64 // if set, the event after which a commit's page writes begin
}

// e13Setup builds the database, durably: log, area, and one private page per
// transaction.
func e13Setup(seed int64) (*txWorld, error) {
	w := &txWorld{
		World:     crashWorld(seed),
		pages:     make(map[uint64]page.No),
		acked:     make(map[uint64]wal.Type),
		history:   make(map[page.No][]e13Write),
		committed: make(map[page.No][]byte),
		shipped:   make(map[uint64]map[page.No][]byte),
	}
	var err error
	if w.log, err = wal.Open(w.World.log.WAL()); err != nil {
		return nil, fmt.Errorf("open log: %w", err)
	}
	if w.area, err = area.Create(w.World.area(e13AreaID).Area(), e13AreaID, 1, true); err != nil {
		return nil, fmt.Errorf("create area: %w", err)
	}
	w.txm = tx.NewManager(w.log, lock.NewManager(), e13Pager{w.area, w.log, &w.midWB}, nil)
	for t := uint64(1); t <= e13Txs+e13Shipped; t++ {
		first, _, err := w.area.AllocSegment(1)
		if err != nil {
			return nil, fmt.Errorf("alloc page for tx %d: %w", t, err)
		}
		w.pages[t] = first
		w.history[first] = nil // checked, changed or not
	}
	if err := w.World.area(e13AreaID).Area().Sync(); err != nil {
		return nil, fmt.Errorf("sync area: %w", err)
	}
	w.setupEvents = w.Area.Events()
	return w, nil
}

// txWorkload makes wl a crash workload on a txWorld of its own.
func txWorkload(wl func(*txWorld)) workload {
	return func(seed int64) (trial, error) {
		w, err := e13Setup(seed)
		if err != nil {
			return nil, err
		}
		w.wl = wl
		return w, nil
	}
}

func (w *txWorld) run()          { w.wl(w) }
func (w *txWorld) close()        { _, _ = w.log.Close(), w.area.Close() }
func (w *txWorld) world() *World { return w.World }
func (w *txWorld) tally() (int64, int64, int, int64) {
	return w.setupEvents, w.writesFrom, len(w.acked), int64(w.log.NextLSN())
}

// ship has t overwrite n bytes of pg at off with a pattern of (t, k).
func (w *txWorld) ship(t *tx.Tx, pg page.No, k, off, n int) error {
	return w.change(t, pg, func(img []byte) {
		for j := off; j < off+n; j++ {
			img[j] = byte(uint64(j)*31 + t.ID()*131 + uint64(k)*17 + 1)
		}
	})
}

// change has t apply edit to pg as a shipped commit does (tx.Tx.LogRedo): the
// change is queued for t's commit record, without an undo half, stays off the
// area, and is written by t's commit, after its force (commit). t sees its own
// earlier changes.
func (w *txWorld) change(t *tx.Tx, pg page.No, edit func(img []byte)) error {
	mine := w.shipped[t.ID()]
	if mine == nil {
		mine = make(map[page.No][]byte)
		w.shipped[t.ID()] = mine
	}
	stored := w.committed[pg]
	if stored == nil {
		stored = make([]byte, page.Size) // freshly allocated zeros
	}
	view := mine[pg]
	if view == nil {
		view = stored
	}
	after := bytes.Clone(view)
	edit(after)
	if err := t.LogRedo(page.ID{Area: e13AreaID, Page: pg}, stored, after); err != nil {
		return err
	}
	mine[pg] = after
	h := w.history[pg]
	if n := len(h); n > 0 && h[n-1].tx == t.ID() {
		h[n-1].img = after // only a transaction's last image of a page can be a winner's
	} else {
		w.history[pg] = append(h, e13Write{t.ID(), after})
	}
	return nil
}

// commit commits t, whose commit writes the pages it shipped: from its
// acknowledgement on, they hold them.
func (w *txWorld) commit(t *tx.Tx) error {
	if err := t.Commit(); err != nil {
		return err
	}
	w.acked[t.ID()] = wal.TCommit
	for pg, img := range w.shipped[t.ID()] {
		w.committed[pg] = img
	}
	delete(w.shipped, t.ID())
	return nil
}

// prepare has t vote yes: its prepare record, carrying its changes, is forced.
func (w *txWorld) prepare(t *tx.Tx) error {
	if err := t.Prepare(); err != nil {
		return err
	}
	w.acked[t.ID()] = wal.TPrepare
	return nil
}

// abort rolls t back at run time: nothing of it was written, and nothing is.
// A prepared t's abort record, which re-anchors its pages, is forced.
func (w *txWorld) abort(t *tx.Tx) error {
	delete(w.shipped, t.ID())
	if err := t.Abort(); err != nil {
		return err
	}
	if w.acked[t.ID()] == wal.TPrepare {
		w.acked[t.ID()] = wal.TAbort
	}
	return nil
}

// checkpoint syncs the area and takes the product's checkpoint. A checkpoint's
// dirty-page table holds only the pages of transactions whose writes are still
// to come, so every write a commit made must be durable first.
func (w *txWorld) checkpoint() error {
	if err := w.area.Sync(); err != nil {
		return err
	}
	_, err := w.txm.Checkpoint()
	return err
}

// e13Workload runs the transaction mix; its first error is the crash, and
// ends it. Every transaction rewrites its private page whole, then two
// ranges of it. Odd ones commit; even ones stay in flight, their changes
// never logged, but for one rolled back at run time. Mid-run a checkpoint is
// taken; after it, transactions come back with byte ranges to pages anchored
// before it. Beside them (e13ShipBefore, e13ShipAfter) one commits, one stays
// in flight, one anchors a fresh page across the checkpoint; one is rolled
// back with nothing logged and the next anchors its page, committing with a
// second checkpoint between its force and its page writes, which must list
// its pages. Then (e13Reanchor) a yes vote rolled back re-anchors its pages
// for the byte ranges after it, and (e13Runs) a commit carries a page in 128
// runs.
func e13Workload(w *txWorld) {
	for id := uint64(1); id <= e13Txs; id++ {
		t := w.txm.Ensure(id, 0)
		pg := w.pages[id]
		for k := 0; k < e13Updates; k++ {
			off, n := 0, page.Size
			if k > 0 {
				off, n = 512*k+int(id)*40, 96+int(id)
			}
			if w.ship(t, pg, k, off, n) != nil {
				return
			}
		}
		if id == e13Txs/2 {
			// The last transaction in flight at the checkpoint also changes a
			// committed neighbour's page, anchored by that neighbour: the
			// checkpoint must list it at the anchor, not at this delta.
			if w.ship(t, w.pages[id-1], e13Updates, 2048, 64) != nil {
				return
			}
		}
		if id == e13Txs/2+1 {
			// Back to a committed page and to an in-flight one, both anchored
			// before the checkpoint: every change after it is a delta.
			old := w.txm.Lookup(2) // in flight since the second iteration
			for k := e13Updates; k < e13Updates+2; k++ {
				if w.ship(t, w.pages[1], k, 100*k, 64) != nil ||
					w.ship(old, w.pages[2], k, 100*k, 64) != nil {
					return
				}
			}
		}
		switch {
		case id%2 == 1:
			if w.commit(t) != nil {
				return
			}
		case id == e13Txs-2:
			if w.abort(t) != nil {
				return
			}
		}

		if id == e13Txs/2 && w.checkpoint() != nil {
			return
		}
		if id == 2 && !e13ShipBefore(w) || id == e13Txs/2+2 && !e13ShipAfter(w) ||
			id == e13Txs/2+3 && !(e13Reanchor(w) && e13Runs(w)) {
			return
		}
	}
}

// e13ShipBefore runs the transactions before the checkpoint: one commits a
// page whole and then a range of it, two are left in flight, one of them
// anchoring a fresh page. Each of these steps reports whether it ran to its
// end.
func e13ShipBefore(w *txWorld) bool {
	done, open, gone := w.txm.Ensure(e13Txs+1, 0), w.txm.Ensure(e13Txs+2, 0), w.txm.Ensure(e13Txs+5, 0)
	pg := w.pages[done.ID()]
	return w.ship(done, pg, 0, 0, page.Size) == nil && w.ship(done, pg, 1, 700, 90) == nil &&
		w.ship(open, w.pages[open.ID()], 0, 0, page.Size) == nil &&
		w.ship(gone, w.pages[gone.ID()], 1, 1200, 300) == nil && w.commit(done) == nil
}

// e13Reanchor runs after both checkpoints. The transaction in flight across
// them rewrites a committed page whole, votes yes and rolls back: its abort
// record anchors both its pages again, and the whole image its prepare logged
// must never start either page's replay. The next writer changes both by
// byte ranges alone, so redo of each starts at the abort's anchor.
func e13Reanchor(w *txWorld) bool {
	gone, next := w.txm.Lookup(e13Txs+5), w.txm.Ensure(e13Txs+6, 0)
	old := w.pages[3] // committed before the checkpoint, and nobody's since
	return w.ship(gone, old, 4, 0, page.Size) == nil && w.prepare(gone) == nil && w.abort(gone) == nil &&
		w.ship(next, old, 5, 300, 40) == nil && w.ship(next, old, 6, 3500, 200) == nil &&
		w.ship(next, w.pages[gone.ID()], 2, 2500, 100) == nil && w.commit(next) == nil
}

// e13Runs changes every other 8-byte word of the first half of a page
// committed before the checkpoint, and commits: its record carries the page
// in 128 runs, 1.3 KB, so that a crash point that tears the record's write
// cuts it inside a continuation entry.
func e13Runs(w *txWorld) bool {
	t := w.txm.Ensure(e13Txs+7, 0)
	return w.change(t, w.pages[e13Txs+1], func(img []byte) {
		for j := 0; j < page.Size/2; j += 16 {
			for k := j; k < j+8; k++ {
				img[k] ^= 0xA5
			}
		}
	}) == nil && w.commit(t) == nil
}

// e13ShipAfter runs the transactions after the checkpoint: one changes a
// fresh page and rolls back, and the next ships onto it, its own page and
// e13ShipBefore's committed one, with a checkpoint between its force and its
// page writes.
func e13ShipAfter(w *txWorld) bool {
	back, last := w.txm.Ensure(e13Txs+3, 0), w.txm.Ensure(e13Txs+4, 0)
	fresh := w.pages[back.ID()]
	if w.ship(back, fresh, 1, 300, 200) != nil || w.abort(back) != nil || w.ship(last, w.pages[last.ID()], 0, 0, page.Size) != nil ||
		w.ship(last, fresh, 2, 1000, 150) != nil || w.ship(last, w.pages[e13Txs+1], 2, 2000, 64) != nil {
		return false
	}
	w.midWB = w.checkpoint
	return w.commit(last) == nil
}

// e13Pager adapts an area to wal.Pager, and checks every store's proof
// against the log it came from. before, if it points to a hook, runs that
// hook once, ahead of the next store.
type e13Pager struct {
	a      *area.Area
	l      *wal.Log
	before *func() error
}

func (p e13Pager) ReadPage(id page.ID, buf []byte) error {
	if id.Area != e13AreaID {
		return fmt.Errorf("e13: read of foreign area %d", id.Area)
	}
	return p.a.ReadPage(id.Page, buf)
}

func (p e13Pager) WriteRun(proofs []wal.Logged, data []byte) error {
	id, err := checkRun(p.l, proofs, data)
	if err != nil {
		return fmt.Errorf("e13: %w", err)
	}
	if id.Area != e13AreaID {
		return fmt.Errorf("e13: write of foreign area %d", id.Area)
	}
	if p.before != nil && *p.before != nil {
		hook := *p.before
		*p.before = nil
		if err := hook(); err != nil {
			return err
		}
	}
	return p.a.WriteRun(id.Page, data)
}

// check reboots onto the surviving images, recovers, and checks the
// shadow-model invariants; a branch in doubt is then committed, or with commit
// unset aborted. It returns the redo the first restart applied.
func (w *txWorld) check(commit bool) (int, error) {
	r := w.World.reboot()
	// (3) torn tail is end-of-log: reopening the surviving log must succeed.
	l, err := wal.Open(r.log.WAL())
	if err != nil {
		return 0, fmt.Errorf("reopen log: %w", err)
	}
	defer func() { _ = l.Close() }() // a throwaway image: closing means nothing
	a, err := area.Load(r.area(e13AreaID).Area(), true)
	if err != nil {
		return 0, fmt.Errorf("reload area: %w", err)
	}
	defer func() { _ = a.Close() }()

	// (1) acked commits, yes votes and rollbacks are durable.
	decided, err := decisions(l, w.acked)
	if err != nil {
		return 0, err
	}
	var inDoubt []uint64
	for tx, typ := range decided {
		if typ == wal.TPrepare {
			inDoubt = append(inDoubt, tx)
		}
	}

	_, stats, err := Restart(l, e13Pager{a, l, nil})
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	if stats.UnanchoredPages != 0 {
		return 0, fmt.Errorf("redo started %d page(s) from a byte-range record", stats.UnanchoredPages)
	}

	// (2) each page — every transaction's private one, every one a change
	// touched — holds what its last winner left; (6) the branches in doubt are
	// those whose TPrepare survived with no decision after it.
	slices.Sort(inDoubt)
	check := func(when string, st *wal.RecoveryStats) error {
		if !slices.Equal(inDoubt, st.InDoubt) {
			return fmt.Errorf("in doubt %s: %v, want %v", when, st.InDoubt, inDoubt)
		}
		buf := make([]byte, page.Size)
		for pg := range w.history {
			want := make([]byte, page.Size)
			for _, wr := range w.history[pg] {
				if decided[wr.tx] == wal.TCommit {
					want = wr.img
				}
			}
			if err := a.ReadPage(pg, buf); err != nil {
				return fmt.Errorf("read page %d: %w", pg, err)
			}
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("page %d (%d changes in the shadow) diverges from shadow %s", pg, len(w.history[pg]), when)
			}
		}
		return nil
	}
	if err := check("after recovery", stats); err != nil {
		return 0, err
	}

	// (4) idempotence: a second restart finds no losers and changes nothing;
	// (6) with a branch in doubt, so does a third after its decision.
	for round := 2; ; round++ {
		m, st, err := Restart(l, e13Pager{a, l, nil})
		if err != nil {
			return 0, fmt.Errorf("recover again (%d): %w", round, err)
		}
		if len(st.Losers) != 0 {
			return 0, fmt.Errorf("recovery %d found losers %v", round, st.Losers)
		}
		if err := check(fmt.Sprintf("after recovery %d", round), st); err != nil || len(inDoubt) == 0 {
			return stats.RedoApplied, err
		}
		for _, tx := range inDoubt {
			b, typ := m.Lookup(tx), wal.TAbort
			end := b.Abort
			if commit {
				end, typ = b.Commit, wal.TCommit
			}
			if err := end(); err != nil {
				return 0, fmt.Errorf("%v of branch %d: %w", typ, tx, err)
			}
			decided[tx] = typ
		}
		inDoubt = nil
		// The decision itself leaves the pages right, not the next restart.
		if err := check("after the decision", &wal.RecoveryStats{}); err != nil {
			return 0, err
		}
	}
}
