package bench

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"bess/internal/area"
	"bess/internal/fault"
	"bess/internal/lock"
	"bess/internal/page"
	"bess/internal/tx"
	"bess/internal/wal"
)

// --- E13: crash-point enumeration — torn-write torture of ARIES restart ---
//
// The experiment runs a deterministic multi-transaction workload over
// fault-injected media (internal/fault): WAL and area share one event
// clock, so every write/sync boundary in either medium is a candidate
// crash point. The workload runs once fault-free to count events, then
// replays once per crash point × mode. Each replay kills the machine — or
// only the process — at its scheduled event, extracts the surviving images,
// reopens them, runs tx.Restart, and checks the recovered database against a
// shadow model:
//
//	(1) every acknowledged commit (Flush returned nil before the crash)
//	    has a durable TCommit in the surviving log;
//	(2) every page holds exactly the image its last winner left, or its
//	    initial image if only losers touched it;
//	(3) the torn log tail is treated as end-of-log — reopen never errors
//	    and recovery never replays garbage;
//	(4) recovery is idempotent: a second restart on the recovered image
//	    changes nothing and finds no losers;
//	(5) the restart invariant of the logging rule: the earliest record redo
//	    replays for any page is a whole-page image
//	    (wal.RecoveryStats.UnanchoredPages == 0);
//	(6) a 2PC branch whose TPrepare survived is in doubt after both
//	    restarts, and its shipped images are *not* on its pages (only what
//	    it stole is); then its coordinator's commit (in every mode but torn)
//	    writes them from its log chain, its abort (torn mode) leaves those
//	    before it, and a third restart keeps either.
//
// Modes per crash point: clean (the fatal write vanishes), torn (one 512B
// sector of it survives), torn+garbage (the lost extent is overwritten with
// seeded noise — a drive scribbling as power died), and process (the process
// dies, the machine does not: every write it issued survives, synced or not,
// and only the log tail it never wrote out is lost).

// Workload shape. Transactions log through the product's own rule and
// commit, abort and checkpoint through tx.Manager, so the log under torture
// has the product's layout: a whole-page anchor for a page's first update
// after open and after the checkpoint, byte-range records for the sub-page
// overwrites in between. Steal transactions log through tx.Tx.LogUpdate (the
// server's CreateLarge path) and write their pages whenever the buffer pool
// steals them; shipped ones through tx.Tx.LogRedo (the server's commit path,
// logAndApply), whose pages their commit writes after its force. Each
// transaction works on a private page (matching the segment-granular strict
// 2PL the server enforces); some of them come back to a page after the
// checkpoint.
const (
	e13Txs     = 12 // steal transactions; odd commit, even are left in flight (one aborts)
	e13Shipped = 4  // shipped transactions after them, on pages of their own
	e13Updates = 3  // updates per transaction: the whole page, then two sub-page overwrites
	e13AreaID  = 7
)

// E13Mode aggregates trials for one crash mode.
type E13Mode struct {
	Mode         string `json:"mode"` // "clean", "torn", "garbage", "process"
	Trials       int    `json:"trials"`
	Consistent   int    `json:"consistent"`
	Inconsistent int    `json:"inconsistent"`
}

// E13Report is the full experiment output (BENCH_E13.json).
type E13Report struct {
	Seed           int64     `json:"seed"`
	SetupEvents    int64     `json:"setup_events"`
	TotalEvents    int64     `json:"total_events"`
	CrashPoints    int       `json:"crash_points"`
	Sampled        bool      `json:"sampled"` // true when a bounded sample ran instead of full enumeration
	Trials         int       `json:"trials"`
	Consistent     int       `json:"consistent"`
	Inconsistent   int       `json:"inconsistent"`
	Modes          []E13Mode `json:"modes"`
	MeanRecoverUs  float64   `json:"mean_recover_us"`
	MaxRecoverUs   float64   `json:"max_recover_us"`
	MeanRedo       float64   `json:"mean_redo_applied"`
	MeanUndo       float64   `json:"mean_undo_applied"`
	WorkloadLog    int64     `json:"workload_log_bytes"`     // log written by the fault-free run
	Failures       []string  `json:"failures,omitempty"`     // first few inconsistency descriptions
	WorkloadAcked  int       `json:"workload_acked_commits"` // in the fault-free run
	WorkloadEvents string    `json:"workload_event_window"`
}

// e13Write is one logged page change in the shadow model: who made it, what
// the page held afterwards, and whether it was shipped — written only by its
// transaction's commit.
type e13Write struct {
	tx      uint64
	img     []byte
	shipped bool
}

// e13World is one simulated machine: WAL and area on a shared event clock,
// plus the shadow model the workload maintains as it runs.
type e13World struct {
	inj    *fault.Injector
	walSt  *fault.Store
	areaSt *fault.Store
	log    *wal.Log
	area   *area.Area
	txm    *tx.Manager

	pages   map[uint64]page.No            // tx -> its private page
	acked   map[uint64]wal.Type           // commits (TCommit) and 2PC yes votes (TPrepare) acknowledged before any crash
	history map[page.No][]e13Write        // page -> its logged changes, in log order
	buffer  map[page.No][]byte            // the buffer pool: current content of every touched page
	unsaved map[page.No]bool              // buffered content not yet written to the area
	shipped map[uint64]map[page.No][]byte // tx -> the pages its commit is to write
	midWB   func() error                  // runs once, ahead of the next store through the pager

	setupEvents int64
}

// e13Setup builds the database: log, area, and one private page per
// transaction, all made durable. Crash points are enumerated strictly
// after setup — power loss before the database exists is not a recovery
// scenario.
func e13Setup(seed int64) (*e13World, error) {
	w := &e13World{
		inj:     fault.NewInjector(seed),
		pages:   make(map[uint64]page.No),
		acked:   make(map[uint64]wal.Type),
		history: make(map[page.No][]e13Write),
		buffer:  make(map[page.No][]byte),
		unsaved: make(map[page.No]bool),
		shipped: make(map[uint64]map[page.No][]byte),
	}
	w.walSt = fault.NewStore(w.inj)
	w.areaSt = fault.NewStore(w.inj)

	l, err := wal.Open(w.walSt.WAL())
	if err != nil {
		return nil, fmt.Errorf("open log: %w", err)
	}
	w.log = l
	a, err := area.Create(w.areaSt.Area(), e13AreaID, 1, true)
	if err != nil {
		return nil, fmt.Errorf("create area: %w", err)
	}
	w.area = a
	w.txm = tx.NewManager(l, lock.NewManager(), e13Pager{a, l, &w.midWB}, nil)
	for t := uint64(1); t <= e13Txs+e13Shipped; t++ {
		first, _, err := a.AllocSegment(1)
		if err != nil {
			return nil, fmt.Errorf("alloc page for tx %d: %w", t, err)
		}
		w.pages[t] = first
	}
	if err := w.areaSt.Area().Sync(); err != nil {
		return nil, fmt.Errorf("sync area: %w", err)
	}
	w.setupEvents = w.inj.Events()
	return w, nil
}

// update has t overwrite n bytes of pg at off with a pattern of (t, k): the
// change is logged through the product's rule, lands in the buffer pool, and
// joins the shadow model.
func (w *e13World) update(t *tx.Tx, pg page.No, k, off, n int) error {
	before := w.stored(pg)
	return w.change(t, pg, before, e13Pattern(t, before, k, off, n))
}

// stored is pg as the buffer pool holds it: zeros if never touched.
func (w *e13World) stored(pg page.No) []byte {
	if b := w.buffer[pg]; b != nil {
		return b
	}
	return make([]byte, page.Size) // freshly allocated zeros
}

// e13Pattern is before with n bytes at off overwritten by a pattern of (t, k).
func e13Pattern(t *tx.Tx, before []byte, k, off, n int) []byte {
	after := append([]byte(nil), before...)
	for j := off; j < off+n; j++ {
		after[j] = byte(uint64(j)*31 + t.ID()*131 + uint64(k)*17 + 1)
	}
	return after
}

// ship has t overwrite n bytes of pg at off as a shipped commit does
// (tx.Tx.LogRedo): the change is logged without an undo half, stays off the
// buffer pool and the area, and is written by t's commit, after its force
// (commitShipped).
func (w *e13World) ship(t *tx.Tx, pg page.No, k, off, n int) error {
	mine := w.shipped[t.ID()]
	if mine == nil {
		mine = make(map[page.No][]byte)
		w.shipped[t.ID()] = mine
	}
	view := mine[pg] // t sees its own shipped change
	if view == nil {
		view = w.stored(pg)
	}
	after := e13Pattern(t, view, k, off, n)
	if err := t.LogRedo(page.ID{Area: e13AreaID, Page: pg}, w.stored(pg), after); err != nil {
		return err
	}
	mine[pg] = after
	w.history[pg] = append(w.history[pg], e13Write{t.ID(), after, true})
	return nil
}

// commitShipped commits t, whose commit writes the pages it shipped: from
// its acknowledgement on, the buffer pool holds them as written.
func (w *e13World) commitShipped(t *tx.Tx) error {
	if err := t.Commit(); err != nil {
		return err
	}
	w.acked[t.ID()] = wal.TCommit
	for pg, img := range w.shipped[t.ID()] {
		w.buffer[pg] = img
	}
	delete(w.shipped, t.ID())
	return nil
}

// clear has t zero n bytes of pg at off.
func (w *e13World) clear(t *tx.Tx, pg page.No, off, n int) error {
	before := w.buffer[pg]
	after := append([]byte(nil), before...)
	clear(after[off : off+n])
	return w.change(t, pg, before, after)
}

// change logs t's change of pg from before to after through the product's
// rule, puts it in the buffer pool and adds it to the shadow model.
func (w *e13World) change(t *tx.Tx, pg page.No, before, after []byte) error {
	if _, err := t.LogUpdate(page.ID{Area: e13AreaID, Page: pg}, before, after); err != nil {
		return err
	}
	w.buffer[pg], w.unsaved[pg] = after, true
	w.history[pg] = append(w.history[pg], e13Write{t.ID(), after, false})
	return nil
}

// rollback aborts t at run time: the pager restores its pages on the area, to
// what the buffer pool then holds again — was, per page (nil: never written,
// all zero).
func (w *e13World) rollback(t *tx.Tx, was map[page.No][]byte) error {
	if err := t.Abort(); err != nil {
		return err
	}
	for pg, img := range was {
		delete(w.unsaved, pg)
		if w.buffer[pg] = img; img == nil {
			delete(w.buffer, pg)
		}
	}
	return nil
}

// flushAndCheckpoint writes back what is only buffered, syncs the area and
// takes the product's checkpoint. A checkpoint's dirty-page table holds only
// what active transactions changed, so everything else must be durable first.
// In page order, so that a crash point names the same write in every replay.
func (w *e13World) flushAndCheckpoint() error {
	for id := uint64(1); id <= e13Txs+e13Shipped; id++ {
		if pno := w.pages[id]; w.unsaved[pno] {
			if err := w.area.WritePage(pno, w.buffer[pno]); err != nil {
				return err
			}
			delete(w.unsaved, pno)
		}
	}
	if err := w.area.Sync(); err != nil {
		return err
	}
	_, err := w.txm.Checkpoint()
	return err
}

// steal writes pg's buffered content to the area, forcing the log through
// t's last record first (the WAL rule: log before data).
func (w *e13World) steal(t *tx.Tx, pg page.No) error {
	if err := w.log.Flush(t.LastLSN()); err != nil {
		return err
	}
	if err := w.area.WritePage(pg, w.buffer[pg]); err != nil {
		return err
	}
	delete(w.unsaved, pg)
	return nil
}

// e13Workload runs the transaction mix. Any error is the scheduled crash
// (or a cascade of it) and simply ends the run — everything acknowledged
// before that moment is in w.acked, and that is what recovery must honor.
//
// Every transaction rewrites its whole private page, then overwrites two
// sub-page ranges of it. Odd transactions commit; even ones are left in
// flight, except one that rolls back at run time (CLRs under the same rule).
// Dirty pages are stolen to the area — after forcing the log up to their
// last update — for all even transactions and every fourth odd one, so both
// redo of lost winner writes and undo of stolen loser writes are exercised.
// Mid-run the buffer pool is flushed and the product's checkpoint taken: it
// lists the in-flight transactions' pages at their anchors' LSNs — one of them
// a page another transaction anchored — and starts a new anchor epoch. After
// it, an in-flight transaction and a new one come back to pages logged before
// it, so their next records must be anchors again for a torn steal to heal.
//
// Beside them run shipped transactions (e13Shipped), whose pages only their
// commit writes, after its force. Before the checkpoint one commits and one
// is left in flight; after it one anchors a fresh page and is rolled back at
// run time — no CLR, its anchor forgotten — and the last ships onto that page
// (anchoring it again) and onto the first one's, and commits with a second
// checkpoint taken between its force and its page writes, which must list
// its pages for redo to reach them.
func e13Workload(w *e13World) {
	for id := uint64(1); id <= e13Txs; id++ {
		t := w.txm.Ensure(id, 0)
		pg := w.pages[id]
		for k := 0; k < e13Updates; k++ {
			off, n := 0, page.Size
			if k > 0 {
				off, n = 512*k+int(id)*40, 96+int(id)
			}
			if w.update(t, pg, k, off, n) != nil {
				return
			}
		}
		if id == e13Txs/2 {
			// The last transaction in flight at the checkpoint also changes a
			// committed neighbour's page, anchored by that neighbour: the
			// checkpoint must list it at the anchor, not at this delta.
			if w.update(t, w.pages[id-1], e13Updates, 2048, 64) != nil || w.steal(t, w.pages[id-1]) != nil {
				return
			}
		}
		if id == e13Txs/2+1 {
			// Back to a committed page and to an in-flight one, first touches
			// of the new epoch both; the second change to each is a delta.
			old := w.txm.Lookup(2) // in flight since the second iteration
			for k := e13Updates; k < e13Updates+2; k++ {
				if w.update(t, w.pages[1], k, 100*k, 64) != nil ||
					w.update(old, w.pages[2], k, 100*k, 64) != nil {
					return
				}
			}
			if w.steal(t, w.pages[1]) != nil || w.steal(old, w.pages[2]) != nil {
				return
			}
		}
		if id%2 == 0 || id%4 == 1 {
			if w.steal(t, pg) != nil {
				return
			}
		}
		switch {
		case id%2 == 1:
			if t.Commit() != nil {
				return
			}
			w.acked[id] = wal.TCommit // the commit is acknowledged from here on
		case id == e13Txs-2:
			// Run-time rollback: the pager restores the page on the area.
			if t.Abort() != nil {
				return
			}
			delete(w.unsaved, pg)
		}

		if id == e13Txs/2 && w.flushAndCheckpoint() != nil {
			return
		}
		if id == 2 && e13ShipBefore(w) != nil || id == e13Txs/2+2 && e13ShipAfter(w) != nil {
			return
		}
	}
}

// e13ShipBefore runs the shipped transactions before the checkpoint: one
// commits a page whole and then a range of it, one is left in flight.
func e13ShipBefore(w *e13World) error {
	done, open := w.txm.Ensure(e13Txs+1, 0), w.txm.Ensure(e13Txs+2, 0)
	pg := w.pages[done.ID()]
	if err := w.ship(done, pg, 0, 0, page.Size); err != nil {
		return err
	}
	if err := w.ship(done, pg, 1, 700, 90); err != nil {
		return err
	}
	if err := w.ship(open, w.pages[open.ID()], 0, 0, page.Size); err != nil {
		return err
	}
	return w.commitShipped(done)
}

// e13ShipAfter runs the shipped transactions after the checkpoint.
func e13ShipAfter(w *e13World) error {
	back, last := w.txm.Ensure(e13Txs+3, 0), w.txm.Ensure(e13Txs+4, 0)
	fresh := w.pages[back.ID()]
	if err := w.ship(back, fresh, 1, 300, 200); err != nil {
		return err
	}
	if err := back.Abort(); err != nil {
		return err
	}
	delete(w.shipped, back.ID())
	for _, s := range []struct {
		pg            page.No
		k, off, bytes int
	}{
		{w.pages[last.ID()], 0, 0, page.Size},
		{fresh, 2, 1000, 150},
		{w.pages[e13Txs+1], 2, 2000, 64},
	} {
		if err := w.ship(last, s.pg, s.k, s.off, s.bytes); err != nil {
			return err
		}
	}
	w.midWB = w.flushAndCheckpoint
	return w.commitShipped(last)
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

func (p e13Pager) WritePage(proof wal.Logged, data []byte) error {
	if err := checkProof(p.l, proof); err != nil {
		return fmt.Errorf("e13: %w", err)
	}
	id := proof.Page()
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
	return p.a.WritePage(id.Page, data)
}

// e13Verify reboots onto the surviving images, recovers, and checks the
// shadow-model invariants; a branch in doubt is then committed, or with commit
// unset aborted. Returns the recovery stats of the first restart.
func e13Verify(w *e13World, commit bool) (*wal.RecoveryStats, error) {
	walImg := w.walSt.CrashImage()
	areaImg := w.areaSt.CrashImage()

	// (3) torn tail is end-of-log: reopening the surviving log must succeed.
	l, err := wal.OpenMemFrom(walImg)
	if err != nil {
		return nil, fmt.Errorf("reopen log: %w", err)
	}
	// Throwaway reboot images: close errors carry no durability meaning here.
	defer func() { _ = l.Close() }()
	st2 := fault.NewStoreFrom(fault.NewInjector(0), areaImg)
	a, err := area.Load(st2.Area(), true)
	if err != nil {
		return nil, fmt.Errorf("reload area: %w", err)
	}
	defer func() { _ = a.Close() }()

	// What the durable log decided of each transaction: TCommit for a winner,
	// TPrepare for a branch in doubt (no decision reaches one before a crash).
	decided := make(map[uint64]wal.Type)
	var inDoubt []uint64
	if err := l.Iterate(wal.FirstLSN(), func(_ page.LSN, rec *wal.Record) error {
		if rec.Type == wal.TCommit || rec.Type == wal.TPrepare {
			decided[rec.Tx] = rec.Type
		}
		if rec.Type == wal.TPrepare {
			inDoubt = append(inDoubt, rec.Tx)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("scan surviving log: %w", err)
	}

	// (1) acked commits and yes votes are durable.
	for tx, typ := range w.acked {
		if decided[tx] != typ {
			return nil, fmt.Errorf("acked %v of tx %d not durable", typ, tx)
		}
	}

	_, stats, err := restart(l, e13Pager{a, l, nil})
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}

	if stats.UnanchoredPages != 0 {
		return nil, fmt.Errorf("redo started %d page(s) from a byte-range record", stats.UnanchoredPages)
	}

	// (2) each page holds what its last winner left — or a branch in doubt
	// stole; (6) the branches in doubt are those whose TPrepare survived.
	slices.Sort(inDoubt)
	check := func(when string, st *wal.RecoveryStats) error {
		if !slices.Equal(inDoubt, st.InDoubt) {
			return fmt.Errorf("in doubt %s: %v, want %v", when, st.InDoubt, inDoubt)
		}
		buf := make([]byte, page.Size)
		for t := uint64(1); t <= e13Txs+e13Shipped; t++ {
			pg := w.pages[t]
			want := make([]byte, page.Size)
			for _, wr := range w.history[pg] {
				if decided[wr.tx] == wal.TCommit || decided[wr.tx] == wal.TPrepare && !wr.shipped {
					want = wr.img
				}
			}
			if err := a.ReadPage(pg, buf); err != nil {
				return fmt.Errorf("read page of tx %d: %w", t, err)
			}
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("page of tx %d (winner=%v) diverges from shadow %s", t, decided[t] == wal.TCommit, when)
			}
		}
		return nil
	}
	if err := check("after recovery", stats); err != nil {
		return nil, err
	}

	// (4) idempotence: a second restart finds no losers and changes nothing;
	// (6) with a branch in doubt, so does a third after its decision.
	for round := 2; ; round++ {
		m, st, err := restart(l, e13Pager{a, l, nil})
		if err != nil {
			return nil, fmt.Errorf("recover again (%d): %w", round, err)
		}
		if len(st.Losers) != 0 {
			return nil, fmt.Errorf("recovery %d found losers %v", round, st.Losers)
		}
		if err := check(fmt.Sprintf("after recovery %d", round), st); err != nil || len(inDoubt) == 0 {
			return stats, err
		}
		for _, tx := range inDoubt {
			b, typ := m.Lookup(tx), wal.TAbort
			end := b.Abort
			if commit {
				end, typ = b.Commit, wal.TCommit
			}
			if err := end(); err != nil {
				return nil, fmt.Errorf("%v of branch %d: %w", typ, tx, err)
			}
			decided[tx] = typ
		}
		inDoubt = nil
		// The decision itself leaves the pages right, not the next restart.
		if err := check("after the decision", &wal.RecoveryStats{}); err != nil {
			return nil, err
		}
	}
}

// e13Modes are the three ways a power loss can tear the fatal write, and the
// process's death, which tears nothing and loses only what was never written.
var e13Modes = []struct {
	name        string
	tearSectors int
	garbage     bool
	process     bool
}{
	{"clean", 0, false, false},
	{"torn", 1, false, false},
	{"garbage", 1, true, false},
	{"process", 0, false, true},
}

// RunE13 enumerates the crash points of e13Workload.
func RunE13(seed int64, sample int) (E13Report, error) {
	return e13Enumerate(seed, sample, e13Workload)
}

// e13LongTx is a second workload for the same enumeration: one transaction
// whose log is longer than the log buffer several times over, then its commit.
// Its records reach the file in rounds the appender leads itself each time the
// buffer set is full (wal.Log), so a crash can fall between any two of them,
// or inside one; two pages are stolen on the way, so undo has work on the
// area. Restart must leave all of it or none of it.
func e13LongTx(w *e13World) {
	const updates = 2560 // whole-page overwrites, before and after both stored: 21 MB of log, 2.5 times the log's buffer set
	t := w.txm.Ensure(1, 0)
	for k := 0; k < updates; k++ {
		pg := w.pages[uint64(1+k%e13Txs)]
		if w.update(t, pg, k, 0, page.Size) != nil {
			return
		}
		if k == updates/3 || k == updates/2 {
			if w.steal(t, pg) != nil {
				return
			}
		}
	}
	if t.Commit() != nil {
		return
	}
	w.acked[1] = wal.TCommit
}

// e13FreshPages is a third workload: pages nothing was ever logged for, all
// zero, are filled — update records whose before-image the log keeps as a
// length — and the fill is taken back every way it can be: rolled back at run
// time with the anchor still in the epoch (range CLRs with a zero after-image)
// and after a checkpoint (the CLR is the anchor, a whole page of zeroes), and
// left to restart undo as a loser, part of it stolen. A committed fill is then
// changed in ranges — one of them zeroed — and that is rolled back too. Every
// page ends all zero or byte-exact as its last winner left it.
func e13FreshPages(w *e13World) {
	pg := func(i uint64) page.No { return w.pages[i] }
	fill := func(t *tx.Tx, p page.No) error { return w.update(t, p, 0, 0, page.Size) }

	// Filled, one page stolen, rolled back at run time: back to zeroes.
	t := w.txm.Ensure(2, 0)
	if fill(t, pg(1)) != nil || fill(t, pg(2)) != nil || w.update(t, pg(3), 1, 700, 300) != nil ||
		w.steal(t, pg(2)) != nil || w.rollback(t, map[page.No][]byte{pg(1): nil, pg(2): nil, pg(3): nil}) != nil {
		return
	}

	// Filled — the second and third the same pages again, zero once more — and
	// committed: the winner every later rollback must leave byte-exact.
	t = w.txm.Ensure(1, 0)
	if fill(t, pg(2)) != nil || fill(t, pg(3)) != nil || w.update(t, pg(4), 1, 1000, 200) != nil || w.steal(t, pg(3)) != nil {
		return
	}
	if t.Commit() != nil {
		return
	}
	w.acked[1] = wal.TCommit

	// Filled, stolen, and rolled back after a checkpoint: the CLR anchors the
	// page with a whole image of zeroes.
	late := w.txm.Ensure(4, 0)
	if fill(late, pg(5)) != nil || w.steal(late, pg(5)) != nil {
		return
	}
	// The loser: fills fresh pages before and after the checkpoint, one of each
	// stolen, and is never heard of again.
	loser := w.txm.Ensure(6, 0)
	if fill(loser, pg(6)) != nil || fill(loser, pg(7)) != nil || w.steal(loser, pg(6)) != nil {
		return
	}
	if w.flushAndCheckpoint() != nil {
		return
	}
	if w.rollback(late, map[page.No][]byte{pg(5): nil}) != nil {
		return
	}
	if fill(loser, pg(8)) != nil || w.update(loser, pg(9), 1, 64, 3000) != nil || w.steal(loser, pg(8)) != nil {
		return
	}

	// The committed fill changed in ranges, one zeroed, stolen, rolled back.
	t = w.txm.Ensure(8, 0)
	was := map[page.No][]byte{pg(2): w.buffer[pg(2)], pg(3): w.buffer[pg(3)], pg(4): w.buffer[pg(4)]}
	if w.update(t, pg(2), 2, 100, 50) != nil || w.clear(t, pg(3), 2000, 500) != nil || w.clear(t, pg(4), 0, page.Size) != nil ||
		w.update(t, pg(2), 3, 3000, 10) != nil || w.steal(t, pg(3)) != nil || w.steal(t, pg(4)) != nil || w.rollback(t, was) != nil {
		return
	}

	// And a second winner over a rolled-back page and a fresh one.
	t = w.txm.Ensure(3, 0)
	if fill(t, pg(1)) != nil || fill(t, pg(10)) != nil {
		return
	}
	if t.Commit() != nil {
		return
	}
	w.acked[3] = wal.TCommit
}

// e13Enumerate enumerates workload's crash points. sample <= 0 runs the full
// enumeration; otherwise at most sample evenly spaced crash points run (the
// CI short mode). Every trial replays the workload from scratch with the
// crash scheduled, so garbage bytes and event interleavings reproduce exactly
// from (seed, crash point, mode).
func e13Enumerate(seed int64, sample int, workload func(*e13World)) (E13Report, error) {
	rep := E13Report{Seed: seed}

	// Fault-free run: count events and record the expected ack set.
	base, err := e13Setup(seed)
	if err != nil {
		return rep, fmt.Errorf("e13 baseline setup: %w", err)
	}
	workload(base)
	if base.inj.Crashed() {
		return rep, fmt.Errorf("e13 baseline run crashed with no fault scheduled")
	}
	rep.SetupEvents = base.setupEvents
	rep.TotalEvents = base.inj.Events()
	rep.WorkloadAcked = len(base.acked)
	rep.WorkloadLog = int64(base.log.NextLSN())
	rep.WorkloadEvents = fmt.Sprintf("(%d, %d]", rep.SetupEvents, rep.TotalEvents)

	points := make([]int64, 0, rep.TotalEvents-rep.SetupEvents)
	for n := rep.SetupEvents + 1; n <= rep.TotalEvents; n++ {
		points = append(points, n)
	}
	if sample > 0 && sample < len(points) {
		rep.Sampled = true
		stride := float64(len(points)) / float64(sample)
		picked := make([]int64, 0, sample)
		for i := 0; i < sample; i++ {
			picked = append(picked, points[int(float64(i)*stride)])
		}
		points = picked
	}
	rep.CrashPoints = len(points)

	var totalRecoverNs, maxRecoverNs int64
	var totalRedo, totalUndo int
	for mi, mode := range e13Modes {
		m := E13Mode{Mode: mode.name}
		for _, n := range points {
			m.Trials++
			w, err := e13Setup(seed)
			if err != nil {
				return rep, fmt.Errorf("e13 setup (crash at %d): %w", n, err)
			}
			if mode.process {
				w.inj.KillAt(n)
			} else {
				w.inj.SetCrashPoint(n, mode.tearSectors, mode.garbage)
			}
			workload(w)
			if !w.inj.Crashed() {
				return rep, fmt.Errorf("e13: crash at event %d never fired (%s)", n, w.inj)
			}
			start := time.Now()
			stats, err := e13Verify(w, mi != 1) // every crash point sees both decisions
			el := time.Since(start).Nanoseconds()
			if err != nil {
				m.Inconsistent++
				if len(rep.Failures) < 8 {
					rep.Failures = append(rep.Failures,
						fmt.Sprintf("crash@%d mode=%s: %v", n, mode.name, err))
				}
				continue
			}
			m.Consistent++
			totalRecoverNs += el
			if el > maxRecoverNs {
				maxRecoverNs = el
			}
			totalRedo += stats.RedoApplied
			totalUndo += stats.UndoApplied
		}
		rep.Trials += m.Trials
		rep.Consistent += m.Consistent
		rep.Inconsistent += m.Inconsistent
		rep.Modes = append(rep.Modes, m)
	}
	if rep.Consistent > 0 {
		rep.MeanRecoverUs = float64(totalRecoverNs) / float64(rep.Consistent) / 1e3
		rep.MaxRecoverUs = float64(maxRecoverNs) / 1e3
		rep.MeanRedo = float64(totalRedo) / float64(rep.Consistent)
		rep.MeanUndo = float64(totalUndo) / float64(rep.Consistent)
	}
	return rep, nil
}
