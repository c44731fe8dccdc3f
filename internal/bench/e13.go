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

// --- E13: crash-point enumeration — torn-write torture of restart ---
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
//	    restarts, and its images are not on its pages; then its
//	    coordinator's commit (in every mode but torn) writes them from its
//	    log chain, its abort (torn mode) leaves the pages as they were, and a
//	    third restart keeps either.
//
// Modes per crash point: clean (the fatal write vanishes), torn (one 512B
// sector of it survives), torn+garbage (the lost extent is overwritten with
// seeded noise — a drive scribbling as power died), and process (the process
// dies, the machine does not: every write it issued survives, synced or not,
// and only the log tail it never wrote out is lost).

// Workload shape. Transactions log through the product's own rule and
// commit, prepare, abort and checkpoint through tx.Manager, so the log under
// torture has the product's layout: one record per commit, carrying a
// whole-page anchor for a page's first change after open and byte ranges for
// the sub-page overwrites after it — before the checkpoint and after it
// alike — a spill ahead of the commit of a transaction larger than a log
// buffer, and an abort record re-anchoring the pages of a rollback whose
// changes reached the log. Every change is shipped as the server's commit
// path ships one (tx.Tx.LogRedo): queued for the commit record, and no page
// written before the commit's force. Each transaction works on a private page
// (matching the segment-granular strict 2PL the server enforces); some of
// them come back to a page after the checkpoint.
const (
	e13Txs     = 12 // transactions of the main loop; odd commit, even are left in flight (one aborts)
	e13Shipped = 6  // transactions beside them, on pages of their own
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
	WorkloadLog    int64     `json:"workload_log_bytes"`     // log written by the fault-free run
	Failures       []string  `json:"failures,omitempty"`     // first few inconsistency descriptions
	WorkloadAcked  int       `json:"workload_acked_commits"` // in the fault-free run
	WorkloadEvents string    `json:"workload_event_window"`
}

// e13Write is one transaction's change of a page in the shadow model: what
// the page holds if the transaction commits.
type e13Write struct {
	tx  uint64
	img []byte
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

	pages     map[uint64]page.No            // tx -> its private page
	acked     map[uint64]wal.Type           // commits (TCommit) and 2PC yes votes (TPrepare) acknowledged before any crash
	history   map[page.No][]e13Write        // page -> its transactions' changes, in log order
	committed map[page.No][]byte            // page -> what the last acknowledged commit left on it
	shipped   map[uint64]map[page.No][]byte // tx -> the pages its commit is to write
	midWB     func() error                  // runs once, ahead of the next store through the pager

	setupEvents int64
	writesFrom  int64 // if set, the event after which a commit's page writes begin
}

// e13Setup builds the database: log, area, and one private page per
// transaction, all made durable. Crash points are enumerated strictly
// after setup — power loss before the database exists is not a recovery
// scenario.
func e13Setup(seed int64) (*e13World, error) {
	w := &e13World{
		inj:       fault.NewInjector(seed),
		pages:     make(map[uint64]page.No),
		acked:     make(map[uint64]wal.Type),
		history:   make(map[page.No][]e13Write),
		committed: make(map[page.No][]byte),
		shipped:   make(map[uint64]map[page.No][]byte),
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

// ship has t overwrite n bytes of pg at off with a pattern of (t, k).
func (w *e13World) ship(t *tx.Tx, pg page.No, k, off, n int) error {
	return w.change(t, pg, func(img []byte) {
		for j := off; j < off+n; j++ {
			img[j] = byte(uint64(j)*31 + t.ID()*131 + uint64(k)*17 + 1)
		}
	})
}

// zero has t zero n bytes of pg at off.
func (w *e13World) zero(t *tx.Tx, pg page.No, off, n int) error {
	return w.change(t, pg, func(img []byte) { clear(img[off : off+n]) })
}

// change has t apply edit to pg as a shipped commit does (tx.Tx.LogRedo): the
// change is queued for t's commit record, without an undo half, stays off the
// area, and is written by t's commit, after its force (commit). t sees its own
// earlier changes.
func (w *e13World) change(t *tx.Tx, pg page.No, edit func(img []byte)) error {
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
func (w *e13World) commit(t *tx.Tx) error {
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
func (w *e13World) prepare(t *tx.Tx) error {
	if err := t.Prepare(); err != nil {
		return err
	}
	w.acked[t.ID()] = wal.TPrepare
	return nil
}

// abort rolls t back at run time: nothing of it was written, and nothing is.
// A prepared t's abort record, which re-anchors its pages, is forced.
func (w *e13World) abort(t *tx.Tx) error {
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
func (w *e13World) checkpoint() error {
	if err := w.area.Sync(); err != nil {
		return err
	}
	_, err := w.txm.Checkpoint()
	return err
}

// e13Workload runs the transaction mix. Any error is the scheduled crash
// (or a cascade of it) and simply ends the run — everything acknowledged
// before that moment is in w.acked, and that is what recovery must honor.
//
// Every transaction rewrites its whole private page, then overwrites two
// sub-page ranges of it, which its commit record carries as one change.
// Odd transactions commit; even ones are left in flight — their changes
// queued, never in the log — except one that rolls back at run time.
// Mid-run the product's checkpoint is taken, which leaves every anchor as it
// is. After it, an in-flight transaction and a new one come back to pages
// committed before it with byte ranges, which redo must lay over the anchors
// logged before the checkpoint.
//
// Beside them run six more transactions. Before the checkpoint one commits,
// one is left in flight, and one changes a fresh page and stays in flight
// across it. After it one changes a fresh page and is rolled back at run time
// — nothing of it logged — and the next ships onto that page (anchoring it)
// and onto the first one's, and commits with a second checkpoint taken
// between its force and its page writes, which must list its pages for redo
// to reach them. Then (e13Reanchor) the one in flight across the checkpoint
// rewrites a page committed before the checkpoint whole, votes yes and rolls
// back, its abort record re-anchoring both its pages, and the last changes
// that page and the rolled-back one's with byte ranges only — its post-force
// write torn, garbage-filled or lost at a crash point — over those anchors.
// Last (e13Runs), a commit carries a page in 128 runs.
func e13Workload(w *e13World) {
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
		if id == 2 && e13ShipBefore(w) != nil || id == e13Txs/2+2 && e13ShipAfter(w) != nil ||
			id == e13Txs/2+3 && (e13Reanchor(w) != nil || e13Runs(w) != nil) {
			return
		}
	}
}

// e13ShipBefore runs the transactions before the checkpoint: one commits a
// page whole and then a range of it, two are left in flight.
func e13ShipBefore(w *e13World) error {
	done, open, gone := w.txm.Ensure(e13Txs+1, 0), w.txm.Ensure(e13Txs+2, 0), w.txm.Ensure(e13Txs+5, 0)
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
	if err := w.ship(gone, w.pages[gone.ID()], 1, 1200, 300); err != nil { // a fresh page's anchor
		return err
	}
	return w.commit(done)
}

// e13Reanchor runs after both checkpoints. The transaction in flight across
// them rewrites a committed page whole, votes yes — its prepare record
// anchoring that page and its own fresh one — and rolls back: its abort
// record anchors both again, as their history left them, and the whole image
// its prepare logged must never start either page's replay. The next writer
// changes both pages by byte ranges and nothing else, so redo of each starts
// at the abort's anchor.
func e13Reanchor(w *e13World) error {
	gone, next := w.txm.Lookup(e13Txs+5), w.txm.Ensure(e13Txs+6, 0)
	old := w.pages[3] // committed before the checkpoint, and nobody's since
	if err := w.ship(gone, old, 4, 0, page.Size); err != nil {
		return err
	}
	if err := w.prepare(gone); err != nil {
		return err
	}
	if err := w.abort(gone); err != nil {
		return err
	}
	if err := w.ship(next, old, 5, 300, 40); err != nil {
		return err
	}
	if err := w.ship(next, old, 6, 3500, 200); err != nil {
		return err
	}
	if err := w.ship(next, w.pages[gone.ID()], 2, 2500, 100); err != nil {
		return err
	}
	return w.commit(next)
}

// e13Runs changes every other 8-byte word of the first half of a page
// committed before the checkpoint, and commits: its record carries the page
// in 128 runs, 1.3 KB, so that a crash point that tears the record's write
// cuts it inside a continuation entry.
func e13Runs(w *e13World) error {
	t := w.txm.Ensure(e13Txs+7, 0)
	if err := w.change(t, w.pages[e13Txs+1], func(img []byte) {
		for j := 0; j < page.Size/2; j += 16 {
			for k := j; k < j+8; k++ {
				img[k] ^= 0xA5
			}
		}
	}); err != nil {
		return err
	}
	return w.commit(t)
}

// e13ShipAfter runs the transactions after the checkpoint.
func e13ShipAfter(w *e13World) error {
	back, last := w.txm.Ensure(e13Txs+3, 0), w.txm.Ensure(e13Txs+4, 0)
	fresh := w.pages[back.ID()]
	if err := w.ship(back, fresh, 1, 300, 200); err != nil {
		return err
	}
	if err := w.abort(back); err != nil {
		return err
	}
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
	w.midWB = w.checkpoint
	return w.commit(last)
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
	// TPrepare for a branch in doubt, TAbort for one rolled back (no commit
	// decision reaches a branch before a crash).
	decided := make(map[uint64]wal.Type)
	var inDoubt []uint64
	if err := l.Iterate(wal.FirstLSN(), func(_ page.LSN, rec *wal.Record) error {
		switch rec.Type {
		case wal.TCommit, wal.TPrepare, wal.TAbort:
			decided[rec.Tx] = rec.Type
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("scan surviving log: %w", err)
	}
	for tx, typ := range decided {
		if typ == wal.TPrepare {
			inDoubt = append(inDoubt, tx)
		}
	}

	// (1) acked commits, yes votes and rollbacks are durable; a yes vote's
	// rollback may be too, before its acknowledgement.
	for tx, typ := range w.acked {
		if decided[tx] != typ && (typ != wal.TPrepare || decided[tx] != wal.TAbort) {
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

	// (2) each page — every transaction's private one, every one a change
	// touched — holds what its last winner left; (6) the branches in doubt are
	// those whose TPrepare survived with no decision after it.
	slices.Sort(inDoubt)
	var pages []page.No
	for _, pg := range w.pages {
		pages = append(pages, pg)
	}
	for pg := range w.history {
		if !slices.Contains(pages, pg) {
			pages = append(pages, pg)
		}
	}
	check := func(when string, st *wal.RecoveryStats) error {
		if !slices.Equal(inDoubt, st.InDoubt) {
			return fmt.Errorf("in doubt %s: %v, want %v", when, st.InDoubt, inDoubt)
		}
		buf := make([]byte, page.Size)
		for _, pg := range pages {
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

// e13LongPages is how many pages e13LongTx rewrites: a log buffer's worth of
// whole pages and some.
const e13LongPages = wal.BufSize/page.Size + 64

// e13WriteBackPoints is how many of a commit's page writes e13Enumerate keeps
// as crash points when a workload marks where they start (writesFrom): they
// are crash points of one kind, and a long transaction has a thousand.
const e13WriteBackPoints = 8

// e13LongTx is a second workload for the same enumeration: one transaction
// whose changes pass the log buffer several times over — each of its pages
// rewritten whole three times, 13.4 MB of log, 1.6 times the log's buffer
// set — then its commit. Its spills reach the file in the forces of two
// checkpoints it straddles and in between in a round the appender leads
// itself when the buffer set is full (wal.Log), so a crash can fall between
// any two of them, or inside one. Restart must leave all of it or none of
// it. Its pages are allocated, and made durable, before the crash window
// opens.
func e13LongTx(w *e13World) {
	var pages []page.No
	for len(pages) < e13LongPages {
		start, got, err := w.area.AllocSegment(min(area.MaxSegmentPages, e13LongPages-len(pages)))
		if err != nil {
			return
		}
		for i := 0; i < got; i++ {
			pages = append(pages, start+page.No(i))
		}
	}
	if w.areaSt.Area().Sync() != nil {
		return
	}
	w.setupEvents = w.inj.Events()
	t := w.txm.Ensure(1, 0)
	const updates = 3 * e13LongPages
	for k := 0; k < updates; k++ {
		if w.ship(t, pages[k%e13LongPages], k, 0, page.Size) != nil {
			return
		}
		// A checkpoint before the first spill, and one after the third: the
		// first two spills fill the buffer set, and the third one's append
		// leads the round that writes them.
		if (k == updates/8 || k == updates-64) && w.checkpoint() != nil {
			return
		}
	}
	w.midWB = func() error {
		w.writesFrom = w.inj.Events()
		return nil
	}
	_ = w.commit(t)
}

// e13FreshPages is a third workload: pages nothing was ever logged for, all
// zero, are filled — anchors whose image is the fill — and the fill is taken
// back every way it can be: rolled back at run time with nothing logged, so
// that the next writer anchors the pages, before a checkpoint; prepared
// before it and rolled back after it, the abort record anchoring the page's
// zeroes again; and left in flight across the checkpoint. Committed
// fills are then zeroed — a range of an anchored page, which the log keeps as
// a length; a range beside a changed one of the same page, which one change
// covers with them; and a page filled whole zeroed whole, a whole-page image
// of zeroes — once rolled back and once committed. Every page ends all zero
// or byte-exact as its last winner left it.
func e13FreshPages(w *e13World) {
	pg := func(i uint64) page.No { return w.pages[i] }
	fill := func(t *tx.Tx, p page.No) error { return w.ship(t, p, 0, 0, page.Size) }

	// Filled and rolled back at run time: still zeroes, nothing logged.
	t := w.txm.Ensure(2, 0)
	if fill(t, pg(1)) != nil || fill(t, pg(2)) != nil || w.ship(t, pg(3), 1, 700, 300) != nil || w.abort(t) != nil {
		return
	}

	// The second page filled again, the fourth and the eleventh filled and a
	// range of the third — anchored afresh, all four — and committed: the
	// winner every later change starts from.
	t = w.txm.Ensure(1, 0)
	if fill(t, pg(2)) != nil || w.ship(t, pg(3), 1, 1500, 1100) != nil || fill(t, pg(4)) != nil || fill(t, pg(11)) != nil ||
		w.commit(t) != nil {
		return
	}

	// Filled and prepared before a checkpoint, rolled back after it; and one
	// that fills fresh pages before and after the checkpoint and is never
	// heard of again.
	late, loser := w.txm.Ensure(4, 0), w.txm.Ensure(6, 0)
	if fill(late, pg(5)) != nil || w.prepare(late) != nil || fill(loser, pg(6)) != nil || fill(loser, pg(7)) != nil || w.checkpoint() != nil {
		return
	}
	if w.abort(late) != nil || fill(loser, pg(8)) != nil || w.ship(loser, pg(9), 1, 64, 3000) != nil {
		return
	}

	// The committed fill changed in ranges; the third page changed in a range
	// and zeroed in another, which its one change covers both of; a range of
	// the eleventh zeroed, and nothing else of it changed; and a page zeroed
	// whole: rolled back, then committed.
	for _, id := range []uint64{8, 5} {
		t = w.txm.Ensure(id, 0)
		if w.ship(t, pg(2), 2, 100, 50) != nil || w.ship(t, pg(3), 2, 1000, 50) != nil || w.zero(t, pg(3), 2000, 500) != nil ||
			w.zero(t, pg(11), 2000, 500) != nil || w.zero(t, pg(4), 0, page.Size) != nil || w.ship(t, pg(2), 3, 3000, 10) != nil {
			return
		}
		end := w.abort
		if id == 5 {
			end = w.commit
		}
		if end(t) != nil {
			return
		}
	}

	// And a last winner over a rolled-back page and a fresh one.
	t = w.txm.Ensure(3, 0)
	if fill(t, pg(1)) != nil || fill(t, pg(10)) != nil {
		return
	}
	_ = w.commit(t)
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

	points := upTo(rep.TotalEvents)[rep.SetupEvents:]
	if from := base.writesFrom; from > rep.SetupEvents {
		// Every point before the page writes, and a few of them.
		rep.Sampled = true
		k := int(from - rep.SetupEvents)
		points = append(points[:k:k], spread(points[k:], e13WriteBackPoints)...)
	}
	if sample > 0 && sample < len(points) {
		rep.Sampled = true
		points = spread(points, sample)
	}
	rep.CrashPoints = len(points)

	var totalRecoverNs, maxRecoverNs int64
	var totalRedo int
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
	}
	return rep, nil
}

// upTo returns 1..n.
func upTo(n int64) []int64 {
	points := make([]int64, n)
	for i := range points {
		points[i] = int64(i) + 1
	}
	return points
}

// spread returns k of points, evenly spaced, the first among them; all of
// them if k is not positive or there are no more than k. It is the one
// sampler of the crash and rot enumerations (E13, E19).
func spread(points []int64, k int) []int64 {
	if k <= 0 || len(points) <= k {
		return points
	}
	stride := float64(len(points)) / float64(k)
	picked := make([]int64, 0, k)
	for i := 0; i < k; i++ {
		picked = append(picked, points[int(float64(i)*stride)])
	}
	return picked
}
