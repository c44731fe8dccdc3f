package torture

import (
	"reflect"
	"testing"

	"bess/internal/area"
	"bess/internal/page"
	"bess/internal/tx"
	"bess/internal/wal"
)

// TestE13CrashTorture enumerates every crash point of the E13 workload in
// every crash mode and requires 100% consistent recovery. Under -short
// a bounded evenly-spaced sample runs instead (the CI crash-torture job). The
// fault-free run must hold the commit of a page in runs the workload is for.
func TestE13CrashTorture(t *testing.T) {
	base, err := e13Setup(42)
	if err != nil {
		t.Fatal(err)
	}
	e13Workload(base)
	runs := 0
	base.log.Iterate(0, func(_ page.LSN, r *wal.Record) error {
		if r.Type == wal.TCommit && r.Tx == e13Txs+7 {
			runs = len(r.Changes)
		}
		return nil
	})
	if runs != 128 {
		t.Fatalf("the fault-free run's last commit carries %d runs, want a page in 128", runs)
	}
	rep, err := crashRun(12, txWorkload(e13Workload), func(r E13Report) CrashReport { return r.CrashReport })
	if err != nil {
		t.Fatalf("E13: %v", err)
	}
	if rep.CrashPoints == 0 {
		t.Fatal("E13 enumerated no crash points")
	}
	if rep.Inconsistent != 0 {
		t.Fatalf("E13: %d/%d trials inconsistent; first failures: %v",
			rep.Inconsistent, rep.Trials, rep.Failures)
	}
	if rep.WorkloadAcked == 0 {
		t.Fatal("E13 baseline run acknowledged no commits")
	}
	t.Logf("E13: %d crash points x %d modes, %d consistent, mean redo %.1f",
		rep.CrashPoints, len(rep.Modes), rep.Consistent, rep.MeanRedo)
}

// TestE13SeedStability: two runs of the main workload with the same seed
// must agree exactly — the property that makes a failing crash point
// replayable. (The server workload's is TestReportsMatchGoldens'.)
func TestE13SeedStability(t *testing.T) {
	a, err := enumerate(7, 6, txWorkload(e13Workload))
	if err != nil {
		t.Fatal(err)
	}
	b, err := enumerate(7, 6, txWorkload(e13Workload))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

// TestE13LongTransaction enumerates every crash point of one transaction that
// reaches the log in several spills and sync rounds before it commits — and
// a sample of its commit's page writes: at each of them, in every crash
// mode, restart finds all of the transaction or none.
func TestE13LongTransaction(t *testing.T) {
	base, err := e13Setup(42)
	if err != nil {
		t.Fatal(err)
	}
	e13LongTx(base)
	spills := 0
	base.log.Iterate(0, func(_ page.LSN, r *wal.Record) error {
		if r.Type == wal.TRedo {
			spills++
		}
		return nil
	})
	if rounds := base.log.Stats().Syncs; base.acked[1] != wal.TCommit || spills < 3 || rounds < 4 {
		t.Fatalf("the transaction (committed=%v) spilled %d times and reached the log in %d rounds, want 3 spills in 3 or more and the commit after",
			base.acked[1], spills, rounds)
	}
	sample := 0
	if testing.Short() {
		sample = 6
	}
	rep, err := enumerate(42, sample, txWorkload(e13LongTx))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CrashPoints == 0 || rep.Inconsistent != 0 {
		t.Fatalf("%d crash points, %d/%d trials inconsistent; first failures: %v",
			rep.CrashPoints, rep.Inconsistent, rep.Trials, rep.Failures)
	}
	t.Logf("%d crash points x %d modes over %d bytes of log in %d sync rounds, %d consistent",
		rep.CrashPoints, len(rep.Modes), rep.WorkloadLog, base.log.Stats().Syncs, rep.Consistent)
}

// e13PreparedBranch is a fourth workload: a 2PC branch ships a range of a
// committed page, a range of a second one and a fresh page whole — as the
// server logs a prepare's images, for its commit to write — and votes yes; a
// checkpoint is taken while it is in doubt, and other transactions keep
// running — one commits, one is left in flight. No decision reaches the
// branch before the crash.
func e13PreparedBranch(w *txWorld) {
	pg := func(i uint64) page.No { return w.pages[i] }
	t := w.txm.Ensure(1, 0)
	if w.ship(t, pg(1), 0, 0, page.Size) != nil || w.ship(t, pg(2), 0, 0, page.Size) != nil || w.commit(t) != nil {
		return
	}
	b := w.txm.Ensure(2, 0)
	if w.ship(b, pg(1), 1, 300, 200) != nil || w.ship(b, pg(2), 1, 1000, 100) != nil ||
		w.ship(b, pg(3), 0, 0, page.Size) != nil || b.Prepare() != nil {
		return
	}
	w.acked[2] = wal.TPrepare
	if w.checkpoint() != nil {
		return
	}
	t, loser := w.txm.Ensure(3, 0), w.txm.Ensure(4, 0)
	if w.ship(t, pg(4), 0, 0, page.Size) != nil || w.ship(loser, pg(5), 0, 0, page.Size) != nil ||
		w.ship(t, pg(4), 1, 700, 50) != nil {
		return
	}
	_ = w.commit(t)
}

// TestE13PreparedBranch enumerates every crash point of a workload in which a
// 2PC branch votes yes and a checkpoint follows while it is in doubt: in every
// mode a branch whose prepare survived comes back in doubt — not a loser —
// with none of its images on its pages, stays so through a second restart, and then both decisions hold across a third (e13Verify,
// invariant 6).
func TestE13PreparedBranch(t *testing.T) {
	base, err := e13Setup(42)
	if err != nil {
		t.Fatal(err)
	}
	e13PreparedBranch(base)
	if base.acked[1] != wal.TCommit || base.acked[2] != wal.TPrepare || base.acked[3] != wal.TCommit {
		t.Fatalf("fault-free run: acked %v", base.acked)
	}
	sample := 0
	if testing.Short() {
		sample = 12
	}
	rep, err := enumerate(42, sample, txWorkload(e13PreparedBranch))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CrashPoints == 0 || rep.Inconsistent != 0 {
		t.Fatalf("%d crash points, %d/%d trials inconsistent; first failures: %v",
			rep.CrashPoints, rep.Inconsistent, rep.Trials, rep.Failures)
	}
	t.Logf("%d crash points x %d modes, %d consistent, mean redo %.1f",
		rep.CrashPoints, len(rep.Modes), rep.Consistent, rep.MeanRedo)
}

// TestE13FreshPages enumerates every crash point of a workload that fills
// never-logged, all-zero pages and takes the fills back — at run time before
// and after a checkpoint, and as a loser at restart — and zeroes committed
// fills, rolled back and committed: in every crash mode every page comes back
// all zero or byte-exact as its last winner left it. The fault-free run must
// really hold the record shapes the enumeration is for.
func TestE13FreshPages(t *testing.T) {
	base, err := e13Setup(42)
	if err != nil {
		t.Fatal(err)
	}
	e13FreshPages(base)
	if err := base.log.Flush(0); err != nil {
		t.Fatal(err)
	}
	// The winner's range of a page the first transaction changed and rolled
	// back is the page's anchor: that rollback logged nothing. The prepared
	// fill's rollback re-anchors its page with an abort record. A checkpoint
	// starts no anchor epoch, so the zeroed pages were anchored once, by their
	// fills; a whole-page image of zeroes is the whole fill zeroed, or the
	// rolled-back fill's page, and both must be in the log. The winner's
	// change of the third page is two runs, one of its written bytes and one
	// of its zeroed ones; the eleventh's is the zeroed range alone.
	var zeroRanges, zeroAnchors, anchored, reanchors int
	var third []wal.Change
	base.log.Iterate(0, func(_ page.LSN, r *wal.Record) error {
		if r.Type == wal.TAbort && len(r.Changes) > 0 {
			reanchors++
		}
		for _, c := range r.Changes {
			switch {
			case c.WholePage() && c.Zero():
				zeroAnchors++
			case c.Zero() && c.Page.Page == base.pages[11]:
				zeroRanges++
			case r.Tx == 1 && c.Page.Page == base.pages[3] && c.WholePage():
				anchored++
			case r.Tx == 5 && c.Page.Page == base.pages[3]:
				third = append(third, c)
			}
		}
		return nil
	})
	split := len(third) == 2 && third[0].Off >= 1000 && int(third[0].Off)+len(third[0].After) <= 1050 &&
		third[1].Zero() && third[1].Off >= 2000 && int(third[1].Off)+len(third[1].After) <= 2500
	if len(base.acked) != 4 || zeroRanges != 1 || zeroAnchors < 2 || anchored != 1 || reanchors != 1 || !split {
		t.Fatalf("fault-free run: acked %v, %d zeroed ranges, %d zero anchors, %d anchors of a page a rollback left unlogged, %d re-anchoring aborts, the third page in %d runs",
			base.acked, zeroRanges, zeroAnchors, anchored, reanchors, len(third))
	}
	sample := 0
	if testing.Short() {
		sample = 16
	}
	rep, err := enumerate(42, sample, txWorkload(e13FreshPages))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CrashPoints == 0 || rep.Inconsistent != 0 {
		t.Fatalf("%d crash points, %d/%d trials inconsistent; first failures: %v",
			rep.CrashPoints, rep.Inconsistent, rep.Trials, rep.Failures)
	}
	t.Logf("%d crash points x %d modes over %d bytes of log, %d consistent",
		rep.CrashPoints, len(rep.Modes), rep.WorkloadLog, rep.Consistent)
}

// e13LongPages is how many pages e13LongTx rewrites: a log buffer's worth of
// whole pages and some.
const e13LongPages = wal.BufSize/page.Size + 64

// e13LongTx is a second workload for the same enumeration: one transaction
// whose changes pass the log buffer several times over — each of its pages
// rewritten whole three times, 13.4 MB of log, 1.6 times the log's buffer
// set — then its commit. Its spills reach the file in the forces of two
// checkpoints it straddles and in between in a round the appender leads
// itself when the buffer set is full (wal.Log), so a crash can fall between
// any two of them, or inside one. Restart must leave all of it or none of
// it. Its pages are allocated, and made durable, before the crash window
// opens.
func e13LongTx(w *txWorld) {
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
	if w.World.area(e13AreaID).Area().Sync() != nil {
		return
	}
	w.setupEvents = w.Area.Events()
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
		w.writesFrom = w.Area.Events()
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
func e13FreshPages(w *txWorld) {
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

// zero has t zero n bytes of pg at off.
func (w *txWorld) zero(t *tx.Tx, pg page.No, off, n int) error {
	return w.change(t, pg, func(img []byte) { clear(img[off : off+n]) })
}
