package bench

import (
	"testing"

	"bess/internal/page"
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
	sample := 0
	if testing.Short() {
		sample = 12
	}
	rep, err := RunE13(42, sample)
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
	t.Logf("E13: %d crash points x %d modes, %d consistent, mean recover %.1fus",
		rep.CrashPoints, len(rep.Modes), rep.Consistent, rep.MeanRecoverUs)
}

// TestE13SeedStability: two runs with the same seed must agree exactly —
// the property that makes a failing crash point replayable.
func TestE13SeedStability(t *testing.T) {
	a, err := RunE13(7, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunE13(7, 6)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalEvents != b.TotalEvents || a.Trials != b.Trials ||
		a.Consistent != b.Consistent || a.Inconsistent != b.Inconsistent {
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
	rep, err := e13Enumerate(42, sample, e13LongTx)
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
func e13PreparedBranch(w *e13World) {
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
	rep, err := e13Enumerate(42, sample, e13PreparedBranch)
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
	rep, err := e13Enumerate(42, sample, e13FreshPages)
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
