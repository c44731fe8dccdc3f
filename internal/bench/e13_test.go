package bench

import (
	"testing"

	"bess/internal/page"
	"bess/internal/wal"
)

// TestE13CrashTorture enumerates every crash point of the E13 workload in
// every crash mode and requires 100% consistent recovery. Under -short
// a bounded evenly-spaced sample runs instead (the CI crash-torture job).
func TestE13CrashTorture(t *testing.T) {
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
// reaches the log in several sync rounds before it commits: at each of them,
// in every crash mode, restart finds all of the transaction or none.
func TestE13LongTransaction(t *testing.T) {
	base, err := e13Setup(42)
	if err != nil {
		t.Fatal(err)
	}
	e13LongTx(base)
	if rounds := base.log.Stats().Syncs; base.acked[1] != wal.TCommit || rounds < 4 {
		t.Fatalf("the transaction (committed=%v) reached the log in %d rounds, want its records in 3 or more and the commit after", base.acked[1], rounds)
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
	// The winner's range of a page the first transaction anchored and rolled
	// back must be an anchor again: the rollback forgot the page's. A checkpoint
	// starts no anchor epoch, so the zeroed pages were anchored once, by their
	// fills; a whole-page image of zeroes is the whole fill zeroed, and at least
	// one must be in the log.
	var zeroRanges, zeroAnchors, reanchored int
	base.log.Iterate(0, func(_ page.LSN, r *wal.Record) error {
		fp := r.Footprint()
		switch {
		case r.Type != wal.TRedo:
		case r.WholePage() && fp.ZeroAfter == page.Size:
			zeroAnchors++
		case fp.ZeroAfter > 0:
			zeroRanges++
		case r.Tx == 1 && r.Page.Page == base.pages[3] && r.WholePage():
			reanchored++
		}
		return nil
	})
	if len(base.acked) != 3 || zeroRanges < 2 || zeroAnchors < 1 || reanchored != 1 {
		t.Fatalf("fault-free run: acked %v, %d zeroed ranges, %d zero anchors, %d anchors of a page a rollback forgot",
			base.acked, zeroRanges, zeroAnchors, reanchored)
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
