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
// committed page and a fresh page whole — as the server logs a prepare's
// images, redo-only, for its commit to write — and changes a range of a
// second committed page, which it steals, and votes yes; a checkpoint is taken
// while it is in doubt, and other transactions keep running — one commits,
// one is left in flight with its page stolen. No decision reaches the branch
// before the crash.
func e13PreparedBranch(w *e13World) {
	pg := func(i uint64) page.No { return w.pages[i] }
	t := w.txm.Ensure(1, 0)
	if w.update(t, pg(1), 0, 0, page.Size) != nil || w.update(t, pg(2), 0, 0, page.Size) != nil || t.Commit() != nil {
		return
	}
	w.acked[1] = wal.TCommit
	b := w.txm.Ensure(2, 0)
	if w.ship(b, pg(1), 1, 300, 200) != nil || w.update(b, pg(2), 1, 1000, 100) != nil ||
		w.ship(b, pg(3), 0, 0, page.Size) != nil || w.steal(b, pg(2)) != nil || b.Prepare() != nil {
		return
	}
	w.acked[2] = wal.TPrepare
	if w.flushAndCheckpoint() != nil {
		return
	}
	t, loser := w.txm.Ensure(3, 0), w.txm.Ensure(4, 0)
	if w.update(t, pg(4), 0, 0, page.Size) != nil || w.update(loser, pg(5), 0, 0, page.Size) != nil ||
		w.update(t, pg(4), 1, 700, 50) != nil || w.steal(loser, pg(5)) != nil || t.Commit() != nil {
		return
	}
	w.acked[3] = wal.TCommit
}

// TestE13PreparedBranch enumerates every crash point of a workload in which a
// 2PC branch votes yes and a checkpoint follows while it is in doubt: in every
// mode a branch whose prepare survived comes back in doubt — not a loser —
// with what it stole on its pages and what it shipped not, stays so through a
// second restart, and then both decisions hold across a third (e13Verify,
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
	t.Logf("%d crash points x %d modes, %d consistent, mean redo %.1f, mean undo %.1f",
		rep.CrashPoints, len(rep.Modes), rep.Consistent, rep.MeanRedo, rep.MeanUndo)
}

// TestE13FreshPages enumerates every crash point of a workload that fills
// never-logged, all-zero pages and takes the fills back — at run time before
// and after a checkpoint, and at restart — and rolls back range updates of a
// committed fill: in every crash mode every page comes back all zero or
// byte-exact as its last winner left it. The fault-free run must really hold
// the record shapes the enumeration is for.
func TestE13FreshPages(t *testing.T) {
	base, err := e13Setup(42)
	if err != nil {
		t.Fatal(err)
	}
	e13FreshPages(base)
	if err := base.log.Flush(0); err != nil {
		t.Fatal(err)
	}
	var zeroBefore, zeroAfterCLR, zeroAnchorCLR, rangeAnchors int
	base.log.Iterate(0, func(_ page.LSN, r *wal.Record) error {
		fp := r.Footprint()
		switch {
		case r.Type == wal.TUpdate && fp.ZeroBefore > 0:
			zeroBefore++
			if r.WholePage() && fp.ZeroBefore < page.Size {
				rangeAnchors++
			}
		case r.Type == wal.TCLR && fp.ZeroAfter > 0 && r.WholePage():
			zeroAnchorCLR++
		case r.Type == wal.TCLR && fp.ZeroAfter > 0:
			zeroAfterCLR++
		}
		return nil
	})
	if len(base.acked) != 2 || zeroBefore < 8 || rangeAnchors == 0 || zeroAfterCLR == 0 || zeroAnchorCLR == 0 {
		t.Fatalf("fault-free run: acked %v, %d zero-before updates (%d of them anchors of a sub-page fill), %d range and %d anchor zero-after CLRs",
			base.acked, zeroBefore, rangeAnchors, zeroAfterCLR, zeroAnchorCLR)
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
	t.Logf("%d crash points x %d modes over %d bytes of log, %d consistent, mean undo %.1f",
		rep.CrashPoints, len(rep.Modes), rep.WorkloadLog, rep.Consistent, rep.MeanUndo)
}
