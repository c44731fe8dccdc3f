package bench

import "testing"

// TestE13CrashTorture enumerates every crash point of the E13 workload in
// all three tear modes and requires 100% consistent recovery. Under -short
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
// in all three tear modes, restart finds all of the transaction or none.
func TestE13LongTransaction(t *testing.T) {
	base, err := e13Setup(42)
	if err != nil {
		t.Fatal(err)
	}
	e13LongTx(base)
	if rounds := base.log.Stats().Syncs; !base.acked[1] || rounds < 4 {
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
