package bench

import "testing"

// These tests pin the *shapes* the experiments must produce — the
// qualitative claims of the paper — independent of machine speed.

func TestE1ShapesHold(t *testing.T) {
	env := SetupE1(128)
	defer env.Close()
	// All three chase paths terminate and agree on ring membership.
	env.ChaseBeSS(200)
	env.ChaseOID(200)
	env.ChaseGlobal(50)
}

func TestE2BothModesWork(t *testing.T) {
	env := SetupE2(16)
	defer env.Close()
	env.ShortTxShared(8)
	env.ShortTxCopy(8)
}

func TestE3LazyBeatsEager(t *testing.T) {
	r := RunE3(40, 0.25)
	if r.LazyReserved >= r.EagerReserved {
		t.Fatalf("lazy %d >= eager %d at 25%% traversal", r.LazyReserved, r.EagerReserved)
	}
	full := RunE3(40, 1.0)
	if full.LazyReserved != full.EagerReserved {
		t.Fatalf("full traversal should converge: %d vs %d", full.LazyReserved, full.EagerReserved)
	}
	// Laziness is monotone in the traversed fraction.
	if r.LazyReserved <= RunE3(40, 0.05).LazyReserved {
		t.Fatal("reservation not monotone in touched fraction")
	}
}

func TestE4ClockTracksLRU(t *testing.T) {
	r := RunE4(128, 64, 4, 5000, 1)
	if r.ClockHitRatio <= 0.2 {
		t.Fatalf("clock hit ratio %.2f implausibly low", r.ClockHitRatio)
	}
	if r.ClockHitRatio > r.LRUHitRatio+0.05 {
		t.Fatalf("clock %.2f beats the LRU oracle %.2f", r.ClockHitRatio, r.LRUHitRatio)
	}
	// Bigger cache, better ratio.
	big := RunE4(128, 96, 4, 5000, 1)
	if big.ClockHitRatio < r.ClockHitRatio {
		t.Fatalf("hit ratio fell with a bigger cache: %.2f -> %.2f", r.ClockHitRatio, big.ClockHitRatio)
	}
}

func TestE5TreeBeatsRewrite(t *testing.T) {
	small := RunE5(1<<20, 4096)
	big := RunE5(4<<20, 4096)
	if small.TreeWrites >= small.RewriteIOs {
		t.Fatalf("tree writes %d >= rewrite %d", small.TreeWrites, small.RewriteIOs)
	}
	// The gap grows with object size while tree cost stays flat.
	if big.TreeWrites > small.TreeWrites+2 {
		t.Fatalf("tree edit cost scaled with object size: %d vs %d", big.TreeWrites, small.TreeWrites)
	}
	if big.RewriteIOs <= small.RewriteIOs {
		t.Fatal("rewrite cost did not scale with object size")
	}
}

func TestE6CachingSavesMessages(t *testing.T) {
	r := RunE6(8, 6)
	if r.MsgsPerTxCached >= r.MsgsPerTxNoCache {
		t.Fatalf("caching did not reduce messages: %.1f vs %.1f",
			r.MsgsPerTxCached, r.MsgsPerTxNoCache)
	}
}

func TestE7HardwareBeatsConservativeSoftware(t *testing.T) {
	r := RunE7(64, 8)
	if r.HWProtectCalls >= r.SWLockRequests {
		t.Fatalf("hw protects %d >= sw lock requests %d", r.HWProtectCalls, r.SWLockRequests)
	}
	if r.HWFaults == 0 {
		t.Fatal("no faults recorded — detection not exercised")
	}
}

func TestE8CheckpointCutsRedo(t *testing.T) {
	no := RunE8(40, 8, false)
	yes := RunE8(40, 8, true)
	if yes.RedoApplied >= no.RedoApplied {
		t.Fatalf("checkpoint did not reduce redo: %d vs %d", yes.RedoApplied, no.RedoApplied)
	}
	if no.Losers != yes.Losers {
		t.Fatalf("losers differ: %d vs %d", no.Losers, yes.Losers)
	}
}

func TestE9ScanComplete(t *testing.T) {
	env := SetupE9(200, 3)
	defer env.Close()
	for _, w := range []int{1, 4} {
		if n := env.Scan(w); n != env.N {
			t.Fatalf("workers=%d saw %d of %d", w, n, env.N)
		}
	}
}

func TestE10HighUtilization(t *testing.T) {
	r := RunE10(5000, 14, 3)
	if r.Utilization < 0.5 {
		t.Fatalf("utilization %.2f", r.Utilization)
	}
}
