package bench

import "testing"

// TestE19Corruption is the acceptance gate for the detect/repair pipeline:
// full enumeration normally, a sampled sweep under -short. Either way the
// hard invariants hold — zero silent wrong reads, every non-benign point
// detected, every point of a category with a repair path (a checkpoint falls
// back, a frame is retried) repaired — and (full run) at least 100 points
// with ≥85% repaired. The pooled share moves with the length of the records
// rotted: the checkpoint category is one point per byte of a checkpoint
// record, 73 under log format 4 (91.2% repaired) and 18 under format 5
// (87.9%), with the same quarantined points.
func TestE19Corruption(t *testing.T) {
	sample := 0
	if testing.Short() {
		sample = 6
	}
	rep, err := RunE19(42, sample)
	if err != nil {
		t.Fatalf("RunE19: %v", err)
	}
	t.Logf("E19: %d points — %d detected, %d repaired, %d quarantined, %d benign, %d silent (repaired frac %.3f)",
		rep.Points, rep.Detected, rep.Repaired, rep.Quarantined, rep.Benign, rep.Silent, rep.RepairedFrac)
	for _, f := range rep.Failures {
		t.Errorf("E19 failure: %s", f)
	}
	if rep.Silent != 0 {
		t.Fatalf("%d silent wrong reads", rep.Silent)
	}
	if rep.Detected != rep.Repaired+rep.Quarantined {
		t.Fatalf("detected %d != repaired %d + quarantined %d", rep.Detected, rep.Repaired, rep.Quarantined)
	}
	if rep.Points != rep.Detected+rep.Benign {
		t.Fatalf("points %d != detected %d + benign %d", rep.Points, rep.Detected, rep.Benign)
	}
	for _, c := range rep.Categories {
		if (c.Category == "checkpoint" || c.Category == "wire") && c.Repaired != c.Points {
			t.Fatalf("%s: %d of %d points repaired", c.Category, c.Repaired, c.Points)
		}
	}
	if !rep.Sampled {
		if rep.Points < 100 {
			t.Fatalf("only %d corruption points enumerated, want >= 100", rep.Points)
		}
		if rep.RepairedFrac < 0.85 {
			t.Fatalf("repaired fraction %.3f < 0.85", rep.RepairedFrac)
		}
	}
}
