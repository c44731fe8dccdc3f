package bench

import (
	"sort"
	"testing"
	"time"
)

// TestScrubOverhead runs the E11 commit smoke and the E18 scan smoke with
// the background scrubber sweeping the full catalog every 25ms — far more
// aggressive than any production cadence — and compares against the
// scrubber-free baseline. It checks that both workloads complete with the
// scrubber running under them and logs the overhead; it asserts no ratio,
// because on a loaded 2-CPU box any bound fails at any commit. The <5% claim
// of the E19 acceptance rests on the recorded runs (EXPERIMENTS.md E19: 12
// interleaved pairs at full size).
func TestScrubOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; run without -short")
	}
	median5 := func(f func() float64) float64 {
		s := []float64{f(), f(), f(), f(), f()}
		sort.Float64s(s)
		return s[2]
	}

	e11 := func(scrub time.Duration) func() float64 {
		return func() float64 { return runE11(4, 150, scrub).Seconds }
	}
	base := median5(e11(0))
	scrubbed := median5(e11(25 * time.Millisecond))
	over := (scrubbed - base) / base * 100
	t.Logf("E11 commit smoke: base %.3fs, scrubbed %.3fs, overhead %+.1f%%", base, scrubbed, over)

	e18 := func(scrub time.Duration) func() float64 {
		return func() float64 {
			env := SetupE18(2, 4, 10, 2048)
			defer env.Close()
			if scrub > 0 {
				env.srv.StartScrub(scrub, 0)
			}
			t0 := time.Now()
			for i := 0; i < 12; i++ {
				RunE18Scan(env, "stream", env.Files[0], false)
			}
			return time.Since(t0).Seconds()
		}
	}
	base = median5(e18(0))
	scrubbed = median5(e18(25 * time.Millisecond))
	over = (scrubbed - base) / base * 100
	t.Logf("E18 scan smoke:   base %.3fs, scrubbed %.3fs, overhead %+.1f%%", base, scrubbed, over)
}
