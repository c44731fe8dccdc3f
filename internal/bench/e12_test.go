package bench

import "testing"

// TestE12Shape runs both arms of the wire-protocol comparison and holds the
// binary one to its deterministic shape. The throughput ratios are logged, not
// asserted: on a loaded 2-CPU box they fail at any commit. The binary > gob
// claim rests on the recorded runs (EXPERIMENTS.md E12, BENCH_E12.json).
func TestE12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("wire benchmark")
	}
	const conc, per = 8, 150
	gob := RunE12("gob", conc, per)
	bin := RunE12("binary", conc, per)
	t.Logf("small calls: %s", FormatE12(gob))
	t.Logf("small calls: %s", FormatE12(bin))
	t.Logf("small calls: binary/gob = %.2f", bin.SmallCallsPerSec/gob.SmallCallsPerSec)
	// Structural: every call put exactly one frame on the wire. Whether TCP
	// flushes batch here depends on the host (a single-CPU machine never
	// overlaps a non-blocking loopback write with another sender), so the
	// deterministic coalescing assertion lives in internal/rpc's
	// TestConcurrentRawCalls over net.Pipe; the counters are logged above.
	if bin.WireFlushes <= 0 || bin.WireFlushes > int64(bin.Calls) {
		t.Fatalf("flushes=%d over %d calls", bin.WireFlushes, bin.Calls)
	}

	gf := RunE12Fetch("gob", 20, 256<<10)
	bf := RunE12Fetch("binary", 20, 256<<10)
	t.Logf("fetch: %s", FormatE12Fetch(gf))
	t.Logf("fetch: %s", FormatE12Fetch(bf))
	t.Logf("fetch: binary/gob = %.2f", bf.MBPerSec/gf.MBPerSec)
}
