package torture

import (
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"testing"
)

// The full enumerations at seed 42 run once per test binary: the tests that
// check them without -short share these.
var (
	fullE13 = sync.OnceValues(func() (E13Report, error) { return RunE13(42, 0) })
	fullE19 = sync.OnceValues(func() (E19Report, error) { return RunE19(42, 0) })
)

// crashRun returns what pick takes of the full E13 report, or under -short
// the enumeration of sample points of wl.
func crashRun(sample int, wl workload, pick func(E13Report) CrashReport) (CrashReport, error) {
	if testing.Short() {
		return enumerate(42, sample, wl)
	}
	rep, err := fullE13()
	return pick(rep), err
}

// TestReportsMatchGoldens reruns the full E13 and E19 enumerations at seed 42
// and requires them to reproduce the committed BENCH_E13.json and
// BENCH_E19.json byte for byte, as `bess-bench -only E13 -json` writes them:
// a torture report holds no timing, so any difference is a changed outcome,
// point count or workload. Regenerate the files with bess-bench when a change
// means to move them.
func TestReportsMatchGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full enumerations; run without -short")
	}
	e13, err := fullE13()
	if err != nil {
		t.Fatal(err)
	}
	e19, err := fullE19()
	if err != nil {
		t.Fatal(err)
	}
	for file, rep := range map[string]any{"../../BENCH_E13.json": e13, "../../BENCH_E19.json": e19} {
		got, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if got = append(got, '\n'); !bytes.Equal(got, want) {
			t.Errorf("%s differs from the enumeration at seed 42; got:\n%s", file, got)
		}
	}
}
