// bess-bench runs the experiment harness (E1–E13, E16, E18, E19 from DESIGN.md §4)
// outside `go test` and prints one table per experiment — the rows recorded
// in EXPERIMENTS.md.
//
// Usage:
//
//	bess-bench [-only E5] [-quick] [-json]
//
// With -json, experiments that support machine-readable output additionally
// write BENCH_<name>.json into the current directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bess/internal/bench"
)

func main() {
	only := flag.String("only", "", "run a single experiment (E1..E13, E16, E18, E19)")
	quick := flag.Bool("quick", false, "smaller parameters (CI-sized)")
	jsonOut := flag.Bool("json", false, "also write BENCH_<name>.json result files")
	flag.Parse()

	want := func(id string) bool {
		return *only == "" || strings.EqualFold(*only, id)
	}

	if want("E1") {
		e1(*quick)
	}
	if want("E2") {
		e2(*quick)
	}
	if want("E3") {
		e3(*quick)
	}
	if want("E4") {
		e4(*quick)
	}
	if want("E5") {
		e5(*quick)
	}
	if want("E6") {
		e6(*quick)
	}
	if want("E7") {
		e7()
	}
	if want("E8") {
		e8(*quick)
	}
	if want("E9") {
		e9(*quick)
	}
	if want("E10") {
		e10(*quick)
	}
	if want("E11") {
		e11(*quick, *jsonOut)
	}
	if want("E12") {
		e12(*quick, *jsonOut)
	}
	if want("E13") {
		e13(*quick, *jsonOut)
	}
	if want("E16") {
		e16(*quick, *jsonOut)
	}
	if want("E18") {
		e18(*quick, *jsonOut)
	}
	if want("E19") {
		e19(*quick, *jsonOut)
	}
}

// writeJSON writes v as indented JSON to BENCH_<name>.json.
func writeJSON(name string, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bess-bench: marshal %s: %v\n", name, err)
		return
	}
	path := "BENCH_" + name + ".json"
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bess-bench: write %s: %v\n", path, err)
		return
	}
	fmt.Printf("wrote %s\n", path)
}

func header(id, title string) {
	fmt.Printf("\n== %s: %s ==\n", id, title)
}

// timeIt returns ns/op for n runs of f.
func timeIt(n int, f func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func e1(quick bool) {
	header("E1", "pointer dereference — swizzled refs vs OIDs (§2.1, §5)")
	n := 50
	if quick {
		n = 10
	}
	env := bench.SetupE1(1024)
	defer env.Close()
	hops := 64
	swz := timeIt(n, func() { env.ChaseBeSS(hops) }) / float64(hops)
	oidp := timeIt(n, func() { env.ChaseGlobal(hops) }) / float64(hops)
	raw := timeIt(n, func() { env.ChaseOID(hops) }) / float64(hops)
	fmt.Printf("%-24s %10.0f ns/deref\n", "bess swizzled ref", swz)
	fmt.Printf("%-24s %10.0f ns/deref   (%.1fx slower)\n", "eos-style oid", oidp, oidp/swz)
	fmt.Printf("%-24s %10.0f ns/deref   (no storage manager: floor)\n", "raw hashmap", raw)
}

func e2(quick bool) {
	header("E2", "operation modes — in-place vs copy-on-access (§4.1)")
	reps := 200
	if quick {
		reps = 20
	}
	env := bench.SetupE2(64)
	defer env.Close()
	fmt.Printf("%-6s %18s %18s %8s\n", "k", "shared-mem ns/tx", "copy ns/tx", "ratio")
	for _, k := range []int{1, 4, 16, 64} {
		s := timeIt(reps, func() { env.ShortTxShared(k) })
		c := timeIt(reps, func() { env.ShortTxCopy(k) })
		fmt.Printf("%-6d %18.0f %18.0f %8.1fx\n", k, s, c, c/s)
	}
}

func e3(quick bool) {
	header("E3", "address-space reservation — lazy waves vs eager (§2.1)")
	segs := 200
	if quick {
		segs = 50
	}
	fmt.Printf("%-10s %12s %12s %12s %10s\n", "fraction", "lazy-resv", "lazy-mapped", "eager-resv", "fetches")
	for _, f := range []float64{0.05, 0.25, 0.5, 1.0} {
		r := bench.RunE3(segs, f)
		fmt.Printf("%-10.2f %12d %12d %12d %10d\n",
			f, r.LazyReserved, r.LazyMapped, r.EagerReserved, r.SlottedFetches)
	}
}

func e4(quick bool) {
	header("E4", "replacement — two-level clock vs LRU (§4.2)")
	accesses := 20000
	if quick {
		accesses = 4000
	}
	fmt.Printf("%-8s %-8s %12s %12s\n", "slots", "procs", "clock-hit%", "lru-hit%")
	for _, procs := range []int{1, 4} {
		for _, slots := range []int{32, 64, 128} {
			r := bench.RunE4(256, slots, procs, accesses, 42)
			fmt.Printf("%-8d %-8d %12.1f %12.1f\n", slots, procs, r.ClockHitRatio*100, r.LRUHitRatio*100)
		}
	}
}

func e5(quick bool) {
	header("E5", "large-object byte ranges — tree vs whole rewrite (§2.1, [3,4])")
	sizes := []int64{1 << 20, 8 << 20, 32 << 20}
	if quick {
		sizes = []int64{1 << 20, 4 << 20}
	}
	fmt.Printf("%-10s %14s %16s %8s\n", "size", "tree writes", "rewrite writes", "ratio")
	for _, sz := range sizes {
		r := bench.RunE5(sz, 4096)
		fmt.Printf("%-10s %14d %16d %8.0fx\n",
			fmt.Sprintf("%dMB", sz>>20), r.TreeWrites, r.RewriteIOs,
			float64(r.RewriteIOs)/float64(r.TreeWrites))
	}
}

func e6(quick bool) {
	header("E6", "inter-transaction caching + callback locking (§3)")
	txns := 20
	if quick {
		txns = 5
	}
	fmt.Printf("%-8s %16s %16s %8s\n", "segs/tx", "msgs/tx cached", "msgs/tx nocache", "saving")
	for _, k := range []int{1, 8, 32} {
		r := bench.RunE6(txns, k)
		fmt.Printf("%-8d %16.1f %16.1f %7.1fx\n",
			k, r.MsgsPerTxCached, r.MsgsPerTxNoCache, r.MsgsPerTxNoCache/r.MsgsPerTxCached)
	}
}

func e7() {
	header("E7", "update detection — protection faults vs software dirty calls (§2.2–2.3)")
	fmt.Printf("%-14s %10s %12s %14s\n", "reads/writes", "hw-faults", "hw-protects", "sw-lock-reqs")
	for _, w := range []int{0, 8, 64} {
		r := bench.RunE7(64, w)
		fmt.Printf("%2d / %-9d %10d %12d %14d\n", 64, w, r.HWFaults, r.HWProtectCalls, r.SWLockRequests)
	}
}

func e8(quick bool) {
	header("E8", "ARIES restart vs log volume (§3, [21])")
	sets := []int{50, 500}
	if quick {
		sets = []int{50}
	}
	fmt.Printf("%-8s %-6s %10s %10s %8s %8s\n", "txns", "ckpt", "log B", "analyzed", "redo", "losers")
	for _, txns := range sets {
		for _, ck := range []bool{false, true} {
			r := bench.RunE8(txns, 10, ck)
			fmt.Printf("%-8d %-6v %10d %10d %8d %8d\n", txns, ck, r.LogBytes, r.RecordsAnalyzed, r.RedoApplied, r.Losers)
		}
	}
}

func e9(quick bool) {
	header("E9", "multifile parallel scan (§2)")
	objs := 2000
	if quick {
		objs = 400
	}
	env := bench.SetupE9(objs, 4)
	defer env.Close()
	base := 0.0
	fmt.Printf("%-8s %14s %10s\n", "workers", "ns/scan", "speedup")
	for _, w := range []int{1, 2, 4, 8} {
		ns := timeIt(3, func() {
			if n := env.Scan(w); n != env.N {
				panic("scan incomplete")
			}
		})
		if w == 1 {
			base = ns
		}
		fmt.Printf("%-8d %14.0f %9.1fx\n", w, ns, base/ns)
	}
}

func e10(quick bool) {
	header("E10", "binary buddy allocation (§2, [3])")
	ops := 50000
	if quick {
		ops = 5000
	}
	r := bench.RunE10(ops, 16, 7)
	fmt.Printf("ops=%d utilization=%.1f%% splits/op=%.3f coalesces/op=%.3f failures=%d\n",
		r.Ops, r.Utilization*100, float64(r.Splits)/float64(r.Ops),
		float64(r.Coalesces)/float64(r.Ops), r.Failures)
}

func e11(quick bool, jsonOut bool) {
	header("E11", "commit throughput vs client concurrency — group commit (§3)")
	commitsPer := 64
	if quick {
		commitsPer = 16
	}
	fmt.Printf("%-8s %12s %12s %10s %14s %10s\n",
		"clients", "commits", "commits/s", "syncs", "syncs/commit", "grouped")
	var results []bench.E11Result
	base := 0.0
	for _, clients := range []int{1, 2, 4, 8, 16} {
		r := bench.RunE11(clients, commitsPer)
		results = append(results, r)
		if clients == 1 {
			base = r.CommitsPerSec
		}
		fmt.Printf("%-8d %12d %12.0f %10d %14.3f %10d\n",
			r.Clients, r.Commits, r.CommitsPerSec, r.WALSyncs, r.SyncsPerCommit, r.GroupedCommits)
	}
	if base > 0 {
		last := results[len(results)-1]
		fmt.Printf("scaling: %.1fx commits/s at %d clients vs 1\n", last.CommitsPerSec/base, last.Clients)
	}
	if jsonOut {
		writeJSON("E11", results)
	}
}

func e12(quick bool, jsonOut bool) {
	header("E12", "wire protocol — binary framed + coalesced vs double-gob (§3)")
	callsPer, fetches, payload := 2000, 200, 512<<10
	if quick {
		callsPer, fetches, payload = 200, 20, 128<<10
	}
	var report bench.E12Report
	fmt.Printf("small concurrent calls (one shared connection):\n")
	for _, mode := range []string{"gob", "binary"} {
		for _, conc := range []int{1, 2, 4, 8, 16} {
			r := bench.RunE12(mode, conc, callsPer)
			report.SmallCalls = append(report.SmallCalls, r)
			fmt.Printf("  %s\n", bench.FormatE12(r))
		}
	}
	fmt.Printf("segment-fetch bandwidth (sequential round trips):\n")
	for _, mode := range []string{"gob", "binary"} {
		r := bench.RunE12Fetch(mode, fetches, payload)
		report.SegmentFetch = append(report.SegmentFetch, r)
		fmt.Printf("  %s\n", bench.FormatE12Fetch(r))
	}
	if jsonOut {
		writeJSON("E12", report)
	}
}

func e16(quick bool, jsonOut bool) {
	header("E16", "multiversion snapshot reads — read throughput vs writer load (§7)")
	segs, objs, blob := 64, 16, 256
	if quick {
		segs, objs, blob = 16, 8, 128
	}
	env := bench.SetupE16(segs, objs, blob)
	defer env.Close()
	rep := bench.RunE16(env, quick)
	fmt.Printf("dataset: %d segments x %d objects, %d-byte blobs\n", rep.Segments, rep.ObjsPerSeg, rep.BlobBytes)
	fmt.Printf("writer sweep (4 readers, zipf):\n")
	for _, r := range rep.WriterSweep {
		fmt.Printf("  %s\n", bench.FormatE16Row(r))
	}
	fmt.Printf("read retention at max writers: snap %.2f, 2pl-base %.2f\n",
		rep.SnapReadRetention, rep.BaseReadRetention)
	fmt.Printf("mix sweep (4 workers):\n")
	for _, r := range rep.MixSweep {
		fmt.Printf("  %s\n", bench.FormatE16Row(r))
	}
	if jsonOut {
		writeJSON("E16", rep)
	}
}

func e18(quick bool, jsonOut bool) {
	header("E18", "streaming scan — push pipeline vs per-segment fetch (§10)")
	files, segs, objs, blob := 2, 48, 124, 4096
	if quick {
		files, segs, objs, blob = 2, 8, 40, 2048
	}
	env := bench.SetupE18(files, segs, objs, blob)
	defer env.Close()
	rep := bench.RunE18(env)
	fmt.Printf("segment image ~%d KB, emulated net delay %.0f us/op\n", rep.SegmentBytes>>10, rep.NetDelayUs)
	fmt.Printf("cold full-file scan:\n")
	for _, r := range []bench.E18Scan{rep.PullLoopback, rep.StreamLoopback, rep.Pull, rep.Stream} {
		fmt.Printf("  %s\n", bench.FormatE18Scan(r))
	}
	fmt.Printf("speedup: %.2fx lan, %.2fx loopback\n", rep.Speedup, rep.SpeedupLoopback)
	fmt.Printf("parallel: %d files %8.1f MB/s aggregate\n", rep.Parallel.Files, rep.Parallel.MBPerSec)
	fmt.Printf("mixed scan/update (updater on second file):\n")
	for _, m := range []bench.E18Mixed{rep.MixedPull, rep.MixedStream} {
		fmt.Printf("  %s  updates=%d (%.0f/s) %s\n", bench.FormatE18Scan(m.Scan),
			m.UpdateCommits, m.UpdatesPerSec, bench.FormatLatency(m.UpdateLatency))
	}
	if jsonOut {
		writeJSON("E18", rep)
	}
}

func e13(quick bool, jsonOut bool) {
	header("E13", "crash-point enumeration — torn-write torture of recovery (§5)")
	sample := 0 // full enumeration
	if quick {
		sample = 12
	}
	rep, err := bench.RunE13(42, sample)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bess-bench: E13: %v\n", err)
		os.Exit(1)
	}
	scope := "full enumeration"
	if rep.Sampled {
		scope = "sampled"
	}
	fmt.Printf("crash points %d (%s, events %s), crash modes %d, trials %d\n",
		rep.CrashPoints, scope, rep.WorkloadEvents, len(rep.Modes), rep.Trials)
	for _, m := range rep.Modes {
		fmt.Printf("  %-8s %4d trials   %4d consistent   %d inconsistent\n",
			m.Mode, m.Trials, m.Consistent, m.Inconsistent)
	}
	fmt.Printf("recovery: mean %.0f us, max %.0f us; mean redo %.1f per restart\n",
		rep.MeanRecoverUs, rep.MaxRecoverUs, rep.MeanRedo)
	if rep.Inconsistent > 0 {
		fmt.Printf("FAILURES:\n")
		for _, f := range rep.Failures {
			fmt.Printf("  %s\n", f)
		}
	}
	if jsonOut {
		writeJSON("E13", rep)
	}
}

func e19(quick bool, jsonOut bool) {
	header("E19", "corruption-point enumeration — bit-rot torture of detect/repair (§5)")
	sample := 0 // full enumeration
	if quick {
		sample = 12
	}
	rep, err := bench.RunE19(42, sample)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bess-bench: E19: %v\n", err)
		os.Exit(1)
	}
	scope := "full enumeration"
	if rep.Sampled {
		scope = "sampled"
	}
	fmt.Printf("corruption points %d (%s): %d detected, %d repaired, %d quarantined, %d benign, %d silent\n",
		rep.Points, scope, rep.Detected, rep.Repaired, rep.Quarantined, rep.Benign, rep.Silent)
	for _, c := range rep.Categories {
		fmt.Printf("  %-10s %4d points   %4d repaired   %3d quarantined   %3d benign   %d silent\n",
			c.Category, c.Points, c.Repaired, c.Quarantined, c.Benign, c.Silent)
	}
	if rep.Sampled {
		// The sample overweights the (unrepairable-by-design) wal-body
		// category, so the >= 0.85 acceptance only applies to the full run.
		fmt.Printf("repaired fraction %.3f of non-benign (sampled; acceptance runs on the full enumeration)\n", rep.RepairedFrac)
	} else {
		fmt.Printf("repaired fraction %.3f of non-benign (acceptance: >= 0.85, zero silent)\n", rep.RepairedFrac)
	}
	if len(rep.Failures) > 0 {
		fmt.Printf("FAILURES:\n")
		for _, f := range rep.Failures {
			fmt.Printf("  %s\n", f)
		}
	}
	if jsonOut {
		writeJSON("E19", rep)
	}
}
