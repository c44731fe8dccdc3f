// Package bess holds the repository-level benchmark suite: one benchmark
// (or family) per experiment E1–E11 from DESIGN.md §4, each reproducing a
// figure or performance claim of the paper. cmd/bess-bench runs the same
// harness outside `go test` and prints the tables recorded in
// EXPERIMENTS.md.
package bess

import (
	"fmt"
	"testing"

	"bess/internal/bench"
)

// --- E1: dereference cost (paper §2.1/§5: VM pointers vs "slow OIDs") ---

// The comparison that reproduces the paper's claim is swizzled-ref vs
// eos-style-oid: both run through the full storage-manager machinery, and
// the OID path pays resolution + uniquifier validation on every hop. The
// raw-hashmap row is only a lower bound with no storage manager at all
// (no protection checks, no transactions), included for calibration.
func BenchmarkE1Dereference(b *testing.B) {
	env := bench.SetupE1(1024)
	defer env.Close()
	b.Run("bess-swizzled-ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env.ChaseBeSS(64)
		}
	})
	b.Run("eos-style-oid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env.ChaseGlobal(64)
		}
	})
	b.Run("raw-hashmap-floor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env.ChaseOID(64)
		}
	})
}

// --- E2: operation modes (paper §4.1: in-place wins short transactions) ---

func BenchmarkE2OperationModes(b *testing.B) {
	env := bench.SetupE2(64)
	defer env.Close()
	for _, k := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("shared-memory/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env.ShortTxShared(k)
			}
		})
		b.Run(fmt.Sprintf("copy-on-access/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env.ShortTxCopy(k)
			}
		})
	}
}

// --- E3: reservation greediness (paper §2.1: "less greedy" than [19,30,34]) ---

func BenchmarkE3Reservation(b *testing.B) {
	for _, frac := range []float64{0.1, 0.5, 1.0} {
		b.Run(fmt.Sprintf("fraction=%v", frac), func(b *testing.B) {
			var r bench.E3Result
			for i := 0; i < b.N; i++ {
				r = bench.RunE3(200, frac)
			}
			b.ReportMetric(float64(r.LazyReserved), "lazy-frames")
			b.ReportMetric(float64(r.EagerReserved), "eager-frames")
			b.ReportMetric(float64(r.LazyMapped), "mapped-frames")
		})
	}
}

// --- E4: two-level clock vs LRU (paper §4.2, Figure 4) ---

func BenchmarkE4Clock(b *testing.B) {
	for _, slots := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			var r bench.E4Result
			for i := 0; i < b.N; i++ {
				r = bench.RunE4(256, slots, 4, 20000, 42)
			}
			b.ReportMetric(r.ClockHitRatio*100, "clock-hit%")
			b.ReportMetric(r.LRUHitRatio*100, "lru-hit%")
		})
	}
}

// --- E5: large-object byte ranges vs whole rewrite (paper §2.1, [3,4]) ---

func BenchmarkE5LargeObject(b *testing.B) {
	for _, mb := range []int64{1, 8, 32} {
		b.Run(fmt.Sprintf("size=%dMB", mb), func(b *testing.B) {
			var r bench.E5Result
			for i := 0; i < b.N; i++ {
				r = bench.RunE5(mb<<20, 4096)
			}
			b.ReportMetric(float64(r.TreeWrites), "tree-seg-writes")
			b.ReportMetric(float64(r.RewriteIOs), "rewrite-seg-writes")
		})
	}
}

// E5 ablation: the user-provided size hint trades index size against edit
// cost (paper §2.1: "hints about the potential size of the object").
func BenchmarkE5AblationSegmentHint(b *testing.B) {
	for _, hint := range []int64{1 << 20, 16 << 20, 256 << 20} {
		b.Run(fmt.Sprintf("hint=%dMB", hint>>20), func(b *testing.B) {
			var segs int
			var writes int64
			for i := 0; i < b.N; i++ {
				segs, writes = bench.RunE5Ablation(8<<20, hint, 4096)
			}
			b.ReportMetric(float64(segs), "segments")
			b.ReportMetric(float64(writes), "edit-seg-writes")
		})
	}
}

// --- E6: inter-transaction caching + callbacks (paper §3) ---

func BenchmarkE6Callback(b *testing.B) {
	for _, k := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("segs=%d", k), func(b *testing.B) {
			var r bench.E6Result
			for i := 0; i < b.N; i++ {
				r = bench.RunE6(20, k)
			}
			b.ReportMetric(r.MsgsPerTxCached, "msgs/tx-cached")
			b.ReportMetric(r.MsgsPerTxNoCache, "msgs/tx-nocache")
		})
	}
}

// --- E7: update detection — protection faults vs software dirty calls (paper §2.2–§2.3) ---

func BenchmarkE7Protection(b *testing.B) {
	for _, w := range []int{0, 8, 64} {
		b.Run(fmt.Sprintf("writes=%d", w), func(b *testing.B) {
			var r bench.E7Result
			for i := 0; i < b.N; i++ {
				r = bench.RunE7(64, w)
			}
			b.ReportMetric(float64(r.HWFaults), "hw-faults")
			b.ReportMetric(float64(r.HWProtectCalls), "hw-protects")
			b.ReportMetric(float64(r.SWLockRequests), "sw-lockreqs")
		})
	}
}

// --- E8: ARIES restart vs log volume (paper §3, [21]) ---

func BenchmarkE8Recovery(b *testing.B) {
	for _, cfg := range []struct {
		txns int
		ckpt bool
	}{{50, false}, {50, true}, {500, false}, {500, true}} {
		b.Run(fmt.Sprintf("txns=%d/ckpt=%v", cfg.txns, cfg.ckpt), func(b *testing.B) {
			var r bench.E8Result
			for i := 0; i < b.N; i++ {
				r = bench.RunE8(cfg.txns, 10, cfg.ckpt)
			}
			b.ReportMetric(float64(r.RedoApplied), "redo")
			b.ReportMetric(float64(r.RecordsAnalyzed), "analyzed")
		})
	}
}

// --- E9: multifile parallel scan (paper §2) ---

func BenchmarkE9MultifileScan(b *testing.B) {
	env := bench.SetupE9(2000, 4)
	defer env.Close()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if n := env.Scan(w); n != env.N {
					b.Fatalf("scan saw %d of %d", n, env.N)
				}
			}
		})
	}
}

// --- E10: binary buddy allocation (paper §2, [3]) ---

func BenchmarkE10Buddy(b *testing.B) {
	var r bench.E10Result
	for i := 0; i < b.N; i++ {
		r = bench.RunE10(10000, 16, 7)
	}
	b.ReportMetric(r.Utilization*100, "util%")
	b.ReportMetric(float64(r.Splits)/float64(r.Ops), "splits/op")
	b.ReportMetric(float64(r.Coalesces)/float64(r.Ops), "coalesces/op")
}

// --- E11: commit throughput vs client concurrency (group commit, paper §3) ---

// With a real fsync per WAL force, a single client is bounded by sync
// latency; group commit lets concurrent committers share fsync rounds, so
// commits/s scales with clients while syncs/commit falls below 1.
func BenchmarkE11GroupCommit(b *testing.B) {
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			var r bench.E11Result
			for i := 0; i < b.N; i++ {
				r = bench.RunE11(clients, 32)
			}
			b.ReportMetric(r.CommitsPerSec, "commits/s")
			b.ReportMetric(r.SyncsPerCommit, "syncs/commit")
		})
	}
}
