package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readResult reads a result set, or a single result as a set of one.
func readResult(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) == 0 {
		var one result
		if err := json.Unmarshal(b, &one); err != nil || one.Workload == "" {
			return nil, fmt.Errorf("%s: neither a result set nor a result", path)
		}
		set.Runs = []*result{&one}
	}
	return &set, nil
}

// series gathers one workload x metric's values from a set's untraced runs.
func series(set *resultSet, workload, metric string) (vals []float64, failFrac float64) {
	for _, r := range set.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			vals = append(vals, v.Value)
		} else if v, ok := r.Reported[metric]; ok {
			vals = append(vals, v.Value)
		}
		if r.FailFrac > failFrac {
			failFrac = r.FailFrac
		}
	}
	return vals, failFrac
}

// spread is the interquartile range as a share of the median — the A/A noise
// of one set. Fewer than two runs give no spread.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return ratio(q3-q1, medianFloat(vals))
}

// compareFiles prints one row per workload x end-to-end metric the workload
// printed, gated and reported alike: both medians, the ratio with its base,
// the bound, and a verdict. A metric whose own run-to-run spread is wider than
// its bound is unresolved, not unchanged. It fails on any regression and on a
// larger fail_frac.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base A = %s (%d runs), B = %s (%d runs); worse = B worse than A as a share of A's median\n",
		pathA, len(a.Runs), pathB, len(b.Runs))
	fmt.Fprintf(w, "%-12s %-22s %14s %14s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "B/A", "worse", "spread", "bound", "verdict")
	regressed := 0
	for _, wl := range workloadDefs {
		var failA, failB float64
		for _, def := range append(append([]metricDef{}, endToEnd...), reported...) {
			va, fa := series(a, wl.Name, def.Name)
			vb, fb := series(b, wl.Name, def.Name)
			failA, failB = fa, fb
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := medianFloat(va), medianFloat(vb)
			worse := ratio(mb-ma, ma)
			if def.Better == "higher" {
				worse = -worse
			}
			sp := spread(va)
			if s := spread(vb); s > sp {
				sp = s
			}
			verdict := "ok"
			switch {
			case sp > def.Bound && def.Name != "setup_s":
				// The pipeline exempts setup_s, already a median of
				// set-ups, from its spread test; only its medians count.
				verdict = "unresolved"
			case worse > def.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-12s %-22s %14.4f %14.4f %9.4f %+8.4f %8.4f %6.2f  %s\n",
				wl.Name, def.Name, ma, mb, ratio(mb, ma), worse, sp, def.Bound, verdict)
		}
		if failB > failA {
			fmt.Fprintf(w, "%-12s %-22s %14.6f %14.6f %44s\n", wl.Name, "fail_frac", failA, failB, "regressed")
			regressed++
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d regression(s)", regressed)
	}
	return nil
}
