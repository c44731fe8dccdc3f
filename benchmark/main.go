// Command benchmark is the BeSS end-to-end benchmark: four fixed-duration
// workloads against a file-backed server on loopback TCP, their end-to-end
// metrics, and an outside-in per-layer time budget. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	workload := flag.String("workload", "all", "commit, fetch_cold, scan_stream, mixed, or all (runs the four in turn, each in its own process)")
	seed := flag.Int64("seed", defaultSeed, "seed of every key and payload stream")
	seconds := flag.Float64("seconds", defaultSeconds, "measured seconds per run (run_seconds in BENCHMARK.json; a constant of the benchmark)")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and span files instead of end-to-end metrics")
	dir := flag.String("dir", os.TempDir(), "directory the run creates its (removed) working directory in; needs 4 GB free")
	out := flag.String("out", "out", "directory for result JSON and span files")
	runs := flag.Int("runs", 1, "with -workload all: runs per workload, on seeds seed, seed+1, ...")
	compare := flag.Bool("compare", false, "compare two result sets: benchmark -compare a.json b.json")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *workload == "all":
		err = runAll(*seed, *seconds, *trace, *dir, *out, *runs)
	default:
		var res *result
		res, err = run(runCfg{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
			dir: *dir, outDir: *out, segDiv: 1, setups: setupReps, probe: 40 * time.Millisecond})
		if err == nil {
			err = report(res, *out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func resultPath(out, workload string, seed int64, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(out, fmt.Sprintf("result-%s-seed%d-trace%d.json", workload, seed, t))
}

// report prints every metric by name with its unit, writes the result file,
// and ends with the one-line JSON object the pipeline reads.
func report(r *result, out string) error {
	fmt.Printf("workload %s  seed %d  trace %v  flush policy: %s\n", r.Workload, r.Seed, r.Trace, flushPolicy)
	fmt.Printf("  %s\n", r.Env.Constants.PageCache)
	printMetrics := func(m map[string]value, note string) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			v := m[n]
			fmt.Printf("  %-36s %16.4f %-6s%s%s\n", n, v.Value, v.Unit, note, floorNote(n, v.Value, r.Env.Floors))
		}
	}
	printMetrics(r.Metrics, "")
	printMetrics(r.Reported, "  (reported, not gated)")
	fmt.Printf("  %-36s %16.6f (%d failed of %d attempted)\n", "fail_frac", r.FailFrac, r.Failed, r.Attempted)
	for _, n := range r.Notes {
		fmt.Println("  note:", n)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(resultPath(out, r.Workload, r.Seed, r.Trace), b, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !r.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", r.Workload, r.Failed, r.Attempted)
	}
	return nil
}

// floorOf names the floor a per-layer row is printed as a multiple of.
var floorOf = map[string]string{
	"device.wal_sync_p50_us": "floor.fsync_p50_us", "wal.append_flush_us": "floor.fsync_p50_us",
	"rpc.turnaround_p50_us": "floor.loopback_rtt_us", "rpc.echo_rtt_us": "floor.loopback_rtt_us",
	"rpc.echo_MBps": "floor.loopback_MBps", "client.scan_pull_MBps": "floor.loopback_MBps", "wal.verify_MBps": "floor.loopback_MBps",
	"segment.verify_GBps": "floor.crc32c_GBps",
}

func floorNote(name string, v float64, fl floors) string {
	floor := fl[floorOf[name]]
	if floor == 0 {
		return ""
	}
	return fmt.Sprintf("  = %.2f x %s", v/floor, floorOf[name])
}

// resultSet is what -workload all writes and -compare reads.
type resultSet struct {
	Runs []*result `json:"runs"`
}

// runAll runs every workload in its own process, runs times each, and
// gathers the results into one set file.
func runAll(seed int64, seconds float64, trace int, dir, out string, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var set resultSet
	for i := 0; i < runs; i++ {
		for _, w := range workloadDefs {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed+int64(i)),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-dir", dir, "-out", out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			r, err := readResult(resultPath(out, w.Name, seed+int64(i), trace != 0))
			if err != nil {
				return err
			}
			set.Runs = append(set.Runs, r.Runs...)
		}
	}
	b, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(out, fmt.Sprintf("set-seed%d-trace%d.json", seed, trace))
	fmt.Println("result set:", path)
	return os.WriteFile(path, b, 0o644)
}
