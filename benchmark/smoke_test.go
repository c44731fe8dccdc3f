package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWL     `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifestMetric is an end_to_end entry, or a per_layer one (no bound).
type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func wantManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloadDefs {
		m.Workloads = append(m.Workloads, manifestWL{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, 0})
	}
	return m
}

// TestManifest holds BENCHMARK.json and the program's own tables equal,
// one-for-one: workloads, metric names, units, directions and bounds.
// BESS_WRITE_MANIFEST=1 rewrites the file from the tables.
func TestManifest(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := wantManifest()
	if os.Getenv("BESS_WRITE_MANIFEST") != "" {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from names.go:\n got %+v\nwant %+v", got, want)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	// The issue's bound is a tenth and is not widened; setup_s alone follows
	// the pipeline's contract (the largest bound it allows).
	for _, d := range append(append([]metricDef{}, endToEnd...), reported...) {
		if want := map[bool]float64{true: 0.25, false: 0.10}[d.Name == "setup_s"]; d.Bound != want {
			t.Errorf("%s: bound %v, want %v", d.Name, d.Bound, want)
		}
	}
}

// appliesTo lists the reported metrics each workload prints.
var appliesTo = map[string][]string{
	"commit":      {"peak_rss_MB", "commit_per_s", "commit_p50_us", "commit_p95_us"},
	"fetch_cold":  {"peak_rss_MB", "read_per_s", "read_p50_us", "read_p95_us"},
	"scan_stream": {"peak_rss_MB", "scan_MBps"},
	"mixed":       {"peak_rss_MB", "commit_per_s", "commit_p50_us", "commit_p95_us", "read_per_s", "read_p50_us", "read_p95_us"},
}

// TestSmoke runs all four workloads, untraced and traced, on shrunken data
// sets and sub-second windows: the metric names printed must equal the
// manifest's one-for-one, every value must be finite, and nothing may fail.
func TestSmoke(t *testing.T) {
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			name := w.Name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := run(runCfg{workload: w.Name, seed: 7, seconds: 0.4, trace: trace,
					dir: t.TempDir(), outDir: t.TempDir(), segDiv: 16, setups: 1, probe: 2 * time.Millisecond})
				if err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				var want, got []string
				for _, d := range defs {
					want = append(want, d.Name)
					if v, ok := res.Metrics[d.Name]; ok && v.Unit != d.Unit {
						t.Errorf("%s: unit %q, manifest says %q", d.Name, v.Unit, d.Unit)
					}
				}
				for n, v := range res.Metrics {
					got = append(got, n)
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s = %v", n, v.Value)
					}
					if !trace && v.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", n)
					}
				}
				sort.Strings(want)
				sort.Strings(got)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("metrics printed differ from the manifest:\n got %v\nwant %v", got, want)
				}
				if !trace {
					var rep []string
					for n, v := range res.Reported {
						rep = append(rep, n)
						if d, ok := findMetric(n); !ok || d.Unit != v.Unit {
							t.Errorf("reported %s: unit %q, names.go says %q (listed: %v)", n, v.Unit, d.Unit, ok)
						}
						if v.Value <= 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
							t.Errorf("reported %s = %v", n, v.Value)
						}
					}
					sort.Strings(rep)
					wantRep := append([]string{}, appliesTo[w.Name]...)
					sort.Strings(wantRep)
					if !reflect.DeepEqual(rep, wantRep) {
						t.Errorf("reported metrics differ:\n got %v\nwant %v", rep, wantRep)
					}
				}
				if res.Failed != 0 || res.FailFrac != 0 || !res.Correct || res.Attempted < 1 {
					t.Errorf("failed %d of %d (fail_frac %v, correct %v): %v", res.Failed, res.Attempted, res.FailFrac, res.Correct, res.Notes)
				}
				if trace {
					checkSeparation(t, w.Name, res)
				}
			})
		}
	}
}

// checkSeparation asserts the workloads stress the layers they claim to.
func checkSeparation(t *testing.T, workload string, res *result) {
	t.Helper()
	v := func(n string) float64 { return res.Metrics[n].Value }
	switch workload {
	case "commit", "mixed":
		if v("wal.syncs_per_commit") <= 0 {
			t.Errorf("%s: wal.syncs_per_commit = %v, want > 0", workload, v("wal.syncs_per_commit"))
		}
	case "fetch_cold", "scan_stream":
		if v("wal.syncs_per_commit") != 0 {
			t.Errorf("%s: wal.syncs_per_commit = %v, want exactly 0", workload, v("wal.syncs_per_commit"))
		}
	}
	if workload == "fetch_cold" && v("client.hit_rate") != 0 {
		t.Errorf("fetch_cold: client.hit_rate = %v, want 0", v("client.hit_rate"))
	}
	if workload == "commit" && v("client.hit_rate") != 1 {
		t.Errorf("commit: client.hit_rate = %v, want 1", v("client.hit_rate"))
	}
	if workload == "mixed" && v("lock.reader_acquires_per_op") != 0 {
		t.Errorf("mixed: the snapshot reader acquired locks: %v per op", v("lock.reader_acquires_per_op"))
	}
	if workload == "scan_stream" && (v("client.rpcs_per_op") > 3 || v("rpc.stream_batches_per_pass") < 1) {
		t.Errorf("scan_stream: %v calls and %v stream batches per pass", v("client.rpcs_per_op"), v("rpc.stream_batches_per_pass"))
	}
}

// TestPercentile checks the percentile code against a reference that does
// not index by rank: the smallest sample with at least p of all samples at
// or below it.
func TestPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 10, 11, 100, 1001} {
		s := make([]int64, n)
		for i := range s {
			s[i] = rng.Int63n(50) // many ties
		}
		sorted := sortedCopy(s)
		for _, p := range []float64{0.5, 0.95, 0.99, 1} {
			want := int64(math.MaxInt64)
			for _, cand := range s {
				atOrBelow := 0
				for _, x := range s {
					if x <= cand {
						atOrBelow++
					}
				}
				if float64(atOrBelow) >= p*float64(n) && cand < want {
					want = cand
				}
			}
			if got := percentile(sorted, p); got != want {
				t.Errorf("n=%d p=%v: got %d, want %d", n, p, got, want)
			}
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty sample must read 0")
	}
}

// TestPmax10 checks the ">= 10 samples beyond" rule.
func TestPmax10(t *testing.T) {
	if _, ok := pmax10(make([]int64, 10)); ok {
		t.Error("ten samples cannot have ten beyond one of them")
	}
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i)
	}
	v, ok := pmax10(s)
	if !ok || v != 989 {
		t.Fatalf("got %d, %v; want 989 (samples 990..999 lie beyond it)", v, ok)
	}
	beyond := 0
	for _, x := range s {
		if x > v {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond, want 10", beyond)
	}
	if v, ok := pmax10(s[:11]); !ok || v != 0 {
		t.Errorf("eleven samples: got %d, %v; want the smallest", v, ok)
	}
}

// TestQuartiles pins the values Python's statistics.quantiles(v, n=4) gives.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("%v: got %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPayload(t *testing.T) {
	buf := make([]byte, 128)
	fillPayload(buf, objectID(1, 42), 9)
	id, c, ok := checkPayload(buf)
	if !ok || id != objectID(1, 42) || c != 9 {
		t.Fatalf("round trip: id %x counter %d ok %v", id, c, ok)
	}
	buf[60] ^= 1
	if _, _, ok := checkPayload(buf); ok {
		t.Error("a flipped bit passed the checksum")
	}
}

// TestCompare drives -compare over two synthetic result sets.
func TestCompare(t *testing.T) {
	set := func(scale, jitter float64) string {
		var s resultSet
		for i := 0; i < 5; i++ {
			r := &result{Workload: "commit", Seed: int64(i), Metrics: map[string]value{}, Reported: map[string]value{}}
			for _, d := range endToEnd {
				r.Metrics[d.Name] = value{100 * (1 + jitter*float64(i-2)), d.Unit}
			}
			for _, n := range appliesTo["commit"] {
				v := 100 * (1 + jitter*float64(i-2))
				if n == "commit_p50_us" {
					v *= scale
				}
				d, _ := findMetric(n)
				r.Reported[n] = value{v, d.Unit}
			}
			s.Runs = append(s.Runs, r)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "set.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := set(1, 0.001)
	var out bytes.Buffer
	if err := compareFiles(&out, base, set(1.05, 0.001)); err != nil {
		t.Errorf("5%% inside a 10%% bound must pass: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, set(1.5, 0.001)); err == nil || !strings.Contains(out.String(), "regressed") {
		t.Errorf("50%% worse must be reported as regressed: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, set(1.5, 0.2)); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must read unresolved, not regressed: %v\n%s", err, out.String())
	}
}
