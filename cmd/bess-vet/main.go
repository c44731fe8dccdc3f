// Command bess-vet is BeSS's project-specific static analyzer. It enforces
// the invariants that go vet, the race detector and the invariants build
// cannot see. Each property has one checker: lock order, and a function's
// "caller holds mu" contract (mu.AssertHeld), are internal/lockcheck's at run
// time under -tags invariants, and allocation budgets are AllocsPerRun tests.
//
//   - durability: error results of Sync/Close/Write/Append/Flush on files,
//     the WAL, and storage areas must not be silently dropped or shadowed.
//   - guarded: struct fields annotated `// guarded by <mu>` may only be
//     touched with that mutex held (writes need the exclusive lock).
//   - defers: every Lock/RLock is paired with an Unlock on every exit path,
//     and a function that calls mu.AssertHeld() returns with mu held.
//   - atomicmix: atomic access is a property of a variable's type — any call
//     of sync/atomic's package-level Load/Store/Add/Swap/CompareAndSwap
//     functions is a finding; use atomic.Int64 and friends.
//   - golife: a goroutine has an owner — a `go` statement outside
//     internal/goleak is a finding, and so is a goleak.Group held in a
//     struct none of whose methods stops it.
//   - chanflow: channel protocol discipline — no double-close or
//     send-after-close on any path, no unbuffered sends from a Group.Go
//     literal without a select escape.
//   - areawrite: an area is written only on the proof of a log record,
//     through a wal.Pager, or by the named writers of a page that has no
//     history yet (a fresh segment's format, a repair's zero page).
//   - directive: a //bess: comment with an unknown verb or a malformed
//     argument is itself a finding — typos must not silently disable
//     checking.
//
// Usage:
//
//	go run ./cmd/bess-vet ./...
//	go run ./cmd/bess-vet -json ./internal/... ./cmd/...
//
// Exits 1 when any finding is reported, 2 on loader errors. With -json the
// findings are printed as a JSON array (empty array when clean) instead of
// the line-oriented report. The tool is stdlib-only (go/parser, go/types with
// the source importer): it needs no build cache and no external binaries.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var (
		dir     = flag.String("C", ".", "module directory to analyze")
		only    = flag.String("only", "", "comma-separated analyzer subset ("+strings.Join(analyzerNames, ",")+")")
		jsonOut = flag.Bool("json", false, "emit findings as a JSON array on stdout")
	)
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./internal/...", "./cmd/..."}
	}
	findings, err := run(*dir, patterns, *only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bess-vet: %v\n", err)
		os.Exit(2)
	}
	if *jsonOut {
		type rec struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		// Report paths relative to the analyzed directory so CI can feed
		// them straight into ::error file=… annotations.
		base, _ := filepath.Abs(*dir)
		recs := make([]rec, 0, len(findings))
		for _, f := range findings {
			name := f.pos.Filename
			if rel, err := filepath.Rel(base, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
			recs = append(recs, rec{
				File:     name,
				Line:     f.pos.Line,
				Col:      f.pos.Column,
				Analyzer: f.analyzer,
				Message:  f.msg,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(recs); err != nil {
			fmt.Fprintf(os.Stderr, "bess-vet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: [%s] %s\n", f.pos.Filename, f.pos.Line, f.pos.Column, f.analyzer, f.msg)
		}
		if len(findings) > 0 {
			fmt.Printf("bess-vet: %d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// analyzerNames are the seven analyzers plus the directive check, in the
// order run applies them; -only takes any subset.
var analyzerNames = []string{"directive", "guarded", "defers", "durability", "atomicmix", "golife", "chanflow", "areawrite"}

// run loads the module rooted at (or above) dir and applies the selected
// analyzers to the packages matching patterns.
func run(dir string, patterns []string, only string) ([]finding, error) {
	enabled := map[string]bool{}
	for _, a := range analyzerNames {
		enabled[a] = only == ""
	}
	for _, a := range strings.Split(only, ",") {
		if a = strings.TrimSpace(a); a == "" {
			continue
		}
		if _, known := enabled[a]; !known {
			return nil, fmt.Errorf("-only: no analyzer %q (have %s)", a, strings.Join(analyzerNames, ", "))
		}
		enabled[a] = true
	}
	modRoot, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l := newLoader(modRoot, modPath)
	pkgs, err := l.load(patterns)
	if err != nil {
		return nil, err
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("no packages matched %v", patterns)
	}

	dirs := newDirectives()
	for _, p := range pkgs {
		dirs.collect(p)
	}

	var flows []*flowResult
	for _, p := range pkgs {
		flows = append(flows, flowsOf(p, dirs)...)
	}

	r := &reporter{fset: l.fset}
	if enabled["directive"] {
		for _, b := range dirs.bad {
			r.report(b.pos, "directive", "%s", b.msg)
		}
	}
	if enabled["guarded"] {
		analyzeGuarded(flows, dirs, r)
	}
	if enabled["defers"] {
		analyzeDefers(flows, r)
	}
	if enabled["durability"] {
		analyzeDurability(pkgs, r)
	}
	if enabled["atomicmix"] {
		analyzeAtomicMix(pkgs, r)
	}
	if enabled["golife"] {
		analyzeGoLife(pkgs, r)
	}
	if enabled["chanflow"] {
		analyzeChanFlow(pkgs, r)
	}
	if enabled["areawrite"] {
		analyzeAreaWrite(pkgs, r)
	}
	return r.sorted(), nil
}
