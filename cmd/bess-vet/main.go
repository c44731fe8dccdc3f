// Command bess-vet is BeSS's project-specific static analyzer. It enforces
// the invariants that go vet, the race detector, the invariants build, the
// types and the rows of tombstones_test.go cannot see. Each property has one
// checker: lock order and a function's "caller holds mu" contract
// (mu.AssertHeld) are internal/lockcheck's at run time under -tags
// invariants, allocation budgets are AllocsPerRun tests, a page reaches an
// area only on a wal proof (area.Area.WriteRun's type), and a `go` statement
// outside internal/goleak, a call of sync/atomic's package-level functions
// and a directive comment are rows of tombstones_test.go.
//
//   - durability: error results of Sync/Close/Write/Append/Flush on files,
//     the WAL, and storage areas must not be silently dropped or shadowed.
//   - guarded: struct fields annotated `// guarded by <mu>` may only be
//     touched with that mutex held (writes need the exclusive lock).
//   - defers: every Lock/RLock is paired with an Unlock on every exit path,
//     and a function that calls mu.AssertHeld() returns with mu held.
//   - golife: a goleak.Group held in a struct none of whose methods stops
//     it is a finding.
//   - chanflow: channel protocol discipline — no double-close or
//     send-after-close on any path, no unbuffered sends from a Group.Go
//     literal without a select escape.
//
// Usage:
//
//	go run ./cmd/bess-vet ./...
//	go run ./cmd/bess-vet -json ./...
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
		jsonOut = flag.Bool("json", false, "emit findings as a JSON array on stdout")
	)
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := run(*dir, patterns)
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

// run loads the module rooted at (or above) dir and applies every analyzer to
// the packages matching patterns.
func run(dir string, patterns []string) ([]finding, error) {
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

	g := guards{}
	for _, p := range pkgs {
		g.collect(p)
	}
	var flows []*flowResult
	for _, p := range pkgs {
		flows = append(flows, flowsOf(p, g)...)
	}

	r := &reporter{fset: l.fset}
	analyzeGuarded(flows, g, r)
	analyzeDefers(flows, r)
	analyzeDurability(pkgs, r)
	analyzeGoLife(pkgs, r)
	analyzeChanFlow(pkgs, r)
	return r.sorted(), nil
}
