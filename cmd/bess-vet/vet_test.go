package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// collectWants scans the fixture tree for `// want <analyzer>` markers and
// returns the expected findings as "file:line:analyzer" keys.
func collectWants(t *testing.T, root string) map[string]bool {
	t.Helper()
	wants := map[string]bool{}
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			idx := strings.Index(text, "// want ")
			if idx < 0 {
				continue
			}
			for _, a := range strings.Fields(text[idx+len("// want "):]) {
				wants[fmt.Sprintf("%s:%d:%s", filepath.Base(path), line, a)] = true
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// TestFixtures proves the analyzers catch the pre-fix bug classes: every
// `// want` marker in testdata must produce exactly one finding, and the
// fixtures must produce nothing else (no false positives).
func TestFixtures(t *testing.T) {
	root := filepath.Join("testdata", "src", "fixture")
	findings, err := run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, root)
	got := map[string]bool{}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d:%s", filepath.Base(f.pos.Filename), f.pos.Line, f.analyzer)
		if got[key] {
			t.Errorf("duplicate finding %s: %s", key, f.msg)
		}
		got[key] = true
		if !wants[key] {
			t.Errorf("unexpected finding %s: %s", key, f.msg)
		}
	}
	var missing []string
	for w := range wants {
		if !got[w] {
			missing = append(missing, w)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("expected finding not reported: %s", m)
	}
	if len(wants) == 0 {
		t.Fatal("no // want markers found under testdata (fixture tree missing?)")
	}
}

// TestRealTreeClean is the acceptance gate: every package of the module,
// examples included, must be clean under every analyzer.
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	findings, err := run(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s:%d: [%s] %s", f.pos.Filename, f.pos.Line, f.analyzer, f.msg)
	}
}
