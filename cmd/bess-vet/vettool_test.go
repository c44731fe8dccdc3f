package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The vet tool protocol (vettool.go) is driven by the go command in real
// use; these tests exercise the unit entry points in-process with hand-built
// configs against the fixture module.

func fixtureUnitConfig(t *testing.T, dir string) (*vetConfig, string) {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", "src", "fixture", dir))
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(abs)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(abs, e.Name()))
		}
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files under %s", abs)
	}
	return &vetConfig{
		ID:         "fixture/" + dir,
		Dir:        abs,
		ImportPath: "fixture/" + dir,
		GoFiles:    files,
		VetxOutput: filepath.Join(t.TempDir(), "unit.vetx"),
	}, abs
}

func writeUnitConfig(t *testing.T, cfg *vetConfig) string {
	t.Helper()
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "vet.cfg")
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestVettoolFindingsUnitScoped: the per-unit analysis must surface the
// fixture's intended findings and only for files inside the unit.
func TestVettoolFindingsUnitScoped(t *testing.T) {
	cfg, abs := fixtureUnitConfig(t, "chanflow")
	findings, err := vettoolFindings(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("vettoolFindings returned no findings for the chanflow fixture")
	}
	sawChanflow := false
	for _, f := range findings {
		if !strings.HasPrefix(filepath.Clean(f.pos.Filename), abs) {
			t.Errorf("finding outside the unit: %s", f.pos.Filename)
		}
		if f.analyzer == "chanflow" {
			sawChanflow = true
		}
	}
	if !sawChanflow {
		t.Error("no chanflow finding in the chanflow unit")
	}
}

// TestVettoolUnitExitCodes: a findings unit exits 1 and always writes the
// facts file; a VetxOnly (dependency) unit exits 0 without analyzing.
func TestVettoolUnitExitCodes(t *testing.T) {
	cfg, _ := fixtureUnitConfig(t, "chanflow")
	if code := vettoolUnit(writeUnitConfig(t, cfg)); code != 1 {
		t.Fatalf("findings unit exited %d, want 1", code)
	}
	if _, err := os.Stat(cfg.VetxOutput); err != nil {
		t.Fatalf("facts file not written: %v", err)
	}

	dep, _ := fixtureUnitConfig(t, "hotalloc")
	dep.VetxOnly = true
	if code := vettoolUnit(writeUnitConfig(t, dep)); code != 0 {
		t.Fatalf("VetxOnly unit exited %d, want 0", code)
	}
	if _, err := os.Stat(dep.VetxOutput); err != nil {
		t.Fatalf("VetxOnly facts file not written: %v", err)
	}
}

// TestVettoolOutsideModule: a unit outside any module (std-style) yields no
// findings and no error — the driver feeds bess-vet every package.
func TestVettoolOutsideModule(t *testing.T) {
	dir := t.TempDir() // no go.mod anywhere above t.TempDir on CI runners
	findings, err := vettoolFindings(&vetConfig{Dir: dir, ImportPath: "os"})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("got %d findings for a package outside the module", len(findings))
	}
}

// TestRunVettoolDispatch: only vet-protocol argument shapes are intercepted.
func TestRunVettoolDispatch(t *testing.T) {
	if runVettool([]string{"./..."}) {
		t.Error("plain package pattern must not be treated as a vet invocation")
	}
	if runVettool([]string{"-json", "./internal/..."}) {
		t.Error("standalone flags must not be treated as a vet invocation")
	}
}
