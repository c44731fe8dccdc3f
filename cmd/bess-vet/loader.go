package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// pkg is one loaded, type-checked package of the module under analysis.
type pkg struct {
	path    string // import path ("bess/internal/wal")
	dir     string
	files   []*ast.File
	fset    *token.FileSet
	tpkg    *types.Package
	info    *types.Info
	imports []string
}

// loader parses and type-checks the module's packages in dependency order.
// Standard-library imports resolve through the source importer; module
// packages resolve against the loader's own result map, so no build cache
// or external toolchain invocation is needed.
type loader struct {
	fset    *token.FileSet
	modRoot string
	modPath string
	std     types.Importer
	pkgs    map[string]*pkg // by import path
}

func newLoader(modRoot, modPath string) *loader {
	// The source importer must not see cgo parts: analysis always targets
	// the pure-Go build, which every package here supports.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &loader{
		fset:    fset,
		modRoot: modRoot,
		modPath: modPath,
		pkgs:    make(map[string]*pkg),
	}
	l.std = importer.ForCompiler(fset, "source", nil)
	return l
}

// Import implements types.Importer: module packages come from the loader,
// everything else from the stdlib source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if strings.HasPrefix(path, l.modPath+"/") || path == l.modPath {
		p, ok := l.pkgs[path]
		if !ok || p.tpkg == nil {
			return nil, fmt.Errorf("module package %s not loaded yet (cycle?)", path)
		}
		return p.tpkg, nil
	}
	return l.std.Import(path)
}

// buildTags reports whether the file's build constraints accept the
// analysis configuration: default tags with invariants OFF (bess-vet checks
// the production build; the tag-on files mirror plain sync and go-statement
// usage).
func buildTagsOK(f *ast.File) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true
			}
			return expr.Eval(func(tag string) bool {
				switch tag {
				case "invariants":
					return false
				case "linux", "unix", build.Default.GOOS, build.Default.GOARCH:
					return true
				case "go1.22", "go1.21", "go1.20", "go1.19", "go1.18":
					return true
				}
				return false
			})
		}
	}
	return true
}

// discover walks the module for directories matching the ./... patterns and
// returns their import paths.
func (l *loader) discover(patterns []string) ([]string, error) {
	roots := map[string]bool{}
	for _, pat := range patterns {
		pat = strings.TrimSuffix(pat, "/...")
		pat = strings.TrimPrefix(pat, "./")
		if pat == "." || pat == "" {
			roots[l.modRoot] = true
		} else {
			roots[filepath.Join(l.modRoot, pat)] = true
		}
	}
	seen := map[string]bool{}
	var out []string
	for root := range roots {
		err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if !fi.IsDir() {
				return nil
			}
			name := fi.Name()
			if strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != l.modRoot {
				return filepath.SkipDir // a nested module (benchmark/) is not part of ./...
			}
			hasGo := false
			ents, err := os.ReadDir(path)
			if err != nil {
				return err
			}
			for _, e := range ents {
				if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
					hasGo = true
					break
				}
			}
			if !hasGo {
				return nil
			}
			rel, err := filepath.Rel(l.modRoot, path)
			if err != nil {
				return err
			}
			ip := l.modPath
			if rel != "." {
				ip = l.modPath + "/" + filepath.ToSlash(rel)
			}
			if !seen[ip] {
				seen[ip] = true
				out = append(out, ip)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// parseDir parses one package directory (including its _test.go files).
func (l *loader) parseDir(importPath string) (*pkg, error) {
	dir := l.modRoot
	if importPath != l.modPath {
		dir = filepath.Join(l.modRoot, strings.TrimPrefix(importPath, l.modPath+"/"))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &pkg{path: importPath, dir: dir, fset: l.fset}
	importSet := map[string]bool{}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if !buildTagsOK(f) {
			continue
		}
		// External test packages (package foo_test) get their own pseudo
		// package; for simplicity they are type-checked together only when
		// the package name matches. foo_test files are skipped: the
		// invariants under check live in the non-test build.
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		p.files = append(p.files, f)
		for _, imp := range f.Imports {
			importSet[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	if len(p.files) == 0 {
		return nil, nil
	}
	for ip := range importSet {
		p.imports = append(p.imports, ip)
	}
	sort.Strings(p.imports)
	return p, nil
}

// load parses, topologically sorts, and type-checks every package matched
// by patterns. Returns packages in dependency order.
func (l *loader) load(patterns []string) ([]*pkg, error) {
	paths, err := l.discover(patterns)
	if err != nil {
		return nil, err
	}
	parsed := map[string]*pkg{}
	var order []string
	// Parse the matched set plus any module-internal dependencies that the
	// patterns missed (types must resolve either way).
	queue := append([]string(nil), paths...)
	for len(queue) > 0 {
		ip := queue[0]
		queue = queue[1:]
		if _, done := parsed[ip]; done {
			continue
		}
		p, err := l.parseDir(ip)
		if err != nil {
			return nil, err
		}
		parsed[ip] = p // may be nil (no Go files): recorded to stop revisits
		if p == nil {
			continue
		}
		order = append(order, ip)
		for _, dep := range p.imports {
			if strings.HasPrefix(dep, l.modPath+"/") || dep == l.modPath {
				queue = append(queue, dep)
			}
		}
	}
	// Topological sort by module-internal imports.
	sorted := topoSort(order, func(ip string) []string {
		var deps []string
		if p := parsed[ip]; p != nil {
			for _, d := range p.imports {
				if parsed[d] != nil {
					deps = append(deps, d)
				}
			}
		}
		return deps
	})
	var out []*pkg
	for _, ip := range sorted {
		p := parsed[ip]
		if p == nil {
			continue
		}
		p.info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Importer: l, Error: func(err error) {}}
		tpkg, err := conf.Check(ip, l.fset, p.files, p.info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", ip, err)
		}
		p.tpkg = tpkg
		l.pkgs[ip] = p
		out = append(out, p)
	}
	return out, nil
}

// topoSort orders nodes so dependencies precede dependents.
func topoSort(nodes []string, deps func(string) []string) []string {
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var out []string
	var visit func(string)
	visit = func(n string) {
		if state[n] != 0 {
			return
		}
		state[n] = 1
		for _, d := range deps(n) {
			if d != n && state[d] != 1 {
				visit(d)
			}
		}
		state[n] = 2
		out = append(out, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		visit(n)
	}
	return out
}

// findModule locates go.mod upward from dir and returns (root, module path).
func findModule(dir string) (string, string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("go.mod in %s has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}
