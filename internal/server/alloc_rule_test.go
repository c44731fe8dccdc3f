package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnlyReservationAllocates: the package takes area runs in one place —
// reserve, which reserves them to a client, whose commit publishes them — and
// re-establishes logged ones in one other, restart's redoSegment. No other
// code of the package calls an area allocator (AllocSegment or Reserve), so
// nothing allocates on the commit path: a run a commit fills was reserved by
// its session.
func TestOnlyReservationAllocates(t *testing.T) {
	allowed := map[string]bool{"reserve": true, "redoSegment": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	seen := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			in := "package scope"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				in = fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "AllocSegment" && sel.Sel.Name != "Reserve" {
					return true
				}
				if !allowed[in] {
					t.Errorf("%s: %s calls %s: only reserve allocates, for a client's reservation", fset.Position(call.Pos()), in, sel.Sel.Name)
				}
				seen++
				return true
			})
		}
	}
	if seen == 0 {
		t.Fatal("no allocator call found at all: the rule no longer looks at the code that allocates")
	}
}
