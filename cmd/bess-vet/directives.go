package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// guards maps each struct field annotated
//
//	// guarded by mu
//
// to the name of its mutex field: the one annotation bess-vet reads. What
// was once written as a directive is code that runs: the lock hierarchy is
// the rank each lockcheck Init call names, a "caller holds mu" contract is a
// call to mu.AssertHeld() (both checked at run time under -tags invariants,
// and AssertHeld seeds the lock-flow walk), an allocation budget is an
// AllocsPerRun test, and a value being built before anyone shares it takes
// its lock like any other.
type guards map[*types.Var]string

// collect records the annotated fields of one type-checked package.
func (g guards) collect(p *pkg) {
	for _, f := range p.files {
		for _, decl := range f.Decls {
			n, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range n.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					g.collectGuarded(p, st)
				}
			}
		}
	}
}

// collectGuarded records `// guarded by <mu>` field annotations. The marker
// may appear in the field's trailing line comment or its doc comment, and
// may be followed by prose after a separator ("guarded by mu; ...").
func (g guards) collectGuarded(p *pkg, st *ast.StructType) {
	for _, field := range st.Fields.List {
		mu := guardedMu(field.Comment)
		if mu == "" {
			mu = guardedMu(field.Doc)
		}
		if mu == "" {
			continue
		}
		for _, name := range field.Names {
			if v, ok := p.info.Defs[name].(*types.Var); ok {
				g[v] = mu
			}
		}
	}
}

func guardedMu(cg *ast.CommentGroup) string {
	if cg == nil {
		return ""
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		idx := strings.Index(text, "guarded by ")
		if idx < 0 {
			continue
		}
		rest := text[idx+len("guarded by "):]
		// The mutex name ends at the first separator or space.
		end := strings.IndexFunc(rest, func(r rune) bool {
			return r == ';' || r == ',' || r == ' ' || r == '.' || r == ':'
		})
		if end >= 0 {
			rest = rest[:end]
		}
		if rest != "" {
			return rest
		}
	}
	return ""
}
