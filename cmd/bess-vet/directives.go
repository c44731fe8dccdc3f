package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// directives are the machine-readable annotations bess-vet consumes: one,
//
//	// guarded by mu                   (struct field annotation)
//
// and no //bess: verb. A //bess: line is itself a finding (analyzer
// "directive") — a typo or a retired verb must not look as if it checked
// something.
//
// What was once written as a directive is code that runs: the lock hierarchy
// is the rank each lockcheck Init call names, a "caller holds mu" contract is
// a call to mu.AssertHeld() (both checked at run time under -tags invariants,
// and AssertHeld seeds the lock-flow walk below), an allocation budget is an
// AllocsPerRun test, and a value being built before anyone shares it takes
// its lock like any other.
type directives struct {
	guarded map[*types.Var]string // struct field -> mutex field name

	// bad collects the //bess: lines; run() reports them under the
	// "directive" analyzer.
	bad []dirDiag
}

// dirDiag is one //bess: line, reported as a finding.
type dirDiag struct {
	pos token.Pos
	msg string
}

func newDirectives() *directives {
	return &directives{guarded: make(map[*types.Var]string)}
}

// collect scans one type-checked package for all directive forms. A //bess:
// line is recorded in d.bad, never silently skipped.
func (d *directives) collect(p *pkg) {
	for _, f := range p.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if rest, ok := strings.CutPrefix(text, "bess:"); ok {
					verb, _, _ := strings.Cut(rest, " ")
					d.bad = append(d.bad, dirDiag{pos: c.Pos(), msg: fmt.Sprintf("unknown //bess:%s directive (there is no //bess: verb)", verb)})
				}
			}
		}
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
					d.collectGuarded(p, st)
				}
			}
		}
	}
}

// collectGuarded records `// guarded by <mu>` field annotations. The marker
// may appear in the field's trailing line comment or its doc comment, and
// may be followed by prose after a separator ("guarded by mu; ...").
func (d *directives) collectGuarded(p *pkg, st *ast.StructType) {
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
				d.guarded[v] = mu
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
