package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// directives are the machine-readable annotations bess-vet consumes:
//
//	//bess:prepublish                  (func builds a value not yet shared)
//	// guarded by mu                   (struct field annotation)
//
// A //bess: line whose verb is unknown, or whose argument does not parse,
// is itself a finding (analyzer "directive") — a typo must not silently
// disable checking.
//
// The rest of what was once written as a directive is code that runs: the
// lock hierarchy is the rank each lockcheck Init call names, a "caller holds
// mu" contract is a call to mu.AssertHeld() (both checked at run time under
// -tags invariants, and AssertHeld seeds the lock-flow walk below), and an
// allocation budget is an AllocsPerRun test.
type directives struct {
	prepublish map[*types.Func]bool
	guarded    map[*types.Var]string // struct field -> mutex field name

	// bad collects malformed or unknown //bess: directives; run() reports
	// them under the "directive" analyzer.
	bad []dirDiag
}

// dirDiag is one malformed/unknown directive, reported as a finding.
type dirDiag struct {
	pos token.Pos
	msg string
}

func newDirectives() *directives {
	return &directives{
		prepublish: make(map[*types.Func]bool),
		guarded:    make(map[*types.Var]string),
	}
}

// collect scans one type-checked package for all directive forms. Malformed
// or unknown directives are recorded in d.bad, never silently skipped.
func (d *directives) collect(p *pkg) {
	for _, f := range p.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if rest, ok := strings.CutPrefix(text, "bess:"); ok {
					d.parseDirective(rest, c.Pos())
				}
			}
		}
		for _, decl := range f.Decls {
			switch n := decl.(type) {
			case *ast.FuncDecl:
				d.collectFunc(p, n)
			case *ast.GenDecl:
				for _, spec := range n.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					d.collectGuarded(p, st)
				}
			}
		}
	}
}

func (d *directives) badf(pos token.Pos, format string, args ...any) {
	d.bad = append(d.bad, dirDiag{pos: pos, msg: fmt.Sprintf(format, args...)})
}

// parseDirective checks one "//bess:<verb> [arg]" line. rest is the text
// after "bess:".
func (d *directives) parseDirective(rest string, pos token.Pos) {
	verb, arg, _ := strings.Cut(rest, " ")
	arg = strings.TrimSpace(arg)
	switch verb {
	case "prepublish":
		if arg != "" {
			d.badf(pos, "//bess:prepublish takes no argument (got %q)", arg)
		}
	default:
		d.badf(pos, "unknown //bess:%s directive (prepublish is the one verb)", verb)
	}
}

func (d *directives) collectFunc(p *pkg, fn *ast.FuncDecl) {
	if fn.Doc == nil {
		return
	}
	obj, _ := p.info.Defs[fn.Name].(*types.Func)
	if obj == nil {
		return
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == "bess:prepublish" {
			d.prepublish[obj] = true
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
