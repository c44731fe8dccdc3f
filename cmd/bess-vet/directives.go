package main

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// directives are the machine-readable annotations bess-vet consumes:
//
//	//bess:holds mu                    (func contract: caller holds recv.mu)
//	//bess:prepublish                  (func builds a value not yet shared)
//	// guarded by mu                   (struct field annotation)
//	//bess:hotpath                     (func doc: per-op allocations flagged)
//	//bess:hotpath ignore=<reason>     (waives the allocation on/under it)
//
// A //bess: line whose verb is unknown, or whose argument does not parse,
// is itself a finding (analyzer "directive") — a typo must not silently
// disable checking.
//
// The lock hierarchy is not an annotation: a class's rank is the constant
// its lockcheck Init call names — mu.Init("Type.field", rank) — which is
// also what the runtime checker enforces under -tags invariants, so the
// order is written once. Two classes with one non-zero rank, and a Rank
// constant no Init uses, are "directive" findings too (collectRanks).
type directives struct {
	// rank maps a lock class ("reader.areaMu") to its rank in the hierarchy
	// (outermost lowest). 0 = unranked.
	rank     map[string]int
	rankUsed map[types.Object]bool // Rank constants some Init names

	holds      map[*types.Func]string // func -> mutex field name
	prepublish map[*types.Func]bool
	guarded    map[*types.Var]string // struct field -> mutex field name

	hotpath map[*types.Func]bool // functions under per-op allocation review
	// hotpathIgnores maps file -> line -> waiver reason. A waiver applies to
	// an allocation on the same line (trailing comment) or on the line
	// below it (comment-above style).
	hotpathIgnores map[string]map[int]string

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
		rank:           make(map[string]int),
		rankUsed:       make(map[types.Object]bool),
		holds:          make(map[*types.Func]string),
		prepublish:     make(map[*types.Func]bool),
		guarded:        make(map[*types.Var]string),
		hotpath:        make(map[*types.Func]bool),
		hotpathIgnores: make(map[string]map[int]string),
	}
}

// collect scans one type-checked package for all directive forms. Malformed
// or unknown directives are recorded in d.bad, never silently skipped.
func (d *directives) collect(p *pkg) {
	d.collectRanks(p)
	for _, f := range p.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if rest, ok := strings.CutPrefix(text, "bess:"); ok {
					d.parseDirective(p, rest, c.Pos())
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

// waive records an ignore= waiver for the line at pos.
func waive(p *pkg, ignores map[string]map[int]string, reason string, pos token.Pos) {
	position := p.fset.Position(pos)
	m := ignores[position.Filename]
	if m == nil {
		m = make(map[int]string)
		ignores[position.Filename] = m
	}
	m[position.Line] = strings.TrimSpace(reason)
}

// waiverAt looks for a waiver on pos's line or the line directly above it.
func waiverAt(ignores map[string]map[int]string, pos token.Position) (reason string, ok bool) {
	m := ignores[pos.Filename]
	if reason, ok = m[pos.Line]; !ok {
		reason, ok = m[pos.Line-1]
	}
	return reason, ok
}

// parseDirective dispatches one "//bess:<verb> [arg]" line. rest is the text
// after "bess:".
func (d *directives) parseDirective(p *pkg, rest string, pos token.Pos) {
	verb, arg, _ := strings.Cut(rest, " ")
	arg = strings.TrimSpace(arg)
	switch verb {
	case "holds":
		if arg == "" {
			d.badf(pos, "//bess:holds needs a mutex field name")
		}
	case "prepublish":
		if arg != "" {
			d.badf(pos, "//bess:prepublish takes no argument (got %q)", arg)
		}
	case "hotpath":
		reason, isWaiver := strings.CutPrefix(arg, "ignore=")
		// Anything after an embedded "//" is a trailing comment, not part of
		// the reason.
		reason, _, _ = strings.Cut(reason, "//")
		switch {
		case arg == "":
			// Bare form: attaches to the function whose doc comment holds it
			// (collectFunc); harmless elsewhere.
		case !isWaiver:
			d.badf(pos, "//bess:hotpath: unknown clause %q (want bare or ignore=<reason>)", arg)
		case strings.TrimSpace(reason) == "":
			d.badf(pos, "//bess:hotpath ignore waiver needs a reason (ignore=<why this site is safe>)")
		default:
			waive(p, d.hotpathIgnores, reason, pos)
		}
	default:
		d.badf(pos, "unknown //bess:%s directive (known verbs: holds, prepublish, hotpath)", verb)
	}
}

// collectRanks learns the lock hierarchy from p's lockcheck Init calls.
func (d *directives) collectRanks(p *pkg) {
	isRank := func(t types.Type) bool { return isNamedIn(t, "internal/lockcheck", "Rank") }
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 || !isRank(p.info.TypeOf(call.Args[1])) {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Init" {
				return true
			}
			ast.Inspect(call.Args[1], func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					d.rankUsed[p.info.Uses[id]] = true
				}
				return true
			})
			name, rank := p.info.Types[call.Args[0]].Value, p.info.Types[call.Args[1]].Value
			if name == nil || rank == nil {
				d.badf(call.Pos(), "lockcheck Init needs a constant class name and rank")
				return true
			}
			class := constant.StringVal(name)
			r, _ := constant.Int64Val(rank)
			for other, has := range d.rank {
				if r != 0 && int(r) == has && other != class {
					d.badf(call.Pos(), "lock classes %s and %s share rank %d: equal ranks must not nest, so one of them is misplaced", class, other, r)
				}
			}
			d.rank[class] = int(r)
			return true
		})
	}
	// A rank nothing is initialised with orders nothing.
	if strings.HasSuffix(p.path, "internal/lockcheck") {
		return
	}
	for id, obj := range p.info.Defs {
		c, ok := obj.(*types.Const)
		if ok && isRank(c.Type()) && constant.Sign(c.Val()) != 0 && !d.rankUsed[c] && c.Parent() == p.tpkg.Scope() {
			d.badf(id.Pos(), "lock rank %s is used by no Init call in its package: the class it ranks is unranked at runtime and here", c.Name())
		}
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
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, ok := strings.CutPrefix(text, "bess:holds "); ok {
			d.holds[obj] = strings.TrimSpace(rest)
		}
		if text == "bess:prepublish" {
			d.prepublish[obj] = true
		}
		if text == "bess:hotpath" {
			d.hotpath[obj] = true
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
