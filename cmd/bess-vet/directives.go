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
//	//bess:lockorder A.x < B.y < ...   (package server, lockorder.go)
//	//bess:holds mu                    (func contract: caller holds recv.mu)
//	//bess:prepublish                  (func builds a value not yet shared)
//	// guarded by mu                   (struct field annotation)
//	//bess:golife                      (package opts into goroutine lifecycle)
//	//bess:golife ignore=<reason>      (waives the go statement on/under it)
//	//bess:hotpath                     (func doc: per-op allocations flagged)
//	//bess:hotpath ignore=<reason>     (waives the allocation on/under it)
//
// A //bess: line whose verb is unknown, or whose argument does not parse,
// is itself a finding (analyzer "directive") — a typo must not silently
// disable checking.
type directives struct {
	// rank maps a lock class ("reader.areaMu") to its position in the
	// declared hierarchy (1-based; outermost lowest). 0 = unranked.
	rank      map[string]int
	orderSrc  token.Pos // where the //bess:lockorder directive lives
	orderSeen []string  // classes in declaration order, for messages

	holds      map[*types.Func]string // func -> mutex field name
	prepublish map[*types.Func]bool
	guarded    map[*types.Var]string // struct field -> mutex field name

	golife map[string]bool // package path -> opted into goroutine lifecycle
	// golifeIgnores maps file -> line -> waiver reason. A waiver applies to
	// a spawn on the same line (trailing comment) or on the line below it
	// (comment-above style). An empty reason is itself a finding.
	golifeIgnores map[string]map[int]string

	hotpath        map[*types.Func]bool // functions under per-op allocation review
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
		holds:          make(map[*types.Func]string),
		prepublish:     make(map[*types.Func]bool),
		guarded:        make(map[*types.Var]string),
		golife:         make(map[string]bool),
		golifeIgnores:  make(map[string]map[int]string),
		hotpath:        make(map[*types.Func]bool),
		hotpathIgnores: make(map[string]map[int]string),
	}
}

// collect scans one type-checked package for all directive forms. Malformed
// or unknown directives are recorded in d.bad, never silently skipped.
func (d *directives) collect(p *pkg) {
	for _, f := range p.files {
		// File-level comments: the lockorder declaration may sit in any
		// comment group (bess keeps it in the package doc of lockorder.go).
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
	case "lockorder":
		if arg == "" {
			d.badf(pos, "//bess:lockorder needs a hierarchy (A.x < B.y < ...)")
			return
		}
		if err := d.parseOrder(arg, pos); err != nil {
			d.badf(pos, "%v", err)
		}
	case "golife":
		if arg == "" {
			d.golife[p.path] = true
			return
		}
		if reason, ok := strings.CutPrefix(arg, "ignore="); ok {
			// golife checks the reason itself (empty reason = golife finding),
			// so record even an empty one.
			waive(p, d.golifeIgnores, reason, pos)
			return
		}
		d.badf(pos, "//bess:golife: unknown clause %q (want bare or ignore=<reason>)", arg)
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
		d.badf(pos, "unknown //bess:%s directive (known verbs: lockorder, holds, prepublish, golife, hotpath)", verb)
	}
}

func (d *directives) parseOrder(spec string, pos token.Pos) error {
	if len(d.orderSeen) > 0 {
		return fmt.Errorf("duplicate //bess:lockorder directive")
	}
	d.orderSrc = pos
	for i, part := range strings.Split(spec, "<") {
		name := strings.TrimSpace(part)
		if name == "" || !strings.Contains(name, ".") {
			return fmt.Errorf("//bess:lockorder: bad lock class %q (want Type.field)", name)
		}
		if _, dup := d.rank[name]; dup {
			return fmt.Errorf("//bess:lockorder: %s listed twice", name)
		}
		d.rank[name] = i + 1
		d.orderSeen = append(d.orderSeen, name)
	}
	return nil
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
