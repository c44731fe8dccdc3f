package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotalloc reviews //bess:hotpath functions — frame encode/decode, the hot
// wire codecs, the scan push loop — for per-op heap allocations. The flagged
// shapes:
//
//   - make(...) — a fresh slice/map/channel per call; use a pooled buffer
//     (the scan batch pool) or append into a caller-provided one instead.
//   - append([]T(nil), ...) — the clone idiom allocates every call.
//   - string <-> []byte conversions — each direction copies.
//   - new(T) and function literals — the value (or the closure's captured
//     variables) escapes per op.
//   - interface boxing — a concrete value passed to an interface parameter
//     allocates; fmt/errors callees are exempt (error paths are cold).
//
// The analyzer has no escape analysis: an allocation the caller must own
// (a decode result handed to the cache) is legitimate and carries a
// //bess:hotpath ignore=<reason> waiver. The AllocsPerRun regression tests
// pin the budgets the fixes established.
type hotallocAnalysis struct {
	dirs *directives
	r    *reporter
}

func analyzeHotAlloc(pkgs []*pkg, dirs *directives, r *reporter) {
	if len(dirs.hotpath) == 0 {
		return
	}
	a := &hotallocAnalysis{dirs: dirs, r: r}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := p.info.Defs[fd.Name].(*types.Func)
				if fn == nil || !dirs.hotpath[fn] {
					continue
				}
				a.checkBody(p, fd.Body)
			}
		}
	}
}

func (a *hotallocAnalysis) checkBody(p *pkg, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			a.flag(e.Pos(), "function literal in hot path: the closure and its captured variables allocate per op; hoist it or use a method value")
			return false
		case *ast.CallExpr:
			a.checkCall(p, e)
		}
		return true
	})
}

func (a *hotallocAnalysis) checkCall(p *pkg, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := p.info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				a.flag(call.Pos(), "make in hot path allocates per op; reuse a pooled or caller-provided buffer")
			case "new":
				a.flag(call.Pos(), "new in hot path allocates per op; reuse a pooled or caller-provided value")
			case "append":
				if len(call.Args) > 0 && isNilBase(p, call.Args[0]) {
					a.flag(call.Pos(), "append to a nil base clones per op; append into a reused buffer instead")
				}
			}
			return
		}
	}
	// Type conversion: string <-> []byte copies.
	if tv, ok := p.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type, p.info.TypeOf(call.Args[0])
		if (isStringType(dst) && isByteSlice(src)) || (isByteSlice(dst) && isStringType(src)) {
			a.flag(call.Pos(), "string/[]byte conversion in hot path copies per op; keep one representation end to end")
		}
		return
	}
	// Interface boxing: a concrete argument to an interface parameter.
	sig, _ := p.info.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return
	}
	if callee := calleeOf(p, call); callee != nil && callee.Pkg() != nil {
		switch callee.Pkg().Path() {
		case "fmt", "errors":
			return // error construction is the cold branch
		}
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := p.info.TypeOf(arg)
		if at == nil {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if _, already := at.Underlying().(*types.Interface); already {
			continue
		}
		a.flag(arg.Pos(), "interface boxing in hot path: concrete value passed to an interface parameter allocates per op")
	}
}

// isNilBase matches the []T(nil) first argument of the clone idiom.
func isNilBase(p *pkg, e ast.Expr) bool {
	ce, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(ce.Args) != 1 {
		return false
	}
	tv, ok := p.info.Types[ce.Fun]
	if !ok || !tv.IsType() {
		return false
	}
	id, ok := ast.Unparen(ce.Args[0]).(*ast.Ident)
	return ok && id.Name == "nil"
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

func (a *hotallocAnalysis) flag(pos token.Pos, msg string) {
	if _, waived := waiverAt(a.dirs.hotpathIgnores, a.r.fset.Position(pos)); waived {
		return
	}
	a.r.reportOnce(pos, "hotalloc", "%s; or waive with //bess:hotpath ignore=<reason>", msg)
}
