package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// --- golife: every goroutine in a //bess:golife package has a stop path ---
//
// A `go` statement (or goleak.Go call) in an opted-in package must spawn a
// function with provable teardown evidence:
//
//   - done channel: the body receives from (or ranges over) a channel that
//     is closed in the spawning function or in some live function of the
//     module ("live" = exported or referenced anywhere — the stand-in for
//     reachability from the shutdown surface).
//   - stop flag: an exit (break/return) is guarded by a bool field, an
//     atomic flag Load, or a predicate method reading one, and the flag is
//     set by a live function.
//   - WaitGroup join: the body calls Done on a WaitGroup whose Add happens
//     outside the body and whose Wait is called by the spawner or a live
//     function.
//   - error-break loop: a loop exits when a call returns a non-nil error,
//     and the call's inputs trace (through local assignments) to a value
//     that some live function Closes — the read-loop-over-a-connection
//     shape, stoppable by closing the source.
//   - joiner: the body itself just Waits on a WaitGroup that other tracked
//     goroutines Done — a drain helper terminates when they do.
//
// Spawns are expanded interprocedurally one call level (goleak.Go wrappers,
// `go p.run()` forwarders, method values). Anything with a genuinely
// external stop path is waived explicitly:
//
//	//bess:golife ignore=<reason>   (same line as the spawn, or line above)

type golifeDecl struct {
	p  *pkg
	fd *ast.FuncDecl
}

// golifeBody is one body the spawned function expands to, paired with the
// package whose type info covers it.
type golifeBody struct {
	p    *pkg
	body *ast.BlockStmt
}

type golifeAnalysis struct {
	dirs *directives
	r    *reporter
	pkgs []*pkg

	decls      map[*types.Func]golifeDecl
	referenced map[*types.Func]bool
}

func analyzeGoLife(pkgs []*pkg, dirs *directives, r *reporter) {
	opted := false
	for _, p := range pkgs {
		if dirs.golife[p.path] {
			opted = true
			break
		}
	}
	if !opted {
		return
	}
	a := &golifeAnalysis{
		dirs:       dirs,
		r:          r,
		pkgs:       pkgs,
		decls:      make(map[*types.Func]golifeDecl),
		referenced: make(map[*types.Func]bool),
	}
	a.index()
	for _, p := range pkgs {
		if !dirs.golife[p.path] || p.isTest {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					a.checkFunc(p, fd)
				}
			}
		}
	}
}

// index records every function declaration and every referenced function
// object across the loaded packages.
func (a *golifeAnalysis) index() {
	for _, p := range a.pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := p.info.Defs[fd.Name].(*types.Func); ok {
					a.decls[fn] = golifeDecl{p: p, fd: fd}
				}
			}
		}
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				a.referenced[fn] = true
			}
		}
	}
}

// checkFunc visits every spawn in fd: bare go statements and goleak.Go
// calls alike.
func (a *golifeAnalysis) checkFunc(p *pkg, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.GoStmt:
			// `go goleak.Go(...)` would double-spawn; the CallExpr case
			// below owns that site.
			if !isGoleakGo(p, s.Call) {
				a.checkSpawn(p, fd, s.Pos(), s.Call.Fun)
			}
		case *ast.CallExpr:
			if isGoleakGo(p, s) && len(s.Args) == 2 {
				a.checkSpawn(p, fd, s.Pos(), s.Args[1])
			}
		}
		return true
	})
}

// isGoleakGo reports whether call is goleak.Go(name, fn).
func isGoleakGo(p *pkg, call *ast.CallExpr) bool {
	fn := calleeOf(p, call)
	return fn != nil && fn.Name() == "Go" && fn.Pkg() != nil && fn.Pkg().Name() == "goleak"
}

func (a *golifeAnalysis) checkSpawn(p *pkg, encl *ast.FuncDecl, pos token.Pos, fnExpr ast.Expr) {
	if reason, ok := waiverAt(a.dirs.golifeIgnores, a.r.fset.Position(pos)); ok {
		if reason == "" {
			a.r.reportOnce(pos, "golife", "//bess:golife ignore waiver needs a reason (ignore=<why the stop path is external>)")
		}
		return
	}
	bodies := a.expand(p, fnExpr, 2)
	if len(bodies) == 0 {
		a.r.reportOnce(pos, "golife", "cannot resolve the spawned function to a body; waive with //bess:golife ignore=<reason> if its stop path is external")
		return
	}
	for _, b := range bodies {
		if a.waitGroupJoin(b, p, encl) || a.doneChannel(b, p, encl) ||
			a.stopFlag(b, p, encl) || a.errBreakLoop(b, p, encl) || a.waitJoiner(b) {
			return
		}
	}
	a.r.reportOnce(pos, "golife", "goroutine has no provable stop path: no done-channel close, stop flag, WaitGroup join, or error-break on a closable source is reachable from shutdown; fix the teardown or waive with //bess:golife ignore=<reason>")
}

// expand resolves the spawned expression to the bodies it executes: the
// function literal or named function itself, plus (depth permitting) the
// bodies of module functions it calls as plain statements — the forwarder
// and goleak.Go-wrapper shapes.
func (a *golifeAnalysis) expand(p *pkg, e ast.Expr, depth int) []golifeBody {
	lit, ok := ast.Unparen(e).(*ast.FuncLit)
	if !ok {
		return a.declBodies(funcOf(p, e), depth)
	}
	out := []golifeBody{{p: p, body: lit.Body}}
	if depth > 0 {
		out = append(out, a.expandCalls(p, lit.Body, depth-1)...)
	}
	return out
}

// declBodies is the body of module function fn (nil, or bodiless: none) plus,
// depth permitting, those of the functions it forwards to.
func (a *golifeAnalysis) declBodies(fn *types.Func, depth int) []golifeBody {
	d, ok := a.decls[fn]
	if !ok || d.fd.Body == nil {
		return nil
	}
	out := []golifeBody{{p: d.p, body: d.fd.Body}}
	if depth > 0 {
		out = append(out, a.expandCalls(d.p, d.fd.Body, depth-1)...)
	}
	return out
}

// expandCalls returns the bodies of module functions called as top-level
// statements (or defers) of body.
func (a *golifeAnalysis) expandCalls(p *pkg, body *ast.BlockStmt, depth int) []golifeBody {
	var out []golifeBody
	add := func(call *ast.CallExpr) { out = append(out, a.declBodies(calleeOf(p, call), depth)...) }
	for _, st := range body.List {
		switch s := st.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				add(call)
			}
		case *ast.DeferStmt:
			add(s.Call)
		}
	}
	return out
}

// --- evidence rules ---

// waitGroupJoin: the body Dones a WaitGroup that is Added outside it and
// Waited on by the spawner or a live function.
func (a *golifeAnalysis) waitGroupJoin(b golifeBody, spawnPkg *pkg, encl *ast.FuncDecl) bool {
	var groups []types.Object
	eachMethodCall(b.p, b.body, func(recv types.Object, recvType types.Type, name string, call *ast.CallExpr) {
		if name == "Done" && recv != nil && isNamedType(recvType, "sync", "WaitGroup") {
			groups = append(groups, recv)
		}
	})
	for _, wg := range groups {
		if !a.calledOutside(b, wg, "Add") {
			continue
		}
		if callsMethodOn(spawnPkg, encl.Body, wg, "Wait") {
			return true
		}
		if a.anyLiveBody(func(p *pkg, fd *ast.FuncDecl) bool {
			return callsMethodOn(p, fd.Body, wg, "Wait")
		}) {
			return true
		}
	}
	return false
}

// waitJoiner: the body's job is to Wait on a WaitGroup other goroutines
// Done — it ends when they do (the bounded-drain helper shape).
func (a *golifeAnalysis) waitJoiner(b golifeBody) bool {
	ok := false
	eachMethodCall(b.p, b.body, func(recv types.Object, recvType types.Type, name string, call *ast.CallExpr) {
		if name == "Wait" && recv != nil && isNamedType(recvType, "sync", "WaitGroup") && a.calledOutside(b, recv, "Done") {
			ok = true
		}
	})
	return ok
}

// calledOutside reports whether obj.name(...) is called anywhere in the
// loaded packages at a position outside b's own body.
func (a *golifeAnalysis) calledOutside(b golifeBody, obj types.Object, name string) bool {
	for _, p := range a.pkgs {
		for _, f := range p.files {
			found := false
			ast.Inspect(f, func(n ast.Node) bool {
				if found {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if call.Pos() >= b.body.Pos() && call.End() <= b.body.End() {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if ok && sel.Sel.Name == name && golifeTarget(p, sel.X) == obj {
					found = true
					return false
				}
				return true
			})
			if found {
				return true
			}
		}
	}
	return false
}

// doneChannel: the body receives from a channel that the spawner or a live
// function closes.
func (a *golifeAnalysis) doneChannel(b golifeBody, spawnPkg *pkg, encl *ast.FuncDecl) bool {
	var chans []types.Object
	ast.Inspect(b.body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				if o := golifeTarget(b.p, e.X); o != nil {
					chans = append(chans, o)
				}
			}
		case *ast.RangeStmt:
			if t := b.p.info.TypeOf(e.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					if o := golifeTarget(b.p, e.X); o != nil {
						chans = append(chans, o)
					}
				}
			}
		}
		return true
	})
	for _, ch := range chans {
		if closesChan(spawnPkg, encl.Body, ch) {
			return true
		}
		if a.anyLiveBody(func(p *pkg, fd *ast.FuncDecl) bool {
			return closesChan(p, fd.Body, ch)
		}) {
			return true
		}
	}
	return false
}

// stopFlag: an exit is guarded by a flag (bool field, atomic Load, or a
// predicate method reading one) that a live function sets.
func (a *golifeAnalysis) stopFlag(b golifeBody, spawnPkg *pkg, encl *ast.FuncDecl) bool {
	var flags []types.Object
	collectCond := func(cond ast.Expr) {
		flags = append(flags, a.flagReads(b.p, cond, 1)...)
	}
	ast.Inspect(b.body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.IfStmt:
			if s.Cond != nil && exitsScope(s.Body) {
				collectCond(s.Cond)
			}
		case *ast.ForStmt:
			if s.Cond != nil {
				collectCond(s.Cond)
			}
		}
		return true
	})
	for _, f := range flags {
		if setsFlag(spawnPkg, encl.Body, f) {
			return true
		}
		if a.anyLiveBody(func(p *pkg, fd *ast.FuncDecl) bool {
			return setsFlag(p, fd.Body, f)
		}) {
			return true
		}
	}
	return false
}

// flagReads extracts flag identities read by cond: bool fields, atomic
// Loads, and (one level deep) fields read by predicate methods.
func (a *golifeAnalysis) flagReads(p *pkg, cond ast.Expr, depth int) []types.Object {
	var out []types.Object
	ast.Inspect(cond, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			if sel := p.info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				if basic, ok := sel.Obj().Type().Underlying().(*types.Basic); ok && basic.Kind() == types.Bool {
					out = append(out, sel.Obj())
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if sel.Sel.Name == "Load" && isAtomicType(p.info.TypeOf(sel.X)) {
				if o := golifeTarget(p, sel.X); o != nil {
					out = append(out, o)
				}
				return true
			}
			if depth > 0 {
				if fn := calleeOf(p, e); fn != nil {
					if d, ok := a.decls[fn]; ok && d.fd.Body != nil {
						ast.Inspect(d.fd.Body, func(m ast.Node) bool {
							ret, ok := m.(*ast.ReturnStmt)
							if !ok {
								return true
							}
							for _, res := range ret.Results {
								out = append(out, a.flagReads(d.p, res, depth-1)...)
							}
							return true
						})
					}
				}
			}
		}
		return true
	})
	return out
}

// errBreakLoop: a loop in the body exits on a non-nil error from a call
// whose inputs trace to a value some live function Closes.
func (a *golifeAnalysis) errBreakLoop(b golifeBody, spawnPkg *pkg, encl *ast.FuncDecl) bool {
	sources := a.dataSources(b, spawnPkg, encl)
	ok := false
	ast.Inspect(b.body, func(n ast.Node) bool {
		if ok {
			return false
		}
		var loopBody *ast.BlockStmt
		switch s := n.(type) {
		case *ast.ForStmt:
			loopBody = s.Body
		case *ast.RangeStmt:
			loopBody = s.Body
		default:
			return true
		}
		for _, errObj := range errExitGuards(b.p, loopBody) {
			for _, call := range callsAssigning(b.p, loopBody, errObj) {
				for _, root := range a.rootsOf(b.p, call, sources, 3) {
					if a.closableRoot(root, spawnPkg, encl) {
						ok = true
						return false
					}
				}
			}
		}
		return true
	})
	return ok
}

// errExitGuards finds `if err != nil { break/return }` guards in a loop
// body and returns the error objects tested.
func errExitGuards(p *pkg, loopBody *ast.BlockStmt) []types.Object {
	var out []types.Object
	ast.Inspect(loopBody, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || !exitsScope(ifs.Body) {
			return true
		}
		bin, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
		if !ok || bin.Op != token.NEQ {
			return true
		}
		for _, pair := range [2][2]ast.Expr{{bin.X, bin.Y}, {bin.Y, bin.X}} {
			id, ok := ast.Unparen(pair[0]).(*ast.Ident)
			if !ok {
				continue
			}
			nilIdent, ok := ast.Unparen(pair[1]).(*ast.Ident)
			if !ok || nilIdent.Name != "nil" {
				continue
			}
			if t := p.info.TypeOf(id); t != nil && isErrorType(t) {
				if o := golifeTarget(p, id); o != nil {
					out = append(out, o)
				}
			}
		}
		return true
	})
	return out
}

// callsAssigning finds call expressions whose results are assigned to obj
// within the loop (including if-statement init clauses).
func callsAssigning(p *pkg, loopBody *ast.BlockStmt, obj types.Object) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(loopBody, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && golifeTarget(p, id) == obj {
				out = append(out, call)
			}
		}
		return true
	})
	return out
}

// dataSources maps local objects to the expressions assigned to them,
// within both the spawned body and its spawning function.
func (a *golifeAnalysis) dataSources(b golifeBody, spawnPkg *pkg, encl *ast.FuncDecl) map[types.Object][]ast.Expr {
	src := make(map[types.Object][]ast.Expr)
	collect := func(p *pkg, root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				o := golifeTarget(p, id)
				if o == nil {
					continue
				}
				if i < len(as.Rhs) {
					src[o] = append(src[o], as.Rhs[i])
				} else if len(as.Rhs) == 1 {
					src[o] = append(src[o], as.Rhs[0])
				}
			}
			return true
		})
	}
	collect(b.p, b.body)
	collect(spawnPkg, encl.Body)
	return src
}

// rootsOf extracts the stable identities a call reads from: struct fields
// directly, and locals expanded through their assignments.
func (a *golifeAnalysis) rootsOf(p *pkg, call *ast.CallExpr, sources map[types.Object][]ast.Expr, depth int) []types.Object {
	var out []types.Object
	var visit func(e ast.Expr, depth int)
	visit = func(e ast.Expr, depth int) {
		ast.Inspect(e, func(n ast.Node) bool {
			switch id := n.(type) {
			case *ast.SelectorExpr:
				if sel := p.info.Selections[id]; sel != nil && sel.Kind() == types.FieldVal {
					out = append(out, sel.Obj())
					return false
				}
			case *ast.Ident:
				o := golifeTarget(p, id)
				if o == nil {
					return true
				}
				if _, isVar := o.(*types.Var); !isVar {
					return true
				}
				out = append(out, o)
				if depth > 0 {
					for _, src := range sources[o] {
						visit(src, depth-1)
					}
				}
			}
			return true
		})
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		visit(sel.X, depth)
	}
	for _, arg := range call.Args {
		visit(arg, depth)
	}
	return out
}

// closableRoot reports whether some live function closes root — by object
// identity, or (for module named types) by a Close call on the same type.
func (a *golifeAnalysis) closableRoot(root types.Object, spawnPkg *pkg, encl *ast.FuncDecl) bool {
	if callsMethodOn(spawnPkg, encl.Body, root, "Close") {
		return true
	}
	if a.anyLiveBody(func(p *pkg, fd *ast.FuncDecl) bool {
		return callsMethodOn(p, fd.Body, root, "Close")
	}) {
		return true
	}
	// Type fallback: a local alias of a module-typed value (listener saved
	// into a struct field, say) counts when the type is closed somewhere.
	named := namedOf(root.Type())
	if named == nil {
		return false
	}
	return a.anyLiveBody(func(p *pkg, fd *ast.FuncDecl) bool {
		found := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Close" {
				return true
			}
			if t := p.info.TypeOf(sel.X); t != nil && namedOf(t) == named {
				found = true
				return false
			}
			return true
		})
		return found
	})
}

// anyLiveBody runs fn over every exported-or-referenced function until one
// returns true.
func (a *golifeAnalysis) anyLiveBody(fn func(p *pkg, fd *ast.FuncDecl) bool) bool {
	for obj, d := range a.decls {
		if d.fd.Body == nil {
			continue
		}
		if !obj.Exported() && !a.referenced[obj] {
			continue
		}
		if fn(d.p, d.fd) {
			return true
		}
	}
	return false
}

// --- shared identity helpers ---

// golifeTarget resolves x or s.f to a stable object: a struct field var or
// a local/package object.
func golifeTarget(p *pkg, e ast.Expr) types.Object {
	switch n := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := p.info.Uses[n]; o != nil {
			return o
		}
		return p.info.Defs[n]
	case *ast.SelectorExpr:
		if sel := p.info.Selections[n]; sel != nil {
			return sel.Obj()
		}
		return p.info.Uses[n.Sel]
	}
	return nil
}

// eachMethodCall visits every method-shaped call in root with its resolved
// receiver object and static receiver type.
func eachMethodCall(p *pkg, root ast.Node, fn func(recv types.Object, recvType types.Type, name string, call *ast.CallExpr)) {
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn(golifeTarget(p, sel.X), p.info.TypeOf(sel.X), sel.Sel.Name, call)
		return true
	})
}

// callsMethodOn reports whether obj.name(...) is called anywhere in root.
func callsMethodOn(p *pkg, root ast.Node, obj types.Object, name string) bool {
	if obj == nil {
		return false
	}
	found := false
	eachMethodCall(p, root, func(recv types.Object, _ types.Type, n string, _ *ast.CallExpr) {
		if n == name && recv == obj {
			found = true
		}
	})
	return found
}

// closesChan reports whether close(ch) with ch resolving to obj appears in
// root.
func closesChan(p *pkg, root ast.Node, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "close" || len(call.Args) != 1 {
			return true
		}
		if golifeTarget(p, call.Args[0]) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// setsFlag reports whether root assigns true to obj or calls
// obj.Store(true).
func setsFlag(p *pkg, root ast.Node, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				if golifeTarget(p, lhs) != obj {
					continue
				}
				if i < len(s.Rhs) {
					if id, ok := ast.Unparen(s.Rhs[i]).(*ast.Ident); ok && id.Name == "true" {
						found = true
						return false
					}
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(s.Fun).(*ast.SelectorExpr)
			if ok && sel.Sel.Name == "Store" && golifeTarget(p, sel.X) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// exitsScope reports whether block contains a break or return outside any
// nested function literal.
func exitsScope(block *ast.BlockStmt) bool {
	found := false
	ast.Inspect(block, func(n ast.Node) bool {
		if found {
			return false
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			if s.Tok == token.BREAK {
				found = true
			}
		case *ast.ReturnStmt:
			found = true
		}
		return !found
	})
	return found
}

// isNamedType reports whether t (pointer-stripped) is the named type
// pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	o := named.Obj()
	return o.Pkg() != nil && o.Pkg().Path() == pkgPath && o.Name() == name
}

// isAtomicType reports whether t is one of sync/atomic's typed values.
func isAtomicType(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	o := named.Obj()
	if o.Pkg() == nil || o.Pkg().Path() != "sync/atomic" {
		return false
	}
	switch o.Name() {
	case "Bool", "Int32", "Int64", "Uint32", "Uint64", "Pointer", "Value":
		return true
	}
	return false
}

// namedOf strips pointers and returns the *types.Named beneath, if any.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
