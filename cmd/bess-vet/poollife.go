package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// poollife tracks the acquire/release pairs declared by //bess:resource —
// page pins, version pins, mappings — through every function,
// path-sensitively (the same branch-forking shape as the lock-flow walker)
// and interprocedurally (a callee that forwards its parameter to the release
// function releases it for the caller; a function that returns a fresh
// acquire is an acquire).
//
// It checks two things per path: use-after-release and double-release. A pin
// legitimately outlives the function that took it, so a value still held at
// an exit, stored in a field, returned or sent away is not a finding.
//
// Known holes, on purpose: values captured by closures are not tracked (the
// closure body is walked with a fresh state), and interface calls release
// nothing. The analyzer is tuned to stay false-positive-free on real code.

// resSlot is one tracked resource value on one path.
type resSlot struct {
	decl     *resourceDecl
	names    map[string]bool // aliases currently holding the value
	released bool            // further use or release is a bug
	deferred bool            // a deferred release is pending
	acqPos   token.Pos
	relPos   token.Pos
	reported bool // one use-after-release report per slot
}

func (s *resSlot) copy() *resSlot {
	c := *s
	c.names = make(map[string]bool, len(s.names))
	for k := range s.names {
		c.names[k] = true
	}
	return &c
}

type rstate struct {
	slots   []*resSlot
	relKeys map[string]token.Pos // arg-keyed pairs: released key -> where
}

func newRstate() *rstate {
	return &rstate{relKeys: make(map[string]token.Pos)}
}

func (st *rstate) copy() *rstate {
	c := &rstate{
		slots:   make([]*resSlot, len(st.slots)),
		relKeys: make(map[string]token.Pos, len(st.relKeys)),
	}
	for i, s := range st.slots {
		c.slots[i] = s.copy()
	}
	for k, v := range st.relKeys {
		c.relKeys[k] = v
	}
	return c
}

func (st *rstate) find(name string) *resSlot {
	if name == "" || name == "_" {
		return nil
	}
	for i := len(st.slots) - 1; i >= 0; i-- {
		if st.slots[i].names[name] {
			return st.slots[i]
		}
	}
	return nil
}

// dropName severs an alias: the variable was reassigned to something else.
func (st *rstate) dropName(name string) {
	for _, s := range st.slots {
		delete(s.names, name)
	}
}

type funcDef struct {
	decl *ast.FuncDecl
	p    *pkg
}

// poolAnalysis is the shared interprocedural context.
type poolAnalysis struct {
	dirs *directives
	r    *reporter
	fset *token.FileSet

	defs map[*types.Func]*funcDef

	forwards    map[*types.Func][]bool
	forwardsWIP map[*types.Func]bool
	wrappers    map[*types.Func]*resourceDecl
	wrapperWIP  map[*types.Func]bool

	seen map[string]bool // finding dedupe: file:line
}

func analyzePoolLife(pkgs []*pkg, dirs *directives, r *reporter) {
	if len(dirs.resources) == 0 {
		return
	}
	a := &poolAnalysis{
		dirs:        dirs,
		r:           r,
		defs:        make(map[*types.Func]*funcDef),
		forwards:    make(map[*types.Func][]bool),
		forwardsWIP: make(map[*types.Func]bool),
		wrappers:    make(map[*types.Func]*resourceDecl),
		wrapperWIP:  make(map[*types.Func]bool),
		seen:        make(map[string]bool),
	}
	for _, p := range pkgs {
		a.fset = p.fset
		for _, f := range p.files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					if obj, ok := p.info.Defs[fd.Name].(*types.Func); ok {
						a.defs[obj] = &funcDef{decl: fd, p: p}
					}
				}
			}
		}
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := p.info.Defs[fd.Name].(*types.Func)
				if obj != nil && a.isPrimitive(obj) {
					continue // the acquire/release functions themselves
				}
				w := &rwalk{a: a, p: p}
				w.walkBlock(fd.Body, newRstate())
			}
		}
	}
}

// isPrimitive reports whether fn is a declared acquire or release function.
func (a *poolAnalysis) isPrimitive(fn *types.Func) bool {
	for _, d := range a.dirs.resources {
		if fn == d.acquire || fn == d.release {
			return true
		}
	}
	return false
}

func (a *poolAnalysis) acquireDecl(fn *types.Func) *resourceDecl {
	for _, d := range a.dirs.resources {
		if fn == d.acquire && !d.argKeyed {
			return d
		}
	}
	return a.wrapper(fn)
}

func (a *poolAnalysis) releaseDecl(fn *types.Func) *resourceDecl {
	for _, d := range a.dirs.resources {
		if fn == d.release {
			return d
		}
	}
	return nil
}

// wrapper reports whether fn returns a freshly acquired resource as its
// first result (newBuf-style constructor wrappers). Memoized; cycles break
// to nil.
func (a *poolAnalysis) wrapper(fn *types.Func) *resourceDecl {
	if fn == nil {
		return nil
	}
	if d, ok := a.wrappers[fn]; ok {
		return d
	}
	if a.wrapperWIP[fn] {
		return nil
	}
	def := a.defs[fn]
	if def == nil || a.isPrimitive(fn) {
		a.wrappers[fn] = nil
		return nil
	}
	a.wrapperWIP[fn] = true
	defer delete(a.wrapperWIP, fn)

	acquired := map[types.Object]*resourceDecl{}
	var found *resourceDecl
	ast.Inspect(def.decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
					if d := a.acquireDecl(calleeOf(def.p, call)); d != nil && len(s.Lhs) > 0 {
						if id, ok := s.Lhs[0].(*ast.Ident); ok {
							if obj := def.p.info.Defs[id]; obj != nil {
								acquired[obj] = d
							} else if obj := def.p.info.Uses[id]; obj != nil {
								acquired[obj] = d
							}
						}
					}
				}
			}
		case *ast.ReturnStmt:
			if len(s.Results) == 0 {
				return true
			}
			switch e := s.Results[0].(type) {
			case *ast.CallExpr:
				if d := a.acquireDecl(calleeOf(def.p, e)); d != nil {
					found = d
				}
			case *ast.Ident:
				if d := acquired[def.p.info.Uses[e]]; d != nil {
					found = d
				}
			}
		}
		return true
	})
	a.wrappers[fn] = found
	return found
}

// releases reports, per parameter of a module function, whether the function
// forwards it to the release function — directly or through another such
// callee. Missing bodies (stdlib, interfaces) yield nil: nothing is released.
func (a *poolAnalysis) releases(fn *types.Func) []bool {
	if fn == nil {
		return nil
	}
	if fwd, ok := a.forwards[fn]; ok {
		return fwd
	}
	if a.forwardsWIP[fn] {
		return nil
	}
	def := a.defs[fn]
	if def == nil || a.isPrimitive(fn) {
		a.forwards[fn] = nil
		return nil
	}
	a.forwardsWIP[fn] = true
	defer delete(a.forwardsWIP, fn)

	sig := fn.Type().(*types.Signature)
	fwd := make([]bool, sig.Params().Len())
	paramIdx := map[types.Object]int{}
	for i := 0; i < sig.Params().Len(); i++ {
		paramIdx[sig.Params().At(i)] = i
	}
	ast.Inspect(def.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(def.p, call)
		rel := a.releaseDecl(callee)
		var sub []bool
		if rel == nil {
			sub = a.releases(callee)
		}
		for i, arg := range call.Args {
			pi, ok := paramIdx[baseIdentObj(def.p, arg)]
			if !ok {
				continue
			}
			if rel != nil && i == 0 && !rel.argKeyed || i < len(sub) && sub[i] {
				fwd[pi] = true
			}
		}
		return true
	})
	a.forwards[fn] = fwd
	return fwd
}

func (a *poolAnalysis) reportOnce(pos token.Pos, format string, args ...any) {
	p := a.fset.Position(pos)
	key := p.Filename + ":" + itoa(p.Line)
	if a.seen[key] {
		return
	}
	a.seen[key] = true
	a.r.report(pos, "poollife", format, args...)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// calleeOf resolves a call expression to its *types.Func, if static.
func calleeOf(p *pkg, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.info.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// baseIdentObj unwraps &x, *x, (x), x[i], x[:] down to x's object.
func baseIdentObj(p *pkg, e ast.Expr) types.Object {
	for {
		switch n := e.(type) {
		case *ast.Ident:
			if o := p.info.Uses[n]; o != nil {
				return o
			}
			return p.info.Defs[n]
		case *ast.UnaryExpr:
			if n.Op != token.AND {
				return nil
			}
			e = n.X
		case *ast.StarExpr:
			e = n.X
		case *ast.ParenExpr:
			e = n.X
		case *ast.SliceExpr:
			e = n.X
		case *ast.IndexExpr:
			e = n.X
		default:
			return nil
		}
	}
}

// baseIdentName unwraps the same forms down to the identifier's name.
func baseIdentName(e ast.Expr) string {
	for {
		switch n := e.(type) {
		case *ast.Ident:
			return n.Name
		case *ast.UnaryExpr:
			if n.Op != token.AND {
				return ""
			}
			e = n.X
		case *ast.StarExpr:
			e = n.X
		case *ast.ParenExpr:
			e = n.X
		case *ast.SliceExpr:
			e = n.X
		case *ast.IndexExpr:
			e = n.X
		default:
			return ""
		}
	}
}

// rwalk walks one function body, forking state at branches.
type rwalk struct {
	a *poolAnalysis
	p *pkg
}

func (w *rwalk) walkBlock(b *ast.BlockStmt, st *rstate) bool {
	for _, s := range b.List {
		if w.walkStmt(s, st) {
			return true
		}
	}
	return false
}

// useCheck flags a read of a released value.
func (w *rwalk) useCheck(name string, pos token.Pos, st *rstate) {
	s := st.find(name)
	if s == nil || s.reported || !s.released {
		return
	}
	s.reported = true
	w.a.reportOnce(pos,
		"use of %s value %q after it was released at %s",
		s.decl.name, name, w.a.fset.Position(s.relPos))
}

// applyRelease marks a slot released, reporting double releases.
func (w *rwalk) applyRelease(s *resSlot, pos token.Pos) {
	switch {
	case s.released:
		w.a.reportOnce(pos,
			"%s value released again; first released at %s",
			s.decl.name, w.a.fset.Position(s.relPos))
	case s.deferred:
		w.a.reportOnce(pos,
			"%s value released explicitly although a deferred release already covers it",
			s.decl.name)
	default:
		s.released = true
		s.relPos = pos
	}
}

// scanExpr walks an expression, applying call effects and use checks.
func (w *rwalk) scanExpr(e ast.Expr, st *rstate) {
	switch n := e.(type) {
	case nil:
		return
	case *ast.CallExpr:
		w.scanCall(n, st)
	case *ast.Ident:
		w.useCheck(n.Name, n.Pos(), st)
	case *ast.UnaryExpr:
		w.scanExpr(n.X, st)
	case *ast.StarExpr:
		w.scanExpr(n.X, st)
	case *ast.ParenExpr:
		w.scanExpr(n.X, st)
	case *ast.SelectorExpr:
		w.scanExpr(n.X, st)
	case *ast.IndexExpr:
		w.scanExpr(n.X, st)
		w.scanExpr(n.Index, st)
	case *ast.SliceExpr:
		w.scanExpr(n.X, st)
		w.scanExpr(n.Low, st)
		w.scanExpr(n.High, st)
		w.scanExpr(n.Max, st)
	case *ast.BinaryExpr:
		w.scanExpr(n.X, st)
		w.scanExpr(n.Y, st)
	case *ast.TypeAssertExpr:
		w.scanExpr(n.X, st)
	case *ast.CompositeLit:
		for _, el := range n.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			w.scanExpr(el, st)
		}
	case *ast.FuncLit:
		// Closures run in their own dynamic context; captured resources are
		// out of scope for this analysis (documented hole).
		w.walkBlock(n.Body, newRstate())
	}
}

// scanCall applies the release semantics of one call: the release function
// itself, or a callee that forwards the argument to it.
func (w *rwalk) scanCall(call *ast.CallExpr, st *rstate) {
	callee := calleeOf(w.p, call)
	relDecl := w.a.releaseDecl(callee)
	var fwd []bool
	if relDecl == nil {
		fwd = w.a.releases(callee)
	}
	for i, arg := range call.Args {
		spread := call.Ellipsis.IsValid() && i == len(call.Args)-1
		s := st.find(baseIdentName(arg))
		switch {
		case relDecl != nil && i == 0 && !relDecl.argKeyed:
			if s != nil {
				w.applyRelease(s, call.Pos())
				continue
			}
			// Releasing an untracked value: nothing to say.
		case relDecl != nil && i == 0 && relDecl.argKeyed:
			if key := render(arg); key != "" {
				if prev, ok := st.relKeys[key]; ok {
					w.a.reportOnce(call.Pos(),
						"%s released twice for %q; first released at %s",
						relDecl.name, key, w.a.fset.Position(prev))
				} else {
					st.relKeys[key] = call.Pos()
				}
			}
		case s != nil && !s.released && !spread && i < len(fwd) && fwd[i]:
			w.applyRelease(s, call.Pos())
			continue
		}
		w.scanExpr(arg, st)
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		w.scanExpr(sel.X, st)
	}
}

func (w *rwalk) walkStmt(s ast.Stmt, st *rstate) bool {
	switch n := s.(type) {
	case *ast.ExprStmt:
		w.scanExpr(n.X, st)
		if call, ok := n.X.(*ast.CallExpr); ok && callTerminatesStatic(call) {
			return true
		}
	case *ast.AssignStmt:
		w.walkAssign(n, st)
	case *ast.IncDecStmt:
		w.scanExpr(n.X, st)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v, st)
					}
				}
			}
		}
	case *ast.DeferStmt:
		w.walkDefer(n, st)
	case *ast.GoStmt:
		for _, arg := range n.Call.Args {
			w.scanExpr(arg, st)
		}
		w.scanExpr(n.Call.Fun, st)
	case *ast.SendStmt:
		w.scanExpr(n.Chan, st)
		w.scanExpr(n.Value, st)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			w.scanExpr(r, st)
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return w.walkBlock(n, st)
	case *ast.IfStmt:
		return w.walkIf(n, st)
	case *ast.ForStmt:
		if n.Init != nil {
			w.walkStmt(n.Init, st)
		}
		w.scanExpr(n.Cond, st)
		w.walkLoopBody(n.Body, st)
	case *ast.RangeStmt:
		w.scanExpr(n.X, st)
		w.walkLoopBody(n.Body, st)
	case *ast.SwitchStmt:
		if n.Init != nil {
			w.walkStmt(n.Init, st)
		}
		w.scanExpr(n.Tag, st)
		return w.walkCases(n.Body, st, true)
	case *ast.TypeSwitchStmt:
		if n.Init != nil {
			w.walkStmt(n.Init, st)
		}
		w.walkStmt(n.Assign, st)
		return w.walkCases(n.Body, st, true)
	case *ast.SelectStmt:
		return w.walkCases(n.Body, st, false)
	case *ast.LabeledStmt:
		return w.walkStmt(n.Stmt, st)
	}
	return false
}

// callTerminatesStatic mirrors flow.callTerminates without a receiver.
func callTerminatesStatic(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if name == "Exit" || name == "Goexit" || len(name) > 5 && name[:5] == "Fatal" {
			if id, ok := fun.X.(*ast.Ident); ok {
				switch id.Name {
				case "os", "runtime", "log", "t", "b", "tb":
					return true
				}
			}
		}
	}
	return false
}

func (w *rwalk) walkAssign(n *ast.AssignStmt, st *rstate) {
	for _, r := range n.Rhs {
		w.scanExpr(r, st)
	}
	// LHS bookkeeping, done before new tracking so `slot, err = p.Acquire(id)`
	// first severs the old alias, then tracks the new value.
	for _, l := range n.Lhs {
		switch lhs := l.(type) {
		case *ast.Ident:
			st.dropName(lhs.Name)
		case *ast.SelectorExpr:
			w.scanExpr(lhs.X, st)
		case *ast.IndexExpr:
			w.scanExpr(lhs.X, st)
			w.scanExpr(lhs.Index, st)
		}
	}
	// New tracking from the RHS.
	if len(n.Rhs) != 1 || len(n.Lhs) == 0 {
		return
	}
	lhs0, ok := n.Lhs[0].(*ast.Ident)
	if !ok || lhs0.Name == "_" {
		return
	}
	switch r := n.Rhs[0].(type) {
	case *ast.CallExpr:
		if d := w.a.acquireDecl(calleeOf(w.p, r)); d != nil {
			st.slots = append(st.slots, &resSlot{
				decl:   d,
				names:  map[string]bool{lhs0.Name: true},
				acqPos: n.Pos(),
			})
		}
	case *ast.Ident:
		if sl := st.find(r.Name); sl != nil {
			sl.names[lhs0.Name] = true
		}
	}
}

func (w *rwalk) walkDefer(n *ast.DeferStmt, st *rstate) {
	callee := calleeOf(w.p, n.Call)
	relDecl := w.a.releaseDecl(callee)
	if relDecl == nil {
		for i, fwd := range w.a.releases(callee) {
			if fwd && i < len(n.Call.Args) {
				if sl := st.find(baseIdentName(n.Call.Args[i])); sl != nil {
					w.markDeferred(sl, n.Pos())
					return
				}
			}
		}
		if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
			// A deferred closure that releases counts as a deferred release.
			ast.Inspect(fl.Body, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				if rd := w.a.releaseDecl(calleeOf(w.p, call)); rd != nil && len(call.Args) > 0 {
					if sl := st.find(baseIdentName(call.Args[0])); sl != nil {
						w.markDeferred(sl, call.Pos())
					}
				}
				return true
			})
			return
		}
		for _, arg := range n.Call.Args {
			w.scanExpr(arg, st)
		}
		return
	}
	if relDecl.argKeyed {
		return // deferred Unmap: nothing path-sensitive to track
	}
	if len(n.Call.Args) > 0 {
		if sl := st.find(baseIdentName(n.Call.Args[0])); sl != nil {
			w.markDeferred(sl, n.Pos())
		}
	}
}

func (w *rwalk) markDeferred(sl *resSlot, pos token.Pos) {
	if sl.released {
		w.a.reportOnce(pos,
			"%s value already released at %s; the deferred release will run it again",
			sl.decl.name, w.a.fset.Position(sl.relPos))
		return
	}
	sl.deferred = true
}

func (w *rwalk) walkIf(n *ast.IfStmt, st *rstate) bool {
	if n.Init != nil {
		w.walkStmt(n.Init, st)
	}
	w.scanExpr(n.Cond, st)
	thenSt := st.copy()
	elseSt := st.copy()
	tTerm := w.walkBlock(n.Body, thenSt)
	eTerm := false
	if n.Else != nil {
		eTerm = w.walkStmt(n.Else, elseSt)
	}
	switch {
	case tTerm && eTerm:
		return true
	case tTerm:
		*st = *elseSt
	case eTerm:
		*st = *thenSt
	default:
		*st = *mergeStates(thenSt, elseSt)
	}
	return false
}

// mergeStates joins two branch states. A value released on either path is
// released from here on; one acquired and released inside a single branch is
// finished with and dropped.
func mergeStates(a, b *rstate) *rstate {
	out := newRstate()
	matched := map[*resSlot]bool{}
	for _, sa := range a.slots {
		var sb *resSlot
		for _, cand := range b.slots {
			if cand.acqPos == sa.acqPos {
				sb = cand
				break
			}
		}
		if sb == nil {
			if !sa.released {
				out.slots = append(out.slots, sa.copy())
			}
			continue
		}
		matched[sb] = true
		m := sa.copy()
		for k := range sb.names {
			m.names[k] = true
		}
		m.deferred = sa.deferred && sb.deferred
		if sb.released && !m.released {
			m.released, m.relPos = true, sb.relPos
		}
		out.slots = append(out.slots, m)
	}
	for _, sb := range b.slots {
		if !matched[sb] && !sb.released {
			out.slots = append(out.slots, sb.copy())
		}
	}
	// Arg-keyed releases merge by intersection: only keys released on every
	// path count toward double-release detection.
	for k, p := range a.relKeys {
		if _, ok := b.relKeys[k]; ok {
			out.relKeys[k] = p
		}
	}
	return out
}

// walkLoopBody walks a loop body once on a forked state and adopts its
// releases of pre-existing values (assume the loop runs).
func (w *rwalk) walkLoopBody(body *ast.BlockStmt, st *rstate) {
	sub := st.copy()
	w.walkBlock(body, sub)
	for _, p := range st.slots {
		for _, s := range sub.slots {
			if s.acqPos == p.acqPos && s.released {
				p.released, p.relPos = true, s.relPos
				break
			}
		}
	}
}

func (w *rwalk) walkCases(body *ast.BlockStmt, st *rstate, implicitSkip bool) bool {
	var survivors []*rstate
	hasDefault := false
	for _, cs := range body.List {
		var stmts []ast.Stmt
		switch c := cs.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.scanExpr(e, st)
			}
			if c.List == nil {
				hasDefault = true
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				w.walkStmt(c.Comm, st.copy())
			} else {
				hasDefault = true
			}
			stmts = c.Body
		}
		cst := st.copy()
		term := false
		for _, s := range stmts {
			if w.walkStmt(s, cst) {
				term = true
				break
			}
		}
		if !term {
			survivors = append(survivors, cst)
		}
	}
	if implicitSkip && !hasDefault {
		survivors = append(survivors, st.copy())
	}
	if len(survivors) == 0 {
		return len(body.List) > 0
	}
	merged := survivors[0]
	for _, s := range survivors[1:] {
		merged = mergeStates(merged, s)
	}
	*st = *merged
	return false
}
