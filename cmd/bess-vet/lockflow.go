package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// Event kinds produced by the lock-flow walk of one function. Each event
// carries a snapshot of the locks the executing goroutine holds at that
// point, so the analyzers (guarded, defers) are straight-line consumers with
// no flow logic of their own. Lock order is not among them: internal/lockcheck
// checks it at run time under -tags invariants.
type eventKind int

const (
	evAccess     eventKind = iota // a read or write of an annotated struct field
	evExit                        // a return statement or fall-off-the-end
	evBranchLeak                  // a lock held on some but not all branch paths
)

type heldLock struct {
	name     string // instance identity, e.g. "s.areaMu", "l.mu"
	shared   bool   // held via RLock
	deferred bool   // a defer guarantees the release
	contract bool   // seeded by an AssertHeld call (caller owns the release)
	pos      token.Pos
}

type event struct {
	kind  eventKind
	pos   token.Pos
	held  []heldLock // snapshot before the event takes effect
	name  string     // access: owner expr; branchLeak: instance
	field *types.Var // evAccess
	write bool       // evAccess
	inLit bool       // evExit: exit of a function literal, not the function itself
}

// flowResult is the per-function output of the walk.
type flowResult struct {
	events    []event
	contracts []string // locks the function asserts its caller holds
}

type fstate struct {
	held []heldLock
}

func (st *fstate) clone() *fstate {
	return &fstate{held: append([]heldLock(nil), st.held...)}
}

// merge keeps the locks held on both paths; a release is deferred only if
// both deferred it.
func (st *fstate) merge(o *fstate) *fstate {
	out := &fstate{}
	for _, h := range st.held {
		for _, oh := range o.held {
			if oh.name == h.name {
				h.deferred = h.deferred && oh.deferred
				out.held = append(out.held, h)
				break
			}
		}
	}
	return out
}

func (st *fstate) find(name string) int {
	for i := len(st.held) - 1; i >= 0; i-- {
		if st.held[i].name == name {
			return i
		}
	}
	return -1
}

// flow is the lock-flow analysis: the pathHooks the shared walker drives.
type flow struct {
	walk     pathWalker[*fstate]
	p        *pkg
	guards   guards
	res      *flowResult
	exempt   map[types.Object]bool // locals still private to this function
	litDepth int                   // >0 while walking a function literal body
}

// flowsOf runs the lock-flow walk over every function in the package.
func flowsOf(p *pkg, g guards) []*flowResult {
	var out []*flowResult
	for _, f := range p.files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				out = append(out, walkFunc(p, g, fd))
			}
		}
	}
	return out
}

// walkFunc runs the lock-flow analysis over one function declaration.
func walkFunc(p *pkg, g guards, decl *ast.FuncDecl) *flowResult {
	res := &flowResult{}
	if decl.Body == nil {
		return res
	}
	w := &flow{p: p, guards: g, res: res, exempt: make(map[types.Object]bool)}
	w.walk.h = w
	w.body(decl.Body, &fstate{})
	return res
}

// body walks one function or literal body from st; falling off its end is an
// exit too.
func (w *flow) body(b *ast.BlockStmt, st *fstate) {
	if st, ended := w.walk.block(b, st); !ended {
		w.exit(b.End(), st)
	}
}

func (w *flow) snap(st *fstate) []heldLock { return st.clone().held }

func (w *flow) exit(pos token.Pos, st *fstate) {
	w.res.events = append(w.res.events, event{kind: evExit, pos: pos, held: w.snap(st), inLit: w.litDepth > 0})
}

// --- expression rendering and lock-op classification ---

// render prints the receiver expression of a lock op or field access in a
// canonical textual form; "" means unrepresentable (and untracked).
func render(e ast.Expr) string {
	switch n := e.(type) {
	case *ast.Ident:
		return n.Name
	case *ast.SelectorExpr:
		base := render(n.X)
		if base == "" {
			return ""
		}
		return base + "." + n.Sel.Name
	case *ast.IndexExpr:
		base := render(n.X)
		idx := render(n.Index)
		if base == "" {
			return ""
		}
		if idx == "" {
			idx = "?"
		}
		return base + "[" + idx + "]"
	case *ast.ParenExpr:
		return render(n.X)
	case *ast.StarExpr:
		return render(n.X)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			return render(n.X)
		}
	case *ast.BasicLit:
		return n.Value
	}
	return ""
}

// baseObject returns the types.Object of the leftmost identifier of an
// owner expression (for the constructor-local exemption).
func (w *flow) baseObject(e ast.Expr) types.Object {
	for {
		switch n := e.(type) {
		case *ast.Ident:
			return w.p.info.Uses[n]
		case *ast.SelectorExpr:
			e = n.X
		case *ast.IndexExpr:
			e = n.X
		case *ast.ParenExpr:
			e = n.X
		case *ast.StarExpr:
			e = n.X
		default:
			return nil
		}
	}
}

type lockOp struct {
	name   string // rendered instance
	method string // Lock, RLock, Unlock, RUnlock, TryLock, TryRLock, AssertHeld
}

var lockMethods = map[string]bool{
	"Lock": true, "RLock": true, "Unlock": true,
	"RUnlock": true, "TryLock": true, "TryRLock": true, "AssertHeld": true,
}

// asLockOp classifies call as an operation on a sync or lockcheck mutex.
func (w *flow) asLockOp(call *ast.CallExpr) *lockOp {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !lockMethods[sel.Sel.Name] {
		return nil
	}
	t := w.p.info.TypeOf(sel.X)
	for _, path := range []string{"sync", "internal/lockcheck"} {
		if isNamedIn(t, path, "Mutex") || isNamedIn(t, path, "RWMutex") {
			return &lockOp{name: render(sel.X), method: sel.Sel.Name}
		}
	}
	return nil
}

func (w *flow) applyAcquire(op *lockOp, pos token.Pos, st *fstate) {
	shared := op.method == "RLock" || op.method == "TryRLock"
	st.held = append(st.held, heldLock{name: op.name, shared: shared, contract: slices.Contains(w.res.contracts, op.name), pos: pos})
}

// applyAssert seeds the state from x.mu.AssertHeld(): the caller acquired
// x.mu and will release it; the body may unlock and relock it but must exit
// with it held. An assertion of a lock the function took itself adds nothing,
// and one in a function literal binds only the literal's body.
func (w *flow) applyAssert(op *lockOp, pos token.Pos, st *fstate) {
	if st.find(op.name) >= 0 {
		return
	}
	if w.litDepth == 0 && !slices.Contains(w.res.contracts, op.name) {
		w.res.contracts = append(w.res.contracts, op.name)
	}
	st.held = append(st.held, heldLock{name: op.name, contract: true, pos: pos})
}

func (w *flow) applyRelease(op *lockOp, st *fstate) {
	if i := st.find(op.name); i >= 0 {
		st.held = append(st.held[:i], st.held[i+1:]...)
	}
	// Releasing a lock the walker does not believe is held is not reported:
	// conditional-lock merges lose may-held entries by design.
}

// --- expression scanning ---

// expr walks an expression tree emitting call, access, and lock events.
func (w *flow) expr(e ast.Expr, st *fstate, write bool) {
	switch n := e.(type) {
	case nil:
		return
	case *ast.CallExpr:
		if op := w.asLockOp(n); op != nil {
			switch op.method {
			case "Lock", "RLock":
				w.applyAcquire(op, n.Pos(), st)
			case "TryLock", "TryRLock":
				// Outside the `if mu.TryLock()` form: treat as acquired
				// (conservative; failed tries never hold anything).
				w.applyAcquire(op, n.Pos(), st)
			case "Unlock", "RUnlock":
				w.applyRelease(op, st)
			case "AssertHeld":
				w.applyAssert(op, n.Pos(), st)
			}
			return
		}
		// delete(m.field, k) writes through the map field.
		if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" && len(n.Args) == 2 {
			w.expr(n.Args[0], st, true)
			w.expr(n.Args[1], st, false)
			return
		}
		for _, a := range n.Args {
			w.expr(a, st, false)
		}
		// Calls through selector chains read the chain.
		if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
			w.expr(sel.X, st, false)
		}
	case *ast.SelectorExpr:
		w.emitAccess(n, st, write)
		w.expr(n.X, st, false)
	case *ast.IndexExpr:
		// Indexing an annotated map/slice field reads or writes the field.
		w.expr(n.X, st, write)
		w.expr(n.Index, st, false)
	case *ast.IndexListExpr:
		w.expr(n.X, st, write)
		for _, ix := range n.Indices {
			w.expr(ix, st, false)
		}
	case *ast.SliceExpr:
		w.expr(n.X, st, write)
		w.expr(n.Low, st, false)
		w.expr(n.High, st, false)
		w.expr(n.Max, st, false)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			// Taking a field's address escapes it; require the write lock.
			w.expr(n.X, st, true)
			return
		}
		w.expr(n.X, st, false)
	case *ast.BinaryExpr:
		w.expr(n.X, st, false)
		w.expr(n.Y, st, false)
	case *ast.ParenExpr:
		w.expr(n.X, st, write)
	case *ast.StarExpr:
		w.expr(n.X, st, write)
	case *ast.TypeAssertExpr:
		w.expr(n.X, st, false)
	case *ast.CompositeLit:
		for _, el := range n.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.expr(kv.Value, st, false)
				continue
			}
			w.expr(el, st, false)
		}
	case *ast.FuncLit:
		// A function literal runs in its own dynamic context (goroutine,
		// callback, deferred cleanup): analyze with an empty held set.
		w.litDepth++
		w.body(n.Body, &fstate{})
		w.litDepth--
	case *ast.KeyValueExpr:
		w.expr(n.Value, st, false)
	}
}

// emitAccess reports a field read/write when the field carries a
// `guarded by` annotation and the owner is not a constructor-local value.
func (w *flow) emitAccess(sel *ast.SelectorExpr, st *fstate, write bool) {
	s, ok := w.p.info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	fieldVar, ok := s.Obj().(*types.Var)
	if !ok {
		return
	}
	if _, guarded := w.guards[fieldVar]; !guarded {
		return
	}
	if base := w.baseObject(sel.X); base != nil && w.exempt[base] {
		return
	}
	w.res.events = append(w.res.events, event{
		kind: evAccess, pos: sel.Pos(), held: w.snap(st),
		name: render(sel.X), field: fieldVar, write: write,
	})
}

// --- statements: the hooks the shared walker calls ---

// isConstructorRHS reports whether e builds a brand-new value (composite
// literal, &literal, or new(T)) that no other goroutine can reference yet.
func isConstructorRHS(e ast.Expr) bool {
	switch n := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			_, ok := n.X.(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

func (w *flow) assign(n *ast.AssignStmt, st *fstate) {
	for _, r := range n.Rhs {
		w.expr(r, st, false)
	}
	for i, l := range n.Lhs {
		if id, ok := l.(*ast.Ident); ok {
			if n.Tok == token.DEFINE && i < len(n.Rhs) && isConstructorRHS(n.Rhs[i]) {
				if obj := w.p.info.Defs[id]; obj != nil {
					w.exempt[obj] = true
				}
			}
			continue // writes to locals carry no annotation
		}
		w.expr(l, st, true)
	}
}

func (w *flow) send(n *ast.SendStmt, st *fstate) {
	w.expr(n.Chan, st, false)
	w.expr(n.Value, st, false)
}

// spawn: the new goroutine starts with an empty held set.
func (w *flow) spawn(n *ast.GoStmt, st *fstate) {
	if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
		w.litDepth++
		w.body(fl.Body, &fstate{})
		w.litDepth--
	}
	for _, a := range n.Call.Args {
		w.expr(a, st, false)
	}
}

// deferred handles `defer X`: unlock defers satisfy every exit path.
func (w *flow) deferred(n *ast.DeferStmt, st *fstate) {
	if op := w.asLockOp(n.Call); op != nil {
		if op.method == "Unlock" || op.method == "RUnlock" {
			if i := st.find(op.name); i >= 0 {
				st.held[i].deferred = true
			}
		}
		return
	}
	if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
		// A deferred closure that unlocks counts as a deferred release.
		ast.Inspect(fl.Body, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				if op := w.asLockOp(call); op != nil && (op.method == "Unlock" || op.method == "RUnlock") {
					if i := st.find(op.name); i >= 0 {
						st.held[i].deferred = true
					}
				}
			}
			return true
		})
		return
	}
	for _, a := range n.Call.Args {
		w.expr(a, st, false)
	}
}

// tryLockCond matches `mu.TryLock()` / `!mu.TryLock()` conditions.
// Returns the op and whether the then-branch is the success branch.
func (w *flow) tryLockCond(cond ast.Expr) (*lockOp, bool) {
	neg := false
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		neg = true
		cond = u.X
	}
	call, ok := cond.(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	op := w.asLockOp(call)
	if op == nil || (op.method != "TryLock" && op.method != "TryRLock") {
		return nil, false
	}
	return op, !neg
}

// cond: `if mu.TryLock()` holds the lock on one arm only.
func (w *flow) cond(e ast.Expr, st *fstate) (*fstate, *fstate) {
	op, thenHolds := w.tryLockCond(e)
	if op == nil {
		return forkAfter[*fstate](w, e, st)
	}
	thenSt, elseSt := st, st.clone()
	if thenHolds {
		w.applyAcquire(op, e.Pos(), thenSt)
	} else {
		w.applyAcquire(op, e.Pos(), elseSt)
	}
	return thenSt, elseSt
}

// rejoin flags locks held after one branch but not another — the
// conditionally-leaked-lock bug class (an un-released TryLock arm, or a
// Lock with the Unlock only on one path).
func (w *flow) rejoin(pos token.Pos, a, b *fstate) {
	report := func(only *fstate, other *fstate) {
		for _, h := range only.held {
			if h.deferred || h.contract {
				continue
			}
			if other.find(h.name) < 0 {
				w.res.events = append(w.res.events, event{
					kind: evBranchLeak, pos: pos, name: h.name, held: []heldLock{h},
				})
			}
		}
	}
	report(a, b)
	report(b, a)
}
