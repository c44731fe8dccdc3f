package main

import (
	"go/ast"
	"go/token"
	"strings"
)

// pathState is what a flow analysis knows on one execution path: clone forks
// it where paths part, merge is what holds after two of them meet.
type pathState[S any] interface {
	clone() S
	merge(S) S
}

// pathHooks is one flow analysis (lockflow, chanflow) as the walker sees it.
// Hooks update st in place; the walker alone forks and merges.
type pathHooks[S any] interface {
	// expr: e is evaluated; write marks a store through it.
	expr(e ast.Expr, st S, write bool)
	assign(n *ast.AssignStmt, st S)
	send(n *ast.SendStmt, st S)
	// cond evaluates an if condition and returns the states its two arms
	// start from (forkAfter, unless the condition itself tells them apart).
	cond(e ast.Expr, st S) (then, els S)
	deferred(n *ast.DeferStmt, st S)
	spawn(n *ast.GoStmt, st S)
	// exit: a return statement, after its results were evaluated.
	exit(pos token.Pos, st S)
	// rejoin: two paths that parted meet again at pos without either having
	// ended — both arms of an if, or a loop body and the path that skips it.
	rejoin(pos token.Pos, a, b S)
}

// forkAfter is the cond of a condition that says nothing about the state.
func forkAfter[S pathState[S]](h pathHooks[S], e ast.Expr, st S) (S, S) {
	h.expr(e, st, false)
	return st, st.clone()
}

// pathWalker is the one statement walker of bess-vet's path-sensitive
// analyzers. Branch arms start from a fork of the state and the arms that
// fall through are merged; a loop body is walked once on a fork that is then
// dropped (it may run zero times); a switch with no default also has the
// path on which no case matched; break, continue, goto, return and calls
// that do not return end a path.
type pathWalker[S pathState[S]] struct{ h pathHooks[S] }

// block walks b from st and returns the state after it and whether the path
// ended inside.
func (w pathWalker[S]) block(b *ast.BlockStmt, st S) (S, bool) { return w.stmts(b.List, st) }

func (w pathWalker[S]) stmts(list []ast.Stmt, st S) (S, bool) {
	for _, s := range list {
		var ended bool
		if st, ended = w.stmt(s, st); ended {
			return st, true
		}
	}
	return st, false
}

// simple walks an optional init or post statement.
func (w pathWalker[S]) simple(s ast.Stmt, st S) S {
	if s != nil {
		st, _ = w.stmt(s, st)
	}
	return st
}

func (w pathWalker[S]) stmt(s ast.Stmt, st S) (S, bool) {
	h := w.h
	switch n := s.(type) {
	case *ast.ExprStmt:
		h.expr(n.X, st, false)
		if call, ok := n.X.(*ast.CallExpr); ok && callTerminates(call) {
			return st, true
		}
	case *ast.AssignStmt:
		h.assign(n, st)
	case *ast.IncDecStmt:
		h.expr(n.X, st, true)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						h.expr(v, st, false)
					}
				}
			}
		}
	case *ast.SendStmt:
		h.send(n, st)
	case *ast.DeferStmt:
		h.deferred(n, st)
	case *ast.GoStmt:
		h.spawn(n, st)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			h.expr(r, st, false)
		}
		h.exit(n.Pos(), st)
		return st, true
	case *ast.BranchStmt:
		// break/continue/goto leave the enclosing construct, not the
		// function; the loop and switch walks treat them as path ends.
		return st, true
	case *ast.BlockStmt:
		return w.block(n, st)
	case *ast.LabeledStmt:
		return w.stmt(n.Stmt, st)
	case *ast.IfStmt:
		thenSt, elseSt := h.cond(n.Cond, w.simple(n.Init, st))
		thenSt, thenEnded := w.block(n.Body, thenSt)
		elseEnded := false
		if n.Else != nil {
			elseSt, elseEnded = w.stmt(n.Else, elseSt)
		}
		switch {
		case thenEnded:
			return elseSt, elseEnded
		case elseEnded:
			return thenSt, false
		}
		h.rejoin(n.End(), thenSt, elseSt)
		return thenSt.merge(elseSt), false
	case *ast.ForStmt:
		st = w.simple(n.Init, st)
		if n.Cond != nil {
			h.expr(n.Cond, st, false)
		}
		body, _ := w.block(n.Body, st.clone())
		h.rejoin(n.Body.End(), st, w.simple(n.Post, body))
	case *ast.RangeStmt:
		h.expr(n.X, st, false)
		body, _ := w.block(n.Body, st.clone())
		h.rejoin(n.Body.End(), st, body)
	case *ast.SwitchStmt:
		st = w.simple(n.Init, st)
		if n.Tag != nil {
			h.expr(n.Tag, st, false)
		}
		return w.cases(n.Body, st, true)
	case *ast.TypeSwitchStmt:
		return w.cases(n.Body, w.simple(n.Assign, w.simple(n.Init, st)), true)
	case *ast.SelectStmt:
		return w.cases(n.Body, st, false)
	}
	return st, false
}

// cases merges the clause bodies of a switch or select that fall through.
// noMatch adds the path on which no case matched, for a switch without a
// default clause.
func (w pathWalker[S]) cases(body *ast.BlockStmt, st S, noMatch bool) (S, bool) {
	var live []S
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch c := cl.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.h.expr(e, st, false)
			}
			noMatch = noMatch && c.List != nil
			stmts = c.Body
		case *ast.CommClause:
			// The communication happens on this clause's path only.
			w.simple(c.Comm, st.clone())
			stmts = c.Body
		}
		if cst, ended := w.stmts(stmts, st.clone()); !ended {
			live = append(live, cst)
		}
	}
	if noMatch {
		live = append(live, st)
	}
	if len(live) == 0 {
		return st, len(body.List) > 0
	}
	merged := live[0]
	for _, s := range live[1:] {
		merged = merged.merge(s)
	}
	return merged, false
}

// callTerminates reports whether a call never returns (panic, os.Exit, Fatal*).
func callTerminates(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if name == "Exit" || name == "Goexit" || strings.HasPrefix(name, "Fatal") {
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
