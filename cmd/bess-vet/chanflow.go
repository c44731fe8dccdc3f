package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// --- chanflow: channel protocol discipline ---
//
// Two checks:
//
//   - double-close and send-after-close: the shared path walker (pathwalk.go)
//     tracks definitely-closed channels through each function (merging
//     keeps what both paths closed, a reassignment makes the channel fresh)
//     and flags a second close or a later send.
//   - blocked-forever sender: a send inside a function literal handed to
//     goleak.Group.Go, on a channel made unbuffered in this package, with no
//     select escape (a default or a receive case alongside it), blocks
//     forever once the receiver is gone — the classic leaked-sender shape,
//     and one a Group cannot stop.

func analyzeChanFlow(pkgs []*pkg, r *reporter) {
	for _, p := range pkgs {
		c := &chanflow{p: p, r: r, unbuffered: unbufferedChans(p)}
		c.walk.h = c
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				c.walkFresh(fd.Body)
				c.checkGoroutineBodies(fd.Body)
			}
		}
	}
}

type chanflow struct {
	walk       pathWalker[closedState]
	p          *pkg
	r          *reporter
	unbuffered map[types.Object]bool
}

// unbufferedChans records every object (local or struct field) assigned a
// make(chan T) with no capacity in the package.
func unbufferedChans(p *pkg) map[types.Object]bool {
	out := make(map[types.Object]bool)
	record := func(target ast.Expr, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "make" {
			return
		}
		if t := p.info.TypeOf(call.Args[0]); t != nil {
			if _, ok := t.Underlying().(*types.Chan); !ok {
				return
			}
		}
		if o := chanTarget(p, target); o != nil {
			out[o] = true
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range s.Lhs {
					if i < len(s.Rhs) {
						record(lhs, s.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					if i < len(s.Values) {
						record(name, s.Values[i])
					}
				}
			case *ast.CompositeLit:
				st, ok := p.info.TypeOf(s).Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for _, el := range s.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					for i := 0; i < st.NumFields(); i++ {
						if st.Field(i).Name() == key.Name {
							record(key, kv.Value)
						}
					}
				}
			}
			return true
		})
	}
	return out
}

// --- path-sensitive close tracking ---

// closedState maps a channel object to the position of its close on the
// current path.
type closedState map[types.Object]token.Pos

func (s closedState) clone() closedState {
	out := make(closedState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// merge keeps only channels closed on both paths.
func (s closedState) merge(other closedState) closedState {
	out := make(closedState)
	for k, v := range s {
		if _, ok := other[k]; ok {
			out[k] = v
		}
	}
	return out
}

// walkFresh walks a function (or literal) body with an empty closed set.
func (c *chanflow) walkFresh(body *ast.BlockStmt) {
	c.walk.block(body, make(closedState))
}

func (c *chanflow) assign(s *ast.AssignStmt, st closedState) {
	for _, rhs := range s.Rhs {
		c.expr(rhs, st, false)
	}
	// Reassignment makes the channel a fresh value.
	for _, lhs := range s.Lhs {
		if o := chanTarget(c.p, lhs); o != nil {
			delete(st, o)
		}
	}
}

func (c *chanflow) send(s *ast.SendStmt, st closedState) {
	c.checkSend(s, st)
	c.walkNestedLits(s)
}

func (c *chanflow) cond(e ast.Expr, st closedState) (closedState, closedState) {
	return forkAfter[closedState](c, e, st)
}

// deferred: a deferred close runs at function exit; it does not close the
// channel for the statements that follow on this path.
func (c *chanflow) deferred(s *ast.DeferStmt, _ closedState) { c.walkNestedLits(s) }
func (c *chanflow) spawn(s *ast.GoStmt, _ closedState)       { c.walkNestedLits(s) }
func (c *chanflow) exit(token.Pos, closedState)              {}
func (c *chanflow) rejoin(_ token.Pos, _, _ closedState)     {}

// expr records close(ch) calls and walks nested literals as fresh
// functions.
func (c *chanflow) expr(e ast.Expr, st closedState, _ bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			c.walkFresh(x.Body)
			return false
		case *ast.CallExpr:
			id, ok := ast.Unparen(x.Fun).(*ast.Ident)
			if !ok || id.Name != "close" || len(x.Args) != 1 {
				return true
			}
			o := chanTarget(c.p, x.Args[0])
			if o == nil {
				return true
			}
			if first, closed := st[o]; closed {
				c.r.report(x.Pos(), "chanflow",
					"double close of %s on this path (already closed at line %d)",
					render(x.Args[0]), c.p.fset.Position(first).Line)
			} else {
				st[o] = x.Pos()
			}
			return false
		}
		return true
	})
}

func (c *chanflow) checkSend(s *ast.SendStmt, st closedState) {
	o := chanTarget(c.p, s.Chan)
	if o == nil {
		return
	}
	if first, closed := st[o]; closed {
		c.r.report(s.Pos(), "chanflow",
			"send on %s after close on this path (closed at line %d)",
			render(s.Chan), c.p.fset.Position(first).Line)
	}
}

// walkNestedLits walks function literals inside stmt as fresh functions.
func (c *chanflow) walkNestedLits(stmt ast.Stmt) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			c.walkFresh(lit.Body)
			return false
		}
		return true
	})
}

// --- goroutine-literal checks ---

// checkGoroutineBodies applies the blocked-sender check to every function
// literal root hands to Group.Go.
func (c *chanflow) checkGoroutineBodies(root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 2 && groupCall(c.p, call, "Go") != nil {
			if lit, ok := ast.Unparen(call.Args[1]).(*ast.FuncLit); ok {
				c.checkSpawnedLit(lit)
			}
		}
		return true
	})
}

func (c *chanflow) checkSpawnedLit(lit *ast.FuncLit) {
	// Sends that sit in a select alongside an escape (default or a receive
	// case) cannot block forever.
	escaped := make(map[*ast.SendStmt]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasEscape := false
		var sends []*ast.SendStmt
		for _, cl := range sel.Body.List {
			comm, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			switch s := comm.Comm.(type) {
			case nil:
				hasEscape = true // default case
			case *ast.SendStmt:
				sends = append(sends, s)
			default:
				hasEscape = true // a receive case
			}
		}
		if hasEscape {
			for _, s := range sends {
				escaped[s] = true
			}
		}
		return true
	})

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if s, ok := n.(*ast.SendStmt); ok && !escaped[s] {
			if o := chanTarget(c.p, s.Chan); o != nil && c.unbuffered[o] {
				c.r.report(s.Pos(), "chanflow",
					"unbuffered send on %s from a goroutine with no select escape: the sender blocks forever once the receiver is gone",
					render(s.Chan))
			}
		}
		return true
	})
}

// chanTarget resolves x or s.f to a stable object: a struct field var or a
// local/package object.
func chanTarget(p *pkg, e ast.Expr) types.Object {
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
