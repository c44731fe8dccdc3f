package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// monitored lists the error-returning durability APIs whose results must
// not be silently dropped: losing one of these errors can acknowledge a
// commit whose bytes never reached stable storage (paper §3, recovery).
// Keys are "importPath.Type"; values are the method sets.
var monitored = map[string]map[string]bool{
	"os.File": {
		"Sync": true, "Close": true, "Write": true,
		"WriteAt": true, "WriteString": true, "Truncate": true,
	},
	"bess/internal/wal.Log":     {"Append": true, "Flush": true, "Close": true},
	"bess/internal/wal.backing": {"Sync": true, "Close": true, "WriteAt": true},
	"bess/internal/area.Area": {
		"WriteRun": true, "WriteUnlogged": true, "AllocSegment": true, "FreeSegment": true,
		"EnsureSegment": true, "Sync": true, "Close": true,
	},
	"bess/internal/area.store":     {"Sync": true, "Close": true, "WriteAt": true, "Truncate": true},
	"bess/internal/largeobj.Store": {"WriteRun": true}, // a run store's Free keeps the run
	"bess/internal/server.Server":  {"Close": true},
}

// monitoredCall reports whether call is a monitored method invocation and
// returns its display name ("(*os.File).Sync").
func monitoredCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", false
	}
	key := obj.Pkg().Path() + "." + obj.Name()
	if ms, ok := monitored[key]; ok && ms[fn.Name()] {
		return "(" + obj.Name() + ")." + fn.Name(), true
	}
	return "", false
}

// analyzeDurability flags silently dropped and shadowed errors from the
// monitored calls. An explicit `_ = f.Close()` is a visible, reviewable
// decision and is permitted; a bare expression statement or a bare defer is
// not — the reader cannot tell a decided discard from an oversight.
func analyzeDurability(pkgs []*pkg, r *reporter) {
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				analyzeDurabilityFunc(p, fd, r)
			}
		}
	}
}

func analyzeDurabilityFunc(p *pkg, fd *ast.FuncDecl, r *reporter) {
	info := p.info
	// Pass 1: dropped results.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if name, ok := monitoredCall(info, call); ok {
					r.report(call.Pos(), "durability",
						"result of %s is silently dropped; handle the error or discard it explicitly with _ =", name)
				}
			}
		case *ast.DeferStmt:
			if name, ok := monitoredCall(info, s.Call); ok {
				r.report(s.Call.Pos(), "durability",
					"deferred %s drops its error; use a named return and errors.Join, or discard explicitly inside a closure", name)
			}
		case *ast.GoStmt:
			if name, ok := monitoredCall(info, s.Call); ok {
				r.report(s.Call.Pos(), "durability",
					"go %s discards its error in a goroutine nobody observes", name)
			}
		}
		return true
	})
	// Pass 2: shadowed errors — an error variable assigned from a monitored
	// call and never read before being overwritten or going out of scope.
	analyzeShadowed(p, fd, r)
}

// errAssign is one `v = monitoredCall()` site.
type errAssign struct {
	obj  types.Object
	pos  token.Pos
	name string // monitored call display name
}

func analyzeShadowed(p *pkg, fd *ast.FuncDecl, r *reporter) {
	info := p.info
	var assigns []errAssign
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := monitoredCall(info, call)
		if !ok {
			return true
		}
		// The error result is the last LHS operand by Go convention.
		last := as.Lhs[len(as.Lhs)-1]
		id, ok := last.(*ast.Ident)
		if !ok || id.Name == "_" {
			return true // blank discard: explicitly permitted
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || !isErrorType(obj.Type()) {
			return true
		}
		assigns = append(assigns, errAssign{obj: obj, pos: id.Pos(), name: name})
		return true
	})
	if len(assigns) == 0 {
		return
	}
	// For each assignment, look for a read of the same object after the
	// assignment and before the next write to it.
	for _, a := range assigns {
		nextWrite := token.Pos(fd.Body.End())
		read := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || id.Pos() <= a.pos || id.Pos() >= nextWrite {
				return true
			}
			obj := info.Uses[id]
			if obj == nil {
				obj = info.Defs[id]
			}
			if obj != a.obj {
				return true
			}
			if isWriteTarget(fd.Body, id) {
				if id.Pos() < nextWrite {
					nextWrite = id.Pos()
				}
				return true
			}
			read = true
			return true
		})
		if !read {
			r.report(a.pos, "durability",
				"error from %s assigned to %s but never checked before it is overwritten or discarded", a.name, a.obj.Name())
		}
	}
}

func isErrorType(t types.Type) bool {
	return t != nil && strings.HasSuffix(t.String(), "error")
}

// isWriteTarget reports whether id appears as an assignment LHS.
func isWriteTarget(root ast.Node, id *ast.Ident) bool {
	write := false
	ast.Inspect(root, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, l := range as.Lhs {
			if l == id {
				write = true
			}
		}
		return true
	})
	return write
}
