package main

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// --- golife: a goroutine has an owner ---
//
// internal/goleak.Group starts, stops and joins every goroutine of the module
// (DESIGN.md §4e; a `go` statement outside internal/goleak is a row of
// tombstones_test.go). What a row cannot see is the owner: a struct that
// holds a Group in a named field must have a method that calls Stop or
// StopWithin on that field, since an owner that cannot stop what it starts is
// a leak with a type. A Group in a local variable is joined where the reader
// can see it.

const goleakPath = "internal/goleak"

func analyzeGoLife(pkgs []*pkg, r *reporter) {
	for _, p := range pkgs {
		if strings.HasSuffix(p.path, goleakPath) {
			continue
		}
		var held []types.Object
		stopped := map[types.Object]bool{}
		inMethod := false
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.StructType:
					for _, fld := range n.Fields.List {
						for _, name := range fld.Names {
							if isNamedIn(p.info.TypeOf(fld.Type), goleakPath, "Group") {
								held = append(held, p.info.Defs[name])
							}
						}
					}
				case *ast.FuncDecl:
					inMethod = n.Recv != nil
				case *ast.CallExpr:
					x, _ := groupCall(p, n, "Stop", "StopWithin").(*ast.SelectorExpr)
					if sel := p.info.Selections[x]; sel != nil && inMethod {
						stopped[sel.Obj()] = true
					}
				}
				return true
			})
		}
		for _, fld := range held {
			if !stopped[fld] {
				r.report(fld.Pos(), "golife", "goleak.Group %s is held by a struct none of whose methods calls Stop or StopWithin on it", fld.Name())
			}
		}
	}
}

// groupCall returns x when call is x.m(...) for a Group x and an m in methods.
func groupCall(p *pkg, call *ast.CallExpr, methods ...string) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !slices.Contains(methods, sel.Sel.Name) || !isNamedIn(p.info.TypeOf(sel.X), goleakPath, "Group") {
		return nil
	}
	return sel.X
}

// isNamedIn reports whether t, pointer-stripped, is the type called name of a
// package whose import path ends in pkgSuffix (fixtures carry stand-ins).
func isNamedIn(t types.Type, pkgSuffix, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == name && n.Obj().Pkg() != nil &&
		strings.HasSuffix(n.Obj().Pkg().Path(), pkgSuffix)
}
