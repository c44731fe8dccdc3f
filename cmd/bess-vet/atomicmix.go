package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// atomicmix enforces the sync/atomic consistency rule: once any code path
// accesses a field through the sync/atomic functions, every access must be
// atomic. A plain load next to atomic.AddInt64 is a data race the race
// detector only catches when the schedule cooperates; this check catches it
// statically (the RacerD posture: one atomic access taints the field).
//
// It also checks 64-bit alignment: a plain int64/uint64 field used with the
// 64-bit atomic functions must sit at an 8-byte offset under the 32-bit
// layout, or 386/ARM builds fault at runtime. Typed atomics (atomic.Int64
// and friends) are exempt from both checks by construction — the type
// guarantees atomicity and carries its own alignment.

// atomicArgWidth maps sync/atomic function names (first argument is the
// target pointer) to the access width in bits.
var atomicArgWidth = map[string]int{
	"LoadInt32": 32, "LoadUint32": 32, "LoadInt64": 64, "LoadUint64": 64,
	"LoadUintptr": 0, "LoadPointer": 0,
	"StoreInt32": 32, "StoreUint32": 32, "StoreInt64": 64, "StoreUint64": 64,
	"StoreUintptr": 0, "StorePointer": 0,
	"AddInt32": 32, "AddUint32": 32, "AddInt64": 64, "AddUint64": 64,
	"AddUintptr": 0,
	"SwapInt32":  32, "SwapUint32": 32, "SwapInt64": 64, "SwapUint64": 64,
	"SwapUintptr": 0, "SwapPointer": 0,
	"CompareAndSwapInt32": 32, "CompareAndSwapUint32": 32,
	"CompareAndSwapInt64": 64, "CompareAndSwapUint64": 64,
	"CompareAndSwapUintptr": 0, "CompareAndSwapPointer": 0,
}

type atomicUse struct {
	pos   token.Pos // first atomic access site
	fn    string    // atomic function name, for the message
	has64 bool      // some access is 64-bit wide
}

func analyzeAtomicMix(pkgs []*pkg, dirs *directives, r *reporter) {
	tainted := map[*types.Var]*atomicUse{} // fields/vars accessed atomically
	inAtomic := map[ast.Node]bool{}        // &x.f nodes consumed by atomic calls

	// Pass 1: find every sync/atomic call and record its target.
	for _, p := range pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				width, ok := atomicArgWidth[sel.Sel.Name]
				if !ok || len(call.Args) == 0 {
					return true
				}
				pn, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				if pkgName, ok := p.info.Uses[pn].(*types.PkgName); !ok || pkgName.Imported().Path() != "sync/atomic" {
					return true
				}
				target := ast.Unparen(call.Args[0])
				un, ok := target.(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					return true
				}
				v := targetVar(p, un.X)
				if v == nil {
					return true
				}
				inAtomic[ast.Unparen(un.X)] = true
				u := tainted[v]
				if u == nil {
					u = &atomicUse{pos: call.Pos(), fn: sel.Sel.Name}
					tainted[v] = u
				}
				if width == 64 {
					u.has64 = true
				}
				return true
			})
		}
	}
	if len(tainted) == 0 {
		return
	}

	// Pass 2: flag plain accesses of tainted fields anywhere else.
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := p.info.Defs[fd.Name].(*types.Func); ok && dirs.prepublish[obj] {
					continue // value not yet shared: plain access is fine
				}
				checkPlainAccesses(p, fd, tainted, inAtomic, r)
			}
		}
	}

	// Pass 3: 64-bit atomics on plain integer fields must be 8-aligned
	// under the 32-bit layout.
	sizes := types.SizesFor("gc", "386")
	for v, u := range tainted {
		if !u.has64 || !isPlain64(v.Type()) {
			continue
		}
		owner, idx := owningStruct(pkgs, v)
		if owner == nil {
			continue
		}
		fields := make([]*types.Var, owner.NumFields())
		for i := range fields {
			fields[i] = owner.Field(i)
		}
		offsets := sizes.Offsetsof(fields)
		if off := offsets[idx]; off%8 != 0 {
			r.report(v.Pos(), "atomicmix",
				"field %s is a plain %s used with %s but sits at offset %d on 32-bit layouts; move it to an 8-aligned offset or use the atomic.Int64 type",
				v.Name(), v.Type().String(), u.fn, off)
		}
	}
}

// targetVar resolves &expr's operand to a struct field or package-level var.
func targetVar(p *pkg, e ast.Expr) *types.Var {
	switch n := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if s, ok := p.info.Selections[n]; ok && s.Kind() == types.FieldVal {
			if v, ok := s.Obj().(*types.Var); ok {
				return v
			}
		}
	case *ast.Ident:
		if v, ok := p.info.Uses[n].(*types.Var); ok && !v.IsField() && v.Parent() == p.tpkg.Scope() {
			return v
		}
	}
	return nil
}

func checkPlainAccesses(p *pkg, fd *ast.FuncDecl, tainted map[*types.Var]*atomicUse, inAtomic map[ast.Node]bool, r *reporter) {
	// Constructor-local exemption: values built from a composite literal in
	// this function are not shared yet.
	exempt := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		for i, l := range as.Lhs {
			if id, ok := l.(*ast.Ident); ok && i < len(as.Rhs) && isConstructorRHS(as.Rhs[i]) {
				if obj := p.info.Defs[id]; obj != nil {
					exempt[obj] = true
				}
			}
		}
		return true
	})

	// Writes: LHS of assignments and inc/dec targets.
	writes := map[ast.Node]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, l := range s.Lhs {
				writes[ast.Unparen(l)] = true
			}
		case *ast.IncDecStmt:
			writes[ast.Unparen(s.X)] = true
		}
		return true
	})

	report := func(pos token.Pos, v *types.Var, node ast.Node) {
		u := tainted[v]
		verb := "plain read of"
		if writes[node] {
			verb = "plain write to"
		}
		r.report(pos, "atomicmix",
			"%s %s, which is accessed atomically (%s at %s); every access must go through sync/atomic",
			verb, v.Name(), u.fn, p.fset.Position(u.pos))
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			if inAtomic[e] {
				return false
			}
			s, ok := p.info.Selections[e]
			if !ok || s.Kind() != types.FieldVal {
				return true
			}
			v, ok := s.Obj().(*types.Var)
			if !ok || tainted[v] == nil {
				return true
			}
			if base := baseIdentObj(p, e.X); base != nil && exempt[base] {
				return true
			}
			report(e.Pos(), v, e)
		case *ast.Ident:
			if inAtomic[e] {
				return true
			}
			v, ok := p.info.Uses[e].(*types.Var)
			if !ok || v.IsField() || tainted[v] == nil {
				return true
			}
			report(e.Pos(), v, e)
		}
		return true
	})
}

func isPlain64(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Int64 || b.Kind() == types.Uint64)
}

// owningStruct finds the struct type declaring field v and its index.
func owningStruct(pkgs []*pkg, v *types.Var) (*types.Struct, int) {
	for _, p := range pkgs {
		scope := p.tpkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == v {
					return st, i
				}
			}
		}
	}
	return nil, 0
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
