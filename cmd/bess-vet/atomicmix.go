package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// atomicmix keeps atomic access a property of a variable's type. A plain
// integer touched through sync/atomic's package-level functions is atomic only
// where somebody remembered — one plain load next to atomic.AddInt64 is a
// race, and a 64-bit one at a 4-aligned offset faults on 32-bit layouts — and
// policing that takes a taint analysis over every access of every such field.
// The typed atomics (atomic.Int64 and friends) make both mistakes
// unrepresentable, and they are all this tree uses, so the rule is the one
// the types already enforce: any call of atomic.LoadX, StoreX, AddX, SwapX or
// CompareAndSwapX is a finding.
func analyzeAtomicMix(pkgs []*pkg, r *reporter) {
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
				fn, ok := p.info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || fn.Type().(*types.Signature).Recv() != nil {
					return true
				}
				for _, op := range []string{"Load", "Store", "Add", "Swap", "CompareAndSwap"} {
					if strings.HasPrefix(fn.Name(), op) {
						r.report(call.Pos(), "atomicmix",
							"atomic.%s on a plain variable: give the variable a typed atomic (atomic.Int64, atomic.Pointer[T], ...) so that no access can be anything else",
							fn.Name())
						break
					}
				}
				return true
			})
		}
	}
}
