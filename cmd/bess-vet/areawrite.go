package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// --- areawrite: the unlogged area writers are named ---
//
// A page whose history is in the log is written only on the proof of a
// record (DESIGN.md §4f, §5): redo, repair and a commit's write-back all
// reach the area through a wal.Pager. A bare area write could put bytes the
// log never saw over such a page, so a call of (*area.Area).WriteRun or
// WritePage outside internal/area is a finding unless it is made by
//
//   - a WriteRun whose first parameter is a []wal.Logged: a pager writing a
//     run of pages on the proofs it was handed, one per page;
//   - one of unloggedWriters, which write a page before it has a history:
//     a fresh segment's initial image, and the zeros a page that has none
//     is repaired to.

const areaPath = "internal/area"

// unloggedWriters are the functions of internal/server that may write an
// area without a record.
var unloggedWriters = map[string]bool{"formatSegment": true, "repairRange": true}

func analyzeAreaWrite(pkgs []*pkg, r *reporter) {
	for _, p := range pkgs {
		if strings.HasSuffix(p.path, areaPath) {
			continue
		}
		server := strings.HasSuffix(p.path, "internal/server")
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || server && unloggedWriters[fd.Name.Name] || writesOnProof(p, fd) {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
					if ok && (sel.Sel.Name == "WriteRun" || sel.Sel.Name == "WritePage") && isNamedIn(p.info.TypeOf(sel.X), areaPath, "Area") {
						r.report(call.Pos(), "areawrite",
							"%s writes an area with no record: log the change in a transaction, or write through a wal.Pager on its proof", sel.Sel.Name)
					}
					return true
				})
			}
		}
	}
}

// writesOnProof reports whether fd is a WriteRun whose first parameter is a
// []wal.Logged.
func writesOnProof(p *pkg, fd *ast.FuncDecl) bool {
	params := fd.Type.Params.List
	if fd.Name.Name != "WriteRun" || len(params) == 0 {
		return false
	}
	proofs, ok := p.info.TypeOf(params[0].Type).(*types.Slice)
	return ok && isNamedIn(proofs.Elem(), "internal/wal", "Logged")
}
