package main

import (
	"fmt"
	"go/token"
	"slices"
	"sort"
)

// finding is one diagnostic, printed as file:line: [analyzer] message.
type finding struct {
	pos      token.Position
	analyzer string
	msg      string
}

type reporter struct {
	fset     *token.FileSet
	findings []finding
}

func (r *reporter) report(pos token.Pos, analyzer, format string, args ...any) {
	r.findings = append(r.findings, finding{
		pos:      r.fset.Position(pos),
		analyzer: analyzer,
		msg:      fmt.Sprintf(format, args...),
	})
}

func (r *reporter) sorted() []finding {
	sort.Slice(r.findings, func(i, j int) bool {
		a, b := r.findings[i].pos, r.findings[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return r.findings[i].msg < r.findings[j].msg
	})
	return r.findings
}

// --- guarded: annotated fields only touched with their mutex held ---

func analyzeGuarded(flows []*flowResult, g guards, r *reporter) {
	for _, fr := range flows {
		for _, ev := range fr.events {
			if ev.kind != evAccess {
				continue
			}
			mu := g[ev.field]
			if mu == "" || ev.name == "" {
				continue
			}
			want := ev.name + "." + mu
			var got *heldLock
			for i := range ev.held {
				if ev.held[i].name == want {
					got = &ev.held[i]
					break
				}
			}
			verb := "read"
			if ev.write {
				verb = "write to"
			}
			if got == nil {
				r.report(ev.pos, "guarded",
					"%s %s.%s without holding %s (field is guarded by %s)",
					verb, ev.name, ev.field.Name(), want, mu)
				continue
			}
			if ev.write && got.shared {
				r.report(ev.pos, "guarded",
					"write to %s.%s under RLock of %s; writes require the exclusive lock",
					ev.name, ev.field.Name(), want)
			}
		}
	}
}

// --- defers: every acquisition released on every exit path ---

func analyzeDefers(flows []*flowResult, r *reporter) {
	for _, fr := range flows {
		for _, ev := range fr.events {
			switch ev.kind {
			case evExit:
				for _, h := range ev.held {
					if h.deferred || h.contract {
						continue
					}
					r.report(ev.pos, "defers",
						"%s still held at function exit (locked at %s) with no deferred or explicit release on this path",
						h.name, r.fset.Position(h.pos))
				}
				if ev.inLit {
					continue
				}
				for _, c := range fr.contracts {
					if !slices.ContainsFunc(ev.held, func(h heldLock) bool { return h.name == c }) {
						r.report(ev.pos, "defers",
							"exit path releases %s, but its AssertHeld says the caller holds it across the call",
							c)
					}
				}
			case evBranchLeak:
				r.report(ev.pos, "defers",
					"%s is held on one branch path but not the other at this merge point (missed Unlock or TryLock arm)",
					ev.name)
			}
		}
	}
}
