package main

import (
	"fmt"
	"go/token"
	"go/types"
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
	seen     map[string]bool // reportOnce's analyzer:file:line keys
}

func (r *reporter) report(pos token.Pos, analyzer, format string, args ...any) {
	r.findings = append(r.findings, finding{
		pos:      r.fset.Position(pos),
		analyzer: analyzer,
		msg:      fmt.Sprintf(format, args...),
	})
}

// reportOnce is report for the analyzers that can come to one site by two
// routes: at most one finding per analyzer and source line, which is also
// what a waiver covers.
func (r *reporter) reportOnce(pos token.Pos, analyzer, format string, args ...any) {
	p := r.fset.Position(pos)
	key := fmt.Sprintf("%s:%s:%d", analyzer, p.Filename, p.Line)
	if r.seen[key] {
		return
	}
	if r.seen == nil {
		r.seen = make(map[string]bool)
	}
	r.seen[key] = true
	r.report(pos, analyzer, format, args...)
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

// --- lockorder: hierarchy violations across the call graph ---

// acquireSummary is the set of ranked lock classes a function may acquire,
// directly or transitively (interface and closure calls are not resolved;
// the runtime checker covers those edges).
type acquireSummary map[string]token.Pos

// buildAcquires runs a fixpoint over the static call graph.
func buildAcquires(flows []*flowResult) map[*types.Func]acquireSummary {
	direct := make(map[*types.Func]acquireSummary)
	callees := make(map[*types.Func][]*types.Func)
	for _, fr := range flows {
		if fr.fn == nil {
			continue
		}
		acq := acquireSummary{}
		for _, ev := range fr.events {
			switch ev.kind {
			case evAcquire:
				if ev.class != "" {
					if _, ok := acq[ev.class]; !ok {
						acq[ev.class] = ev.pos
					}
				}
			case evCall:
				callees[fr.fn] = append(callees[fr.fn], ev.callee)
			}
		}
		direct[fr.fn] = acq
	}
	// Fixpoint: propagate callee acquisitions upward until stable.
	trans := make(map[*types.Func]acquireSummary, len(direct))
	for fn, acq := range direct {
		t := acquireSummary{}
		for k, v := range acq {
			t[k] = v
		}
		trans[fn] = t
	}
	for changed := true; changed; {
		changed = false
		for fn, cs := range callees {
			mine := trans[fn]
			if mine == nil {
				continue
			}
			for _, c := range cs {
				for class, pos := range trans[c] {
					if _, ok := mine[class]; !ok {
						mine[class] = pos
						changed = true
					}
				}
			}
		}
	}
	return trans
}

func analyzeLockOrder(flows []*flowResult, dirs *directives, r *reporter) {
	trans := buildAcquires(flows)
	for _, fr := range flows {
		for _, ev := range fr.events {
			switch ev.kind {
			case evAcquire:
				// Same-instance re-acquisition deadlocks regardless of rank.
				for _, h := range ev.held {
					if h.name == ev.name && !h.contract {
						if h.shared && ev.shared {
							r.report(ev.pos, "lockorder",
								"recursive RLock of %s (first RLock at %s): deadlocks against a queued writer",
								ev.name, r.fset.Position(h.pos))
						} else {
							r.report(ev.pos, "lockorder",
								"%s re-acquired while already held (locked at %s)",
								ev.name, r.fset.Position(h.pos))
						}
					}
				}
				rank := dirs.rank[ev.class]
				if rank == 0 {
					continue
				}
				for _, h := range ev.held {
					hr := dirs.rank[h.class]
					if hr == 0 || h.name == ev.name {
						continue
					}
					if hr >= rank {
						r.report(ev.pos, "lockorder",
							"acquiring %s (%s) while holding %s (%s) violates the declared order %s < %s",
							ev.name, ev.class, h.name, h.class, ev.class, h.class)
					}
				}
			case evCall:
				// A callee that (transitively) acquires a class ranked at or
				// below a lock we hold nests against the declared order.
				acq := trans[ev.callee]
				if len(acq) == 0 {
					continue
				}
				for _, h := range ev.held {
					hr := dirs.rank[h.class]
					if hr == 0 {
						continue
					}
					for class := range acq {
						cr := dirs.rank[class]
						if cr == 0 {
							continue
						}
						if class == h.class && ev.recvExpr != "" && fmtLockName(ev.recvExpr, class) == h.name {
							// Calling a //bess:holds helper on the same
							// instance is the contract case, checked below.
							continue
						}
						if cr <= hr {
							r.report(ev.pos, "lockorder",
								"call to %s may acquire %s while %s (%s) is held; declared order requires %s before %s",
								ev.callee.Name(), class, h.name, h.class, class, h.class)
						}
					}
				}
				// //bess:holds contract: the caller must hold recv.mu.
				if mu, ok := dirs.holds[ev.callee]; ok && ev.recvExpr != "" {
					want := ev.recvExpr + "." + mu
					holds := false
					for _, h := range ev.held {
						if h.name == want && !h.shared {
							holds = true
							break
						}
					}
					if !holds {
						r.report(ev.pos, "lockorder",
							"%s requires %s held (//bess:holds %s) but the caller does not hold it",
							ev.callee.Name(), want, mu)
					}
				}
			}
		}
	}
}

func fmtLockName(recvExpr, class string) string {
	// class is "Type.field": the instance the callee locks is recv.field.
	for i := len(class) - 1; i >= 0; i-- {
		if class[i] == '.' {
			return recvExpr + class[i:]
		}
	}
	return recvExpr
}

// --- guarded: annotated fields only touched with their mutex held ---

func analyzeGuarded(flows []*flowResult, dirs *directives, r *reporter) {
	for _, fr := range flows {
		if fr.fn != nil && dirs.prepublish[fr.fn] {
			continue
		}
		for _, ev := range fr.events {
			if ev.kind != evAccess {
				continue
			}
			mu := dirs.guarded[ev.field]
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

func analyzeDefers(flows []*flowResult, dirs *directives, r *reporter) {
	for _, fr := range flows {
		var contractName string
		if fr.fn != nil {
			if mu, ok := dirs.holds[fr.fn]; ok && fr.decl.Recv != nil &&
				len(fr.decl.Recv.List) > 0 && len(fr.decl.Recv.List[0].Names) > 0 {
				contractName = fr.decl.Recv.List[0].Names[0].Name + "." + mu
			}
		}
		for _, ev := range fr.events {
			switch ev.kind {
			case evExit:
				holdsContract := false
				for _, h := range ev.held {
					if h.name == contractName {
						holdsContract = true
					}
					if h.deferred || h.contract {
						continue
					}
					r.report(ev.pos, "defers",
						"%s still held at function exit (locked at %s) with no deferred or explicit release on this path",
						h.name, r.fset.Position(h.pos))
				}
				if contractName != "" && !ev.inLit && !holdsContract {
					r.report(ev.pos, "defers",
						"exit path releases %s, but //bess:holds requires it held on return",
						contractName)
				}
			case evBranchLeak:
				r.report(ev.pos, "defers",
					"%s is held on one branch path but not the other at this merge point (missed Unlock or TryLock arm)",
					ev.name)
			}
		}
	}
}
