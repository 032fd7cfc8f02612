package analyze

import (
	"fmt"
	"sort"

	"cmo/internal/il"
	"cmo/internal/ipa"
)

// Facts is the high-level optimizer's published summary of the
// whole-program facts its transformations relied on. The audit does
// not trust any of it: every field is re-derived from the IL with all
// routines loaded and compared.
//
// This is the soundness side of the paper's section-5 selectivity
// argument: HLO only *scans* unselected routines, so every global
// fact it acts on (a global is never stored, a parameter is always
// the same constant, a function has no outside callers) must be
// conservative over the code it never re-reads.
type Facts struct {
	// Scope is the set of functions whose IL was routed through HLO
	// (nil means the whole program).
	Scope map[il.PID]bool
	// Stored is HLO's stored-global summary: every global it believes
	// may be written, including the driver-supplied ExternStored set
	// for out-of-scope code.
	Stored map[il.PID]bool
	// ExternallyCalled marks in-scope functions HLO believes may be
	// called from outside the scope.
	ExternallyCalled map[il.PID]bool
	// Volatile marks globals whose values are external inputs.
	Volatile map[il.PID]bool
	// Promoted lists globals whose loads HLO replaced with constants.
	Promoted map[il.PID]bool
	// IPCP lists the parameters HLO specialized to constants.
	IPCP []IPCPFact
	// Dead lists functions HLO proved unreachable; call sites inside
	// them are ignored by the audit (they can never execute).
	Dead map[il.PID]bool
	// Summaries is the interprocedural MOD/REF and purity table
	// (internal/ipa) HLO's fact-gated transforms consulted, nil when
	// the ipa stage did not run. The audit proves each summary still
	// conservative over the *post*-HLO program: every direct effect
	// of a summarized function is inside its summary, every surviving
	// call edge's callee summary is subsumed by the caller's (with a
	// missing callee summary requiring the caller be Top — the decay
	// rule for routines summarized out of scope at any SelectPercent),
	// and the purity labels agree with the sets. These local
	// conditions compose: if they hold on every function and edge,
	// the transitive closure HLO optimized against is sound.
	Summaries ipa.Summaries
}

// IPCPFact records one interprocedural constant-propagation decision:
// parameter Param (0-based) of Fn was pinned to Val.
type IPCPFact struct {
	Fn    il.PID
	Param int
	Val   int64
}

// AuditFacts independently recomputes global usage with every routine
// loaded and checks that the optimizer's summary facts are
// conservative over it:
//
//   - every global actually stored anywhere must appear in
//     facts.Stored ("facts-stored");
//   - every promoted global must be genuinely never-stored and
//     non-volatile ("facts-promotion");
//   - every in-scope function called from out-of-scope code must be
//     in facts.ExternallyCalled ("facts-extern-called");
//   - every IPCP'd parameter must still receive exactly its pinned
//     constant at every surviving live call site ("facts-ipcp");
//   - every published MOD/REF summary must cover the function's
//     post-HLO direct effects ("facts-modref"), subsume its surviving
//     callees' summaries — with unsummarized callees forcing Top
//     ("facts-modref-edge") — and carry a purity label its sets
//     justify ("facts-purity").
//
// Any error diagnostic from this audit means a selective build could
// differ observably from a full build — the exact bug class the
// paper's selectivity claim promises away.
func AuditFacts(prog *il.Program, src Source, facts Facts) []Diagnostic {
	inScope := func(pid il.PID) bool { return facts.Scope == nil || facts.Scope[pid] }

	// Ground truth, with all routines loaded: who stores which global,
	// who calls whom, and with what arguments.
	storedBy := make(map[il.PID]il.PID)      // global -> one storing function
	outsideCaller := make(map[il.PID]il.PID) // in-scope callee -> one out-of-scope caller
	type callSite struct {
		caller il.PID
		block  int
		instr  int
		args   []il.Value
	}
	callSites := make(map[il.PID][]callSite)
	// Post-HLO direct effects and surviving call edges of every
	// summarized function, for the MOD/REF audit.
	type effects struct {
		mod, ref map[il.PID]bool
		probes   bool
		callees  []il.PID
	}
	derived := make(map[il.PID]*effects)
	for _, pid := range prog.FuncPIDs() {
		if facts.Dead[pid] {
			continue
		}
		f := src.View(pid)
		if f == nil {
			continue
		}
		var eff *effects
		if facts.Summaries[pid] != nil {
			eff = &effects{mod: make(map[il.PID]bool), ref: make(map[il.PID]bool)}
			derived[pid] = eff
		}
		seenCallee := make(map[il.PID]bool)
		for bi, b := range f.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				switch in.Op {
				case il.StoreG, il.StoreX:
					if _, ok := storedBy[in.Sym]; !ok {
						storedBy[in.Sym] = pid
					}
					if eff != nil {
						eff.mod[in.Sym] = true
					}
				case il.LoadG, il.LoadX:
					if eff != nil {
						eff.ref[in.Sym] = true
					}
				case il.Probe:
					if eff != nil {
						eff.probes = true
					}
				case il.Call:
					if !inScope(pid) && inScope(in.Sym) {
						if _, ok := outsideCaller[in.Sym]; !ok {
							outsideCaller[in.Sym] = pid
						}
					}
					callSites[in.Sym] = append(callSites[in.Sym], callSite{pid, bi, ii, in.Args})
					if eff != nil && !seenCallee[in.Sym] {
						seenCallee[in.Sym] = true
						eff.callees = append(eff.callees, in.Sym)
					}
				}
			}
		}
		src.DoneWith(pid)
	}

	var out []Diagnostic
	progDiag := func(check, format string, args ...any) {
		out = append(out, Diagnostic{
			Check: check, Severity: Error,
			Block: -1, Instr: -1,
			Message: fmt.Sprintf(format, args...),
		})
	}

	// Conservativeness of the stored summary. Iterate in PID order for
	// deterministic reporting.
	for _, g := range prog.GlobalPIDs() {
		storer, isStored := storedBy[g]
		if isStored && !facts.Stored[g] {
			where := "in scope"
			if !inScope(storer) {
				where = "outside the CMO scope (ExternStored summary incomplete)"
			}
			progDiag("facts-stored", "global %s is stored by %s (%s) but summarized as never-stored",
				symName(prog, g), symName(prog, storer), where)
		}
		if facts.Promoted[g] {
			if isStored {
				progDiag("facts-promotion", "global %s was promoted to a constant but is stored by %s",
					symName(prog, g), symName(prog, storer))
			}
			if facts.Volatile[g] {
				progDiag("facts-promotion", "volatile global %s was promoted to a constant", symName(prog, g))
			}
		}
	}

	// Conservativeness of the externally-called summary.
	if facts.Scope != nil {
		for _, fn := range prog.FuncPIDs() {
			if caller, ok := outsideCaller[fn]; ok && !facts.ExternallyCalled[fn] {
				progDiag("facts-extern-called", "%s is called from out-of-scope %s but not summarized as externally called",
					symName(prog, fn), symName(prog, caller))
			}
		}
	}

	// MOD/REF summary conservatism (the ipa stage's facts). Three
	// local checks that together imply the transitive soundness of
	// every summary HLO optimized against:
	//
	//   - facts-modref: a summarized function's own post-HLO effects
	//     must be inside its summary (HLO only moves or removes
	//     effects, never invents them — so the pre-HLO summary must
	//     still cover the post-HLO body);
	//   - facts-modref-edge: for every surviving call edge, the callee
	//     summary must be subsumed by the caller's, and a callee with
	//     *no* summary (out of scope at this SelectPercent, or no
	//     body) requires the caller be Top — decay must have been
	//     total, never partial;
	//   - facts-purity: the purity label must agree with the sets
	//     (const ⊆ pure ⊆ anything).
	if facts.Summaries != nil {
		pids := make([]il.PID, 0, len(derived))
		for pid := range derived {
			pids = append(pids, pid)
		}
		sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
		for _, pid := range pids {
			eff := derived[pid]
			s := facts.Summaries[pid]
			for _, g := range sortedPIDs(eff.mod) {
				if !s.Mods(g) {
					progDiag("facts-modref", "%s stores %s but its summary says it does not MOD it",
						symName(prog, pid), symName(prog, g))
				}
			}
			for _, g := range sortedPIDs(eff.ref) {
				if !s.Refs(g) {
					progDiag("facts-modref", "%s loads %s but its summary says it does not REF it",
						symName(prog, pid), symName(prog, g))
				}
			}
			if eff.probes && !s.CallsOut {
				progDiag("facts-modref", "%s has profiling probes but its summary is not marked calls-out",
					symName(prog, pid))
			}
			for _, c := range eff.callees {
				if facts.Dead[c] {
					continue // unreachable with the caller live; can never execute
				}
				cs := facts.Summaries[c]
				if cs == nil {
					if !s.ModTop || !s.RefTop || !s.CallsOut {
						progDiag("facts-modref-edge", "%s calls unsummarized %s but is not summarized as Top",
							symName(prog, pid), symName(prog, c))
					}
					continue
				}
				if !subsumes(s, cs) {
					progDiag("facts-modref-edge", "%s's summary does not subsume callee %s's (%s vs %s)",
						symName(prog, pid), symName(prog, c), s.Fingerprint(prog), cs.Fingerprint(prog))
				}
			}
			switch s.Purity {
			case ipa.Const:
				if s.CallsOut || s.ModTop || s.RefTop || len(s.Mod) > 0 || len(s.Ref) > 0 {
					progDiag("facts-purity", "%s is marked const but its summary has effects (%s)",
						symName(prog, pid), s.Fingerprint(prog))
				}
			case ipa.Pure:
				if s.CallsOut || s.ModTop || len(s.Mod) > 0 {
					progDiag("facts-purity", "%s is marked pure but its summary writes (%s)",
						symName(prog, pid), s.Fingerprint(prog))
				}
			}
		}
	}

	// IPCP decisions: every surviving live call site must still agree.
	for _, fact := range facts.IPCP {
		for _, site := range callSites[fact.Fn] {
			if fact.Param >= len(site.args) {
				continue // arity mismatch is the interproc tier's finding
			}
			a := site.args[fact.Param]
			if !a.IsConst || a.Const != fact.Val {
				out = append(out, Diagnostic{
					Check: "facts-ipcp", Severity: Error,
					Module: moduleOf(prog, site.caller), Function: symName(prog, site.caller),
					Block: site.block, Instr: site.instr,
					Message: fmt.Sprintf("%s param %d was pinned to %d by IPCP, but this call passes %s",
						symName(prog, fact.Fn), fact.Param, fact.Val, a),
				})
			}
		}
	}
	return out
}

// sortedPIDs returns the set's members in ascending PID order, for
// deterministic diagnostics.
func sortedPIDs(set map[il.PID]bool) []il.PID {
	out := make([]il.PID, 0, len(set))
	for pid := range set {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// subsumes reports whether the caller summary covers everything the
// callee summary admits — the edge condition of the MOD/REF audit.
func subsumes(caller, callee *ipa.Summary) bool {
	if callee.CallsOut && !caller.CallsOut {
		return false
	}
	if !setSubsumes(caller.Mod, caller.ModTop, callee.Mod, callee.ModTop) {
		return false
	}
	return setSubsumes(caller.Ref, caller.RefTop, callee.Ref, callee.RefTop)
}

func setSubsumes(outer map[il.PID]bool, outerTop bool, inner map[il.PID]bool, innerTop bool) bool {
	if outerTop {
		return true
	}
	if innerTop {
		return false
	}
	for g := range inner {
		if !outer[g] {
			return false
		}
	}
	return true
}
