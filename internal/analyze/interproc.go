package analyze

import (
	"fmt"

	"cmo/internal/callgraph"
	"cmo/internal/il"
)

// interprocChecks runs the whole-program consistency tier:
//
//   - dangling / unresolved PIDs: every symbol an instruction names
//     must exist in the program symbol table and be resolved to a
//     defining module; after link-time dead-code elimination, no
//     surviving function may call into the dead set.
//   - cross-module call-signature agreement: call arity and
//     result-use must match the callee's program-wide signature, and
//     the callee must actually be a function — the "mismatched
//     interfaces" hazard the paper's section 6.3 singles out.
//   - module-table bookkeeping: every PID a module claims to define
//     must resolve back to that module.
//   - call-graph agreement: internal/callgraph's edges and site
//     counts must exactly match a direct, independent scan of the
//     Call instructions. Downstream consumers (inliner scheduling,
//     clustering, DCE) trust the call graph; drift between it and the
//     IL is a whole-program miscompile factory.
func interprocChecks(prog *il.Program, src Source, omit map[il.PID]bool) []Diagnostic {
	var out []Diagnostic
	progDiag := func(check string, sev Severity, format string, args ...any) {
		out = append(out, Diagnostic{
			Check: check, Severity: sev,
			Block: -1, Instr: -1,
			Message: fmt.Sprintf(format, args...),
		})
	}

	// Module-table bookkeeping.
	for _, m := range prog.Modules {
		for _, pid := range m.Defs {
			if int(pid) >= len(prog.Syms) {
				progDiag("module-table", Error, "module %s defines dangling PID %d", m.Name, pid)
				continue
			}
			if got := prog.Syms[pid].Module; got != m.Index {
				progDiag("module-table", Error, "module %s lists %s in Defs, but the symbol resolves to module %d",
					m.Name, prog.Syms[pid].Name, got)
			}
		}
	}

	// Direct scan: per-caller callee lists (first-seen order) and
	// per-edge site counts, built independently of internal/callgraph.
	type edge struct{ caller, callee il.PID }
	sites := make(map[edge]int)
	callees := make(map[il.PID][]il.PID)
	for _, caller := range prog.FuncPIDs() {
		if omit[caller] {
			continue
		}
		f := src.View(caller)
		if f == nil {
			continue
		}
		mod := moduleOf(prog, caller)
		seen := make(map[il.PID]bool)
		for bi, b := range f.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				var ref il.PID
				switch in.Op {
				case il.Call, il.LoadG, il.StoreG, il.LoadX, il.StoreX:
					ref = in.Sym
				default:
					continue
				}
				// Bookkeeping first, diagnosis second: every Call is
				// counted, resolved or not, because callgraph.Build
				// counts them all — skipping broken ones here would
				// manufacture phantom callgraph disagreements on top
				// of the real dangling-pid finding.
				if in.Op == il.Call {
					sites[edge{caller, ref}]++
					if !seen[ref] {
						seen[ref] = true
						callees[caller] = append(callees[caller], ref)
					}
				}
				if int(ref) >= len(prog.Syms) {
					out = append(out, Diagnostic{
						Check: "dangling-pid", Severity: Error,
						Module: mod, Function: f.Name, Block: bi, Instr: ii,
						Message: fmt.Sprintf("%s references PID %d beyond the symbol table (%d symbols)", in.Op, ref, len(prog.Syms)),
					})
					continue
				}
				sym := prog.Syms[ref]
				if sym.Module < 0 {
					out = append(out, Diagnostic{
						Check: "dangling-pid", Severity: Error,
						Module: mod, Function: f.Name, Block: bi, Instr: ii,
						Message: fmt.Sprintf("%s references unresolved symbol %s", in.Op, sym.Name),
					})
					continue
				}
				if in.Op != il.Call {
					continue
				}
				if omit[ref] {
					out = append(out, Diagnostic{
						Check: "dangling-pid", Severity: Error,
						Module: mod, Function: f.Name, Block: bi, Instr: ii,
						Message: fmt.Sprintf("call to %s, which dead-code elimination removed (unsound DCE)", sym.Name),
					})
				}
				out = append(out, checkCallSignature(prog, mod, f, bi, ii, in)...)
			}
		}
		src.DoneWith(caller)
	}

	// Call-graph agreement. The graph is rebuilt from the same source
	// (its own scan of the IL); the comparison pins internal/callgraph's
	// dedup and bookkeeping to the direct recount above.
	g := callgraph.Build(prog, func(pid il.PID) *il.Function {
		if omit[pid] {
			return nil
		}
		f := src.View(pid)
		if f != nil {
			src.DoneWith(pid)
		}
		return f
	})
	for _, caller := range prog.FuncPIDs() {
		want := callees[caller]
		got := g.Callees[caller]
		if len(want) != len(got) {
			progDiag("callgraph", Error, "callgraph: %s has %d distinct callees, direct IL scan finds %d",
				symName(prog, caller), len(got), len(want))
			continue
		}
		for i := range want {
			if want[i] != got[i] {
				progDiag("callgraph", Error, "callgraph: %s callee %d is %s, direct IL scan finds %s",
					symName(prog, caller), i, symName(prog, got[i]), symName(prog, want[i]))
				break
			}
		}
	}
	for e, n := range g.SiteCount {
		if sites[edge{e[0], e[1]}] != n {
			progDiag("callgraph", Error, "callgraph: %d sites recorded for %s -> %s, direct IL scan finds %d",
				n, symName(prog, e[0]), symName(prog, e[1]), sites[edge{e[0], e[1]}])
		}
	}
	for e, n := range sites {
		if _, ok := g.SiteCount[[2]il.PID{e.caller, e.callee}]; !ok {
			progDiag("callgraph", Error, "callgraph: missing edge %s -> %s (%d sites in the IL)",
				symName(prog, e.caller), symName(prog, e.callee), n)
		}
	}

	// Map iteration above is nondeterministic; Result.Sort restores a
	// stable order before anything is rendered.
	return out
}

// checkCallSignature verifies one call site against the callee's
// program-wide signature. il.Verify performs the same structural
// checks per function; repeating them here keeps the interprocedural
// tier sound when run on its own (cmocheck with -level interproc) and
// phrases the failure as the cross-module contract it is.
func checkCallSignature(prog *il.Program, mod string, f *il.Function, bi, ii int, in *il.Instr) []Diagnostic {
	sym := prog.Syms[in.Sym]
	diag := func(format string, args ...any) Diagnostic {
		return Diagnostic{
			Check: "call-signature", Severity: Error,
			Module: mod, Function: f.Name, Block: bi, Instr: ii,
			Message: fmt.Sprintf(format, args...),
		}
	}
	if sym.Kind != il.SymFunc {
		return []Diagnostic{diag("call target %s is a %s, not a function", sym.Name, sym.Kind)}
	}
	var out []Diagnostic
	if len(in.Args) != len(sym.Sig.Params) {
		out = append(out, diag("call to %s passes %d args, signature %s wants %d",
			sym.Name, len(in.Args), sym.Sig, len(sym.Sig.Params)))
	}
	if in.Dst != 0 && sym.Sig.Ret == il.Void {
		out = append(out, diag("call to void %s assigns its result to r%d", sym.Name, in.Dst))
	}
	return out
}
