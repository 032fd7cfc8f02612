package ipa

import (
	"sort"
	"strings"

	"cmo/internal/callgraph"
	"cmo/internal/il"
	"cmo/internal/obs"
)

// Purity classifies a function by its transitive effects.
type Purity uint8

const (
	// Neither: the function may write globals or call out of scope.
	Neither Purity = iota
	// Pure: no writes and no out-of-scope calls, but it may read
	// global state — two calls compute the same value as long as no
	// write intervenes.
	Pure
	// Const: no global reads or writes and no out-of-scope calls —
	// the result depends only on the arguments.
	Const
)

func (p Purity) String() string {
	switch p {
	case Const:
		return "const"
	case Pure:
		return "pure"
	}
	return "neither"
}

// Summary is one function's transitive side-effect summary: the
// globals it may write (MOD) and read (REF), closed over everything
// it can call. Top bits stand for "any global" — the conservative
// answer for effects the analysis cannot see.
type Summary struct {
	// Mod is the set of globals (scalar and array symbols) the
	// function or anything it calls may store. Meaningless when
	// ModTop is set.
	Mod map[il.PID]bool
	// Ref is the set of globals the function or anything it calls
	// may load. Meaningless when RefTop is set.
	Ref map[il.PID]bool
	// ModTop / RefTop widen the respective set to "every global".
	ModTop bool
	RefTop bool
	// CallsOut reports that execution may leave the analyzed world: a
	// callee outside the scope, a callee with no body, or a profiling
	// probe. Such a function can never be Pure or Const.
	CallsOut bool
	// Purity is derived from the final sets (see Purity).
	Purity Purity
}

// Top returns the all-effects summary, the meaning of "no summary".
func Top() *Summary {
	return &Summary{ModTop: true, RefTop: true, CallsOut: true, Purity: Neither}
}

// Mods reports whether the function may store global g.
func (s *Summary) Mods(g il.PID) bool { return s.ModTop || s.Mod[g] }

// Refs reports whether the function may load global g.
func (s *Summary) Refs(g il.PID) bool { return s.RefTop || s.Ref[g] }

// WritesAnything reports whether the function may store any global.
func (s *Summary) WritesAnything() bool { return s.ModTop || len(s.Mod) > 0 }

// Fingerprint renders the summary as a stable, PID-free string:
// sorted global names, so two builds that intern PIDs differently
// still agree. HLO's replay records embed it so cached transforms
// invalidate when a callee's side effects change.
func (s *Summary) Fingerprint(prog *il.Program) string {
	var sb strings.Builder
	sb.WriteString(s.Purity.String())
	if s.CallsOut {
		sb.WriteString(";out")
	}
	sb.WriteString(";mod=")
	writeSet(&sb, prog, s.Mod, s.ModTop)
	sb.WriteString(";ref=")
	writeSet(&sb, prog, s.Ref, s.RefTop)
	return sb.String()
}

func writeSet(sb *strings.Builder, prog *il.Program, set map[il.PID]bool, top bool) {
	if top {
		sb.WriteByte('*')
		return
	}
	names := make([]string, 0, len(set))
	for g := range set {
		names = append(names, prog.Sym(g).Name)
	}
	sort.Strings(names)
	sb.WriteString(strings.Join(names, ","))
}

// Summaries maps each analyzed function to its summary. A missing
// entry means Top: the function was out of scope (or had no body)
// and nothing may be assumed about it.
type Summaries map[il.PID]*Summary

// Options configures one analysis.
type Options struct {
	// Scope restricts the analysis to these functions (nil = every
	// defined function). Calls leaving the scope widen to Top — this
	// is selectivity's decay: routines not selected for optimization
	// are summarized as "may do anything".
	Scope map[il.PID]bool
	// MaxSet caps MOD/REF set size before widening to Top (0 means
	// DefaultMaxSet). The cap bounds summary memory on programs with
	// very large global populations.
	MaxSet int
	// Span is the trace span the analysis nests under (the driver's
	// "ipa" span). The zero Span records nothing.
	Span obs.Span
}

// DefaultMaxSet is the default MOD/REF widening threshold.
const DefaultMaxSet = 4096

// Stats reports what the analysis found.
type Stats struct {
	Functions int // functions summarized
	SCCs      int // strongly connected components processed
	ConstFns  int
	PureFns   int
	TopFns    int // widened to Top (out-of-scope reach, probes, cap)
}

// Result is the outcome of one analysis.
type Result struct {
	Summaries Summaries
	Stats     Stats
}

// Source provides function bodies for reading, pinned from View until
// the matching DoneWith (the NAIM loader's read checkout).
type Source interface {
	View(pid il.PID) *il.Function
	DoneWith(pid il.PID)
}

// directEffects is one function's own effects, before propagation.
type directEffects struct {
	mod, ref map[il.PID]bool
	callsOut bool // Probe: an effect outside the global model
	callees  []il.PID
}

// Analyze computes MOD/REF summaries for every in-scope function with
// a body: one scan per body, then a bottom-up SCC fixpoint over the
// call graph. The result is deterministic: scan order is PID order
// and propagation order is the callgraph's canonical bottom-up order.
func Analyze(prog *il.Program, src Source, opts Options) *Result {
	maxSet := opts.MaxSet
	if maxSet <= 0 {
		maxSet = DefaultMaxSet
	}
	inScope := func(pid il.PID) bool { return opts.Scope == nil || opts.Scope[pid] }

	sp := opts.Span.Child("ipa scan")
	direct := make(map[il.PID]*directEffects)
	callees := make(map[il.PID][]il.PID)
	sites := make(map[[2]il.PID]int)
	var pids []il.PID
	for _, pid := range prog.FuncPIDs() {
		if !inScope(pid) {
			continue
		}
		f := src.View(pid)
		if f == nil {
			continue
		}
		d := &directEffects{mod: make(map[il.PID]bool), ref: make(map[il.PID]bool)}
		seen := make(map[il.PID]bool)
		for _, b := range f.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				switch in.Op {
				case il.LoadG, il.LoadX:
					d.ref[in.Sym] = true
				case il.StoreG, il.StoreX:
					d.mod[in.Sym] = true
				case il.Probe:
					d.callsOut = true
				case il.Call:
					sites[[2]il.PID{pid, in.Sym}]++
					if !seen[in.Sym] {
						seen[in.Sym] = true
						d.callees = append(d.callees, in.Sym)
					}
				}
			}
		}
		src.DoneWith(pid)
		direct[pid] = d
		callees[pid] = d.callees
		pids = append(pids, pid)
	}
	sp.End()

	sp = opts.Span.Child("ipa propagate")
	g := callgraph.FromEdges(pids, callees, sites)
	res := &Result{Summaries: make(Summaries, len(pids))}
	res.Stats.Functions = len(pids)

	order := g.BottomUp()
	// BottomUp emits SCC members adjacently in ascending SCC id
	// (callees first); process one component at a time.
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && g.SameSCC(order[lo], order[hi]) {
			hi++
		}
		group := order[lo:hi]
		res.Stats.SCCs++
		// Seed each member with its direct effects.
		for _, pid := range group {
			d := direct[pid]
			s := &Summary{
				Mod:      make(map[il.PID]bool, len(d.mod)),
				Ref:      make(map[il.PID]bool, len(d.ref)),
				CallsOut: d.callsOut,
			}
			for m := range d.mod {
				s.Mod[m] = true
			}
			for r := range d.ref {
				s.Ref[r] = true
			}
			// The cap applies to direct effects too, not just merges —
			// it bounds summary memory wherever the sets come from.
			if len(s.Mod) > maxSet {
				s.Mod, s.ModTop = nil, true
			}
			if len(s.Ref) > maxSet {
				s.Ref, s.RefTop = nil, true
			}
			res.Summaries[pid] = s
		}
		// Union fixpoint over the component. Callees in earlier SCCs
		// are final; callees inside the group evolve until stable;
		// callees with no summary (out of scope, no body) are Top.
		for changed := true; changed; {
			changed = false
			for _, pid := range group {
				s := res.Summaries[pid]
				for _, c := range direct[pid].callees {
					cs := res.Summaries[c]
					if cs == nil {
						cs = Top()
					}
					if mergeInto(s, cs, maxSet) {
						changed = true
					}
				}
			}
		}
		lo = hi
	}
	// Derive purity and count outcomes.
	for _, pid := range pids {
		s := res.Summaries[pid]
		switch {
		case !s.CallsOut && !s.ModTop && !s.RefTop && len(s.Mod) == 0 && len(s.Ref) == 0:
			s.Purity = Const
			res.Stats.ConstFns++
		case !s.CallsOut && !s.ModTop && len(s.Mod) == 0:
			s.Purity = Pure
			res.Stats.PureFns++
		default:
			s.Purity = Neither
		}
		if s.ModTop || s.RefTop || s.CallsOut {
			res.Stats.TopFns++
		}
	}
	sp.End()
	return res
}

// mergeInto folds src into dst, widening past maxSet, and reports
// whether dst changed.
func mergeInto(dst, src *Summary, maxSet int) bool {
	changed := false
	if src.CallsOut && !dst.CallsOut {
		dst.CallsOut = true
		changed = true
	}
	if mergeSet(&dst.Mod, &dst.ModTop, src.Mod, src.ModTop, maxSet) {
		changed = true
	}
	if mergeSet(&dst.Ref, &dst.RefTop, src.Ref, src.RefTop, maxSet) {
		changed = true
	}
	return changed
}

func mergeSet(dst *map[il.PID]bool, dstTop *bool, src map[il.PID]bool, srcTop bool, maxSet int) bool {
	if *dstTop {
		return false
	}
	if srcTop {
		*dstTop = true
		*dst = nil
		return true
	}
	changed := false
	for g := range src {
		if !(*dst)[g] {
			(*dst)[g] = true
			changed = true
		}
	}
	if len(*dst) > maxSet {
		*dstTop = true
		*dst = nil
		changed = true
	}
	return changed
}
