package cmo

import (
	"fmt"

	"cmo/internal/il"
	"cmo/internal/naim"
	"cmo/internal/obs"
	"cmo/internal/selectivity"
)

// The select stage: decide which part of the program enters
// cross-module optimization (paper section 5). Three policies, in
// priority order: an explicit coarse module scope (ScopeModules, the
// section-6.3 isolation knob), profile-driven site selectivity
// (SelectPercent with a database), or the whole program. The stage
// also summarizes everything *outside* the chosen scope — which
// in-scope functions out-of-scope code calls or whose globals it
// stores — so HLO stays conservative about code it cannot see.

// selection is the select stage's outcome.
type selection struct {
	// scope is the set of functions visible to HLO; selected is the
	// fine-grained set HLO actually transforms. nil scope means
	// whole-program CMO.
	scope    map[il.PID]bool
	selected map[il.PID]bool
	// Conservative facts about out-of-scope code.
	extCalled map[il.PID]bool
	extStored map[il.PID]bool
	// skip means nothing was selected: the build proceeds at the
	// default level with no HLO at all.
	skip bool
}

// runSelect computes the CMO scope and records the selectivity
// figures in the build stats. The caller wraps it in the "select"
// span it receives (and charges the elapsed time to SelectNanos).
func (b *Build) runSelect(loader *naim.Loader, opt Options, ssp obs.Span) (*selection, error) {
	if err := opt.ctxErr(); err != nil {
		return nil, err
	}
	prog := b.Prog
	sel := &selection{}
	switch {
	case opt.ScopeModules != nil:
		// Explicit coarse scope (isolation/debugging): the listed
		// modules enter CMO; everything else bypasses HLO.
		scope := make(map[il.PID]bool)
		want := make(map[int32]bool, len(opt.ScopeModules))
		for _, mi := range opt.ScopeModules {
			if mi < 0 || mi >= len(prog.Modules) {
				return nil, fmt.Errorf("cmo: ScopeModules index %d out of range (%d modules)", mi, len(prog.Modules))
			}
			want[int32(mi)] = true
		}
		for _, pid := range prog.FuncPIDs() {
			if want[prog.Sym(pid).Module] {
				scope[pid] = true
			}
		}
		b.Stats.CMOModules = len(want)
		b.Stats.CMOFunctions = len(scope)
		if len(scope) == 0 {
			sel.skip = true
			return sel, nil
		}
		sel.scope = scope
		sel.selected = scope
		sel.extCalled, sel.extStored = b.summarizeOutOfScope(loader, scope, opt.Jobs)
	case opt.SelectPercent >= 0 && opt.DB != nil:
		ch := selectivity.SelectJobs(prog, loader, opt.DB, opt.SelectPercent, opt.Jobs)
		b.Stats.TotalSites = ch.TotalSites
		b.Stats.SelectedSites = len(ch.Sites)
		b.Stats.CMOModules = len(ch.Modules)
		b.Stats.CMOFunctions = len(ch.Funcs)
		b.Stats.SelectedLines = ch.SelectedLines
		if len(ch.Modules) == 0 {
			sel.skip = true // nothing selected: pure default-level build
			return sel, nil
		}
		scope := ch.ScopeSet(prog)
		sel.scope = scope
		sel.selected = ch.Funcs
		sel.extCalled, sel.extStored = b.summarizeOutOfScope(loader, scope, opt.Jobs)
	default:
		b.Stats.CMOModules = len(prog.Modules)
		b.Stats.CMOFunctions = len(prog.FuncPIDs())
		b.Stats.SelectedLines = b.Stats.TotalLines
	}
	return sel, nil
}
