package cmo

import (
	"sync"
	"sync/atomic"

	"cmo/internal/analyze"
	"cmo/internal/hlo"
	"cmo/internal/il"
	"cmo/internal/ipa"
	"cmo/internal/naim"
	"cmo/internal/obs"
)

// The HLO stage: cross-module optimization over the scope the select
// stage chose (O4), or per-module interprocedural optimization with
// module boundaries intact (O3). With a connected session, HLO's
// per-function transform records replay from the repository when a
// function's transitive inputs are unchanged (see session_hlo.go).

// runHLO performs selection and cross-module optimization.
func (b *Build) runHLO(loader *naim.Loader, opt Options, sess *Session, volatile map[il.PID]bool, omit map[il.PID]bool, hsp obs.Span) error {
	prog := b.Prog
	hopts := hlo.Options{
		DB:         opt.DB,
		Volatile:   volatile,
		Entry:      opt.Entry,
		Budget:     opt.Budget,
		MaxInlines: opt.MaxInlines,
		Span:       hsp,
		Cancel:     opt.ctxErr,
	}
	if opt.Verify != analyze.Off {
		hopts.Check = b.hloCheck(loader, opt, hsp)
	}
	hopts.Incremental = sess.hloIncremental(prog, opt)

	// The whole select stage runs under one "select" span so its cost
	// is visible both in the trace and as Stats.SelectNanos (a share
	// of the enclosing hlo phase, not an extra phase).
	ssp := hsp.Child("select")
	sel, err := b.runSelect(loader, opt, ssp)
	b.Stats.SelectNanos = ssp.End()
	if err != nil {
		return err
	}
	if sel.skip {
		return nil
	}
	hopts.Scope = sel.scope
	hopts.Selected = sel.selected
	hopts.ExternallyCalled = sel.extCalled
	hopts.ExternStored = sel.extStored

	// The ipa stage: summarize every in-scope function's transitive
	// MOD/REF effects and purity before HLO mutates anything, so the
	// fact-gated transforms can see across calls. Like select, the
	// "ipa" span nests inside the hlo phase and its cost is reported
	// as an informational share (Stats.IPANanos).
	if !opt.NoIPA {
		if err := opt.ctxErr(); err != nil {
			return err
		}
		isp := hsp.Child("ipa")
		ires := ipa.Analyze(prog, loader, ipa.Options{Scope: sel.scope, Span: isp})
		b.Stats.IPANanos = isp.End()
		hopts.Summaries = ires.Summaries
		if tr := hsp.Trace(); tr != nil {
			tr.Counter("ipa.functions").Add(int64(ires.Stats.Functions))
			tr.Counter("ipa.const_fns").Add(int64(ires.Stats.ConstFns))
			tr.Counter("ipa.pure_fns").Add(int64(ires.Stats.PureFns))
			tr.Counter("ipa.top_fns").Add(int64(ires.Stats.TopFns))
		}
	}

	b.selectedFns = hopts.Selected
	if b.selectedFns == nil {
		b.selectedFns = make(map[il.PID]bool)
		for _, pid := range prog.FuncPIDs() {
			b.selectedFns[pid] = true
		}
	}

	hres, err := hlo.Optimize(prog, loader, hopts)
	if err != nil {
		return err
	}
	b.Stats.HLO = hres.Stats
	b.Stats.CacheHLOHits = hres.Stats.ReplayHits
	b.Stats.CacheHLOMisses = hres.Stats.ReplayMisses
	if tr := hsp.Trace(); tr != nil && hres.Stats.ReplayHits+hres.Stats.ReplayMisses > 0 {
		tr.Counter("session.hlo_replay_hits").Add(int64(hres.Stats.ReplayHits))
		tr.Counter("session.hlo_replay_misses").Add(int64(hres.Stats.ReplayMisses))
	}
	b.InlineOps = hres.InlineOps
	for _, pid := range hres.Dead {
		omit[pid] = true
	}
	if opt.Verify >= analyze.Interproc {
		return b.auditHLOFacts(loader, hres.Facts, hsp)
	}
	return nil
}

// runHLOPerModule implements +O3: interprocedural optimization with
// module boundaries intact — each module's IL goes through HLO alone,
// with the rest of the program summarized conservatively. This is
// what the paper's pipeline does when the linker is not involved
// (section 3: "at higher levels of optimization (+O3 or +O4) the IL
// is first routed through the high level optimizer").
func (b *Build) runHLOPerModule(loader *naim.Loader, opt Options, volatile map[il.PID]bool, omit map[il.PID]bool, hsp obs.Span) error {
	prog := b.Prog
	var agg hlo.Stats
	for mi := range prog.Modules {
		if err := opt.ctxErr(); err != nil {
			return err
		}
		scope := make(map[il.PID]bool)
		for _, pid := range prog.FuncPIDs() {
			if prog.Sym(pid).Module == int32(mi) {
				scope[pid] = true
			}
		}
		if len(scope) == 0 {
			continue
		}
		extCalled, extStored := b.summarizeOutOfScope(loader, scope, opt.Jobs)
		msp := hsp.ChildDetail("hlo module", prog.Modules[mi].Name)
		mopts := hlo.Options{
			DB:               opt.DB,
			Volatile:         volatile,
			Entry:            opt.Entry,
			Budget:           opt.Budget,
			MaxInlines:       opt.MaxInlines,
			Scope:            scope,
			Selected:         scope,
			ExternallyCalled: extCalled,
			ExternStored:     extStored,
			Span:             msp,
			Cancel:           opt.ctxErr,
		}
		if opt.Verify != analyze.Off {
			mopts.Check = b.hloCheck(loader, opt, msp)
		}
		hres, err := hlo.Optimize(prog, loader, mopts)
		if err != nil {
			msp.End()
			return err
		}
		if opt.Verify >= analyze.Interproc {
			// Audit each module's facts before the next module's run
			// mutates the program further.
			if err := b.auditHLOFacts(loader, hres.Facts, msp); err != nil {
				msp.End()
				return err
			}
		}
		msp.End()
		agg.Inlines += hres.Stats.Inlines
		agg.Clones += hres.Stats.Clones
		agg.IPCPParams += hres.Stats.IPCPParams
		agg.ConstGlobals += hres.Stats.ConstGlobals
		agg.OptimizedFns += hres.Stats.OptimizedFns
		agg.ScannedFuncs += hres.Stats.ScannedFuncs
		agg.Unrolled += hres.Stats.Unrolled
		for _, pid := range hres.Dead {
			omit[pid] = true
		}
		agg.DeadFuncs += len(hres.Dead)
		b.InlineOps = append(b.InlineOps, hres.InlineOps...)
	}
	b.Stats.HLO = agg
	b.Stats.CMOModules = 0 // no cross-module optimization at O3
	b.Stats.CMOFunctions = 0
	return nil
}

// summarizeOutOfScope scans the modules that bypass HLO and
// summarizes the facts the optimizer must stay conservative about:
// in-scope functions they call and globals they store. The scan is
// read-only and embarrassingly parallel: with jobs > 1 it fans out
// over the out-of-scope PIDs, each worker accumulating private sets
// that are merged afterwards (set union is order-independent, so the
// result is identical at any job count).
func (b *Build) summarizeOutOfScope(loader *naim.Loader, scope map[il.PID]bool, jobs int) (extCalled, extStored map[il.PID]bool) {
	prog := b.Prog
	var pids []il.PID
	for _, pid := range prog.FuncPIDs() {
		if !scope[pid] {
			pids = append(pids, pid)
		}
	}
	scanOne := func(f *il.Function, called, stored map[il.PID]bool) {
		for _, blk := range f.Blocks {
			for ii := range blk.Instrs {
				in := &blk.Instrs[ii]
				switch in.Op {
				case il.Call:
					if scope[in.Sym] {
						called[in.Sym] = true
					}
				case il.StoreG, il.StoreX:
					stored[in.Sym] = true
				}
			}
		}
	}
	extCalled = make(map[il.PID]bool)
	extStored = make(map[il.PID]bool)
	if jobs > len(pids) {
		jobs = len(pids)
	}
	if jobs <= 1 {
		for _, pid := range pids {
			if f := loader.View(pid); f != nil {
				scanOne(f, extCalled, extStored)
				loader.DoneWith(pid)
			}
		}
		return extCalled, extStored
	}
	type part struct{ called, stored map[il.PID]bool }
	parts := make([]part, jobs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := part{called: make(map[il.PID]bool), stored: make(map[il.PID]bool)}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pids) {
					break
				}
				if f := loader.View(pids[i]); f != nil {
					scanOne(f, p.called, p.stored)
					loader.DoneWith(pids[i])
				}
			}
			parts[w] = p
		}(w)
	}
	wg.Wait()
	for _, p := range parts {
		for pid := range p.called {
			extCalled[pid] = true
		}
		for pid := range p.stored {
			extStored[pid] = true
		}
	}
	return extCalled, extStored
}
