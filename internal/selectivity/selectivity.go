// Package selectivity implements the paper's profile-driven
// selectivity framework (section 5): deciding where the optimizer
// spends its time.
//
// Coarse-grained selectivity ranks every static call site in the
// program by profiled call frequency, retains a user-chosen
// percentage of the hottest sites, and selects for CMO exactly the
// modules containing the callers and callees of those sites. The
// remaining modules bypass HLO entirely and are compiled at the
// default optimization level.
//
// Fine-grained selectivity further restricts HLO's transformation
// work inside the selected modules to the routines participating in
// selected sites; all other routines are scanned once for
// whole-program facts and then left unloaded.
package selectivity

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"cmo/internal/il"
	"cmo/internal/profile"
)

// Site is one static call site with its profiled count.
type Site struct {
	Key    profile.SiteKey
	Caller il.PID
	Callee il.PID
	Count  int64
}

// Choice is the outcome of selection.
type Choice struct {
	// Percent is the selection parameter that produced this choice.
	Percent float64
	// Sites are the selected call sites, hottest first.
	Sites []Site
	// Modules are the coarse-grained CMO module set (indexes into
	// Program.Modules).
	Modules map[int32]bool
	// Funcs is the fine-grained set of routines HLO may transform.
	Funcs map[il.PID]bool
	// TotalSites is the number of static call sites in the program.
	TotalSites int
	// SelectedLines approximates how many source lines the selected
	// modules contain.
	SelectedLines int
}

// Source provides function bodies for reading, pinned from View until
// the matching DoneWith (the NAIM loader's read checkout).
type Source interface {
	View(pid il.PID) *il.Function
	DoneWith(pid il.PID)
}

// EnumerateSites lists every static call site in the program, pulling
// bodies through src. Order is deterministic (PID, block, sequence).
func EnumerateSites(prog *il.Program, src Source, db *profile.DB) []Site {
	return EnumerateSitesJobs(prog, src, db, 1)
}

// siteScan collects one routine's call sites into dst.
func siteScan(prog *il.Program, pid il.PID, f *il.Function, db *profile.DB, dst *[]Site) {
	for bi, b := range f.Blocks {
		seq := int32(0)
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			if in.Op != il.Call {
				continue
			}
			key := profile.SiteKey{
				Fn:     f.Name,
				Block:  int32(bi),
				Seq:    seq,
				Callee: prog.Sym(in.Sym).Name,
			}
			seq++
			var count int64
			if db != nil {
				count = db.SiteCount(key)
			}
			*dst = append(*dst, Site{Key: key, Caller: pid, Callee: in.Sym, Count: count})
		}
	}
}

// EnumerateSitesJobs is EnumerateSites fanned out over jobs
// goroutines. src must be safe for concurrent use (the NAIM loader
// is). Each routine's sites land in a per-PID slot and the slots are
// concatenated in PID order, so the result is byte-for-byte the
// sequential enumeration at any job count.
func EnumerateSitesJobs(prog *il.Program, src Source, db *profile.DB, jobs int) []Site {
	pids := prog.FuncPIDs()
	if jobs > len(pids) {
		jobs = len(pids)
	}
	if jobs <= 1 {
		var sites []Site
		for _, pid := range pids {
			if f := src.View(pid); f != nil {
				siteScan(prog, pid, f, db, &sites)
				src.DoneWith(pid)
			}
		}
		return sites
	}
	slots := make([][]Site, len(pids))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pids) {
					return
				}
				if f := src.View(pids[i]); f != nil {
					siteScan(prog, pids[i], f, db, &slots[i])
					src.DoneWith(pids[i])
				}
			}
		}()
	}
	wg.Wait()
	var sites []Site
	for _, s := range slots {
		sites = append(sites, s...)
	}
	return sites
}

// Select applies the user's selection percentage to the program's
// call sites. percent is clamped to [0, 100]; 0 selects nothing
// (pure default-level compilation) and 100 selects every site.
func Select(prog *il.Program, src Source, db *profile.DB, percent float64) *Choice {
	return SelectJobs(prog, src, db, percent, 1)
}

// SelectJobs is Select with the site enumeration fanned out over jobs
// goroutines (src must be concurrency-safe). The ranking, cut, and
// resulting Choice are identical at any job count.
func SelectJobs(prog *il.Program, src Source, db *profile.DB, percent float64, jobs int) *Choice {
	if percent < 0 {
		percent = 0
	}
	if percent > 100 {
		percent = 100
	}
	sites := EnumerateSitesJobs(prog, src, db, jobs)
	// Hottest first; deterministic tie-break on the key.
	sort.SliceStable(sites, func(i, j int) bool {
		if sites[i].Count != sites[j].Count {
			return sites[i].Count > sites[j].Count
		}
		a, b := sites[i].Key, sites[j].Key
		if a.Fn != b.Fn {
			return a.Fn < b.Fn
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.Callee < b.Callee
	})
	keep := int(math.Ceil(float64(len(sites)) * percent / 100))
	if keep > len(sites) {
		keep = len(sites)
	}
	ch := &Choice{
		Percent:    percent,
		Sites:      sites[:keep],
		Modules:    make(map[int32]bool),
		Funcs:      make(map[il.PID]bool),
		TotalSites: len(sites),
	}
	for _, s := range ch.Sites {
		ch.Funcs[s.Caller] = true
		ch.Funcs[s.Callee] = true
		if m := prog.Sym(s.Caller).Module; m >= 0 {
			ch.Modules[m] = true
		}
		if m := prog.Sym(s.Callee).Module; m >= 0 {
			ch.Modules[m] = true
		}
	}
	for mi := range ch.Modules {
		ch.SelectedLines += prog.Modules[mi].Lines
	}
	return ch
}

// ModuleFuncs returns the defined functions of the selected modules
// (the coarse-grained CMO compilation set), in PID order.
func (c *Choice) ModuleFuncs(prog *il.Program) []il.PID {
	var out []il.PID
	for _, pid := range prog.FuncPIDs() {
		if c.Modules[prog.Sym(pid).Module] {
			out = append(out, pid)
		}
	}
	return out
}

// ScopeSet returns ModuleFuncs as a membership set — the form every
// downstream scope consumer takes (hlo.Options.Scope,
// ipa.Options.Scope), where a routine outside the set is summarized
// conservatively rather than transformed.
func (c *Choice) ScopeSet(prog *il.Program) map[il.PID]bool {
	set := make(map[il.PID]bool)
	for _, pid := range c.ModuleFuncs(prog) {
		set[pid] = true
	}
	return set
}
