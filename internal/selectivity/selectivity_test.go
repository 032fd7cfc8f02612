package selectivity

import (
	"testing"

	"cmo/internal/il"
	"cmo/internal/lower"
	"cmo/internal/profile"
	"cmo/internal/source"
)

const multiModSrc0 = `module hotmod;
extern func coldwork(x int) int;
func hotwork(x int) int { return x * 3; }
func main() int {
	var s int = 0;
	for (var i int = 0; i < 100; i = i + 1) { s = s + hotwork(i); }
	s = s + coldwork(s);
	return s;
}`

const multiModSrc1 = `module coldmod;
func coldwork(x int) int { return x - 1; }
`

const multiModSrc2 = `module deadmod;
func neverCalled(x int) int { return x; }
func alsoNever() int { return neverCalled(3); }
`

func setup(t *testing.T) (*il.Program, map[il.PID]*il.Function, *profile.DB) {
	t.Helper()
	var files []*source.File
	for i, s := range []string{multiModSrc0, multiModSrc1, multiModSrc2} {
		f, err := source.Parse(string(rune('a'+i))+".minc", s)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if err := source.Check(f); err != nil {
			t.Fatalf("check: %v", err)
		}
		files = append(files, f)
	}
	res, err := lower.Modules(files)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	inst, m := profile.Instrument(res.Prog, res.Funcs)
	it := il.NewInterp(res.Prog, func(p il.PID) *il.Function { return inst[p] })
	if _, err := it.Run("main", nil, 0); err != nil {
		t.Fatalf("train: %v", err)
	}
	counters := make([]int64, m.NumProbes())
	copy(counters, it.Probes)
	return res.Prog, res.Funcs, profile.FromCounters(m, counters)
}

// mapSource serves bodies from a map; checkouts are free.
type mapSource map[il.PID]*il.Function

func (m mapSource) View(pid il.PID) *il.Function { return m[pid] }
func (m mapSource) DoneWith(il.PID)              {}

func src(fns map[il.PID]*il.Function) Source { return mapSource(fns) }

func TestEnumerateSites(t *testing.T) {
	prog, fns, db := setup(t)
	sites := EnumerateSites(prog, src(fns), db)
	// main->hotwork, main->coldwork, alsoNever->neverCalled.
	if len(sites) != 3 {
		t.Fatalf("found %d sites, want 3", len(sites))
	}
	counts := map[string]int64{}
	for _, s := range sites {
		counts[s.Key.Callee] = s.Count
	}
	if counts["hotwork"] != 100 || counts["coldwork"] != 1 || counts["neverCalled"] != 0 {
		t.Errorf("site counts wrong: %v", counts)
	}
}

func TestSelectZeroPercent(t *testing.T) {
	prog, fns, db := setup(t)
	ch := Select(prog, src(fns), db, 0)
	if len(ch.Sites) != 0 || len(ch.Modules) != 0 || len(ch.Funcs) != 0 {
		t.Errorf("0%% selected something: %+v", ch)
	}
	if ch.TotalSites != 3 {
		t.Errorf("TotalSites = %d, want 3", ch.TotalSites)
	}
}

func TestSelectHottestFirst(t *testing.T) {
	prog, fns, db := setup(t)
	// 34% of 3 sites = 2 sites... use 33.4 -> ceil(1.002) = 2. Use a
	// small percentage that keeps exactly one site.
	ch := Select(prog, src(fns), db, 1)
	if len(ch.Sites) != 1 {
		t.Fatalf("selected %d sites, want 1", len(ch.Sites))
	}
	if ch.Sites[0].Key.Callee != "hotwork" {
		t.Errorf("hottest site is %s, want hotwork", ch.Sites[0].Key.Callee)
	}
	// hotmod contains both caller and callee.
	if len(ch.Modules) != 1 {
		t.Errorf("modules = %v, want just hotmod", ch.Modules)
	}
	if !ch.Funcs[prog.Lookup("main").PID] || !ch.Funcs[prog.Lookup("hotwork").PID] {
		t.Error("caller/callee functions not selected")
	}
	if ch.Funcs[prog.Lookup("coldwork").PID] {
		t.Error("cold function selected at 1%")
	}
}

func TestSelectPullsInCalleeModule(t *testing.T) {
	prog, fns, db := setup(t)
	// 60% of 3 sites -> ceil(1.8) = 2: hotwork site and coldwork site; coldmod
	// must join the CMO set because it defines the callee.
	ch := Select(prog, src(fns), db, 60)
	if len(ch.Sites) != 2 {
		t.Fatalf("selected %d sites, want 2", len(ch.Sites))
	}
	coldMod := prog.Lookup("coldwork").Module
	_ = coldMod
	sym := prog.Lookup("coldwork")
	if !ch.Modules[sym.Module] {
		t.Error("callee module not selected")
	}
}

func TestSelectHundredPercent(t *testing.T) {
	prog, fns, db := setup(t)
	ch := Select(prog, src(fns), db, 100)
	if len(ch.Sites) != 3 {
		t.Errorf("selected %d sites, want all 3", len(ch.Sites))
	}
	// All three modules participate (deadmod has a site too).
	if len(ch.Modules) != 3 {
		t.Errorf("modules = %v, want all 3", ch.Modules)
	}
	if ch.SelectedLines == 0 {
		t.Error("SelectedLines not accumulated")
	}
}

func TestSelectWithoutProfile(t *testing.T) {
	prog, fns, _ := setup(t)
	ch := Select(prog, src(fns), nil, 50)
	// Without a profile all counts are zero; selection still picks
	// deterministically by key order.
	if len(ch.Sites) != 2 {
		t.Errorf("selected %d sites, want ceil(1.5)=2", len(ch.Sites))
	}
}

func TestSelectClamping(t *testing.T) {
	prog, fns, db := setup(t)
	if got := Select(prog, src(fns), db, -5); len(got.Sites) != 0 {
		t.Error("negative percent not clamped")
	}
	if got := Select(prog, src(fns), db, 250); len(got.Sites) != 3 {
		t.Error("percent > 100 not clamped")
	}
}

func TestModuleFuncs(t *testing.T) {
	prog, fns, db := setup(t)
	ch := Select(prog, src(fns), db, 1)
	pids := ch.ModuleFuncs(prog)
	names := map[string]bool{}
	for _, pid := range pids {
		names[prog.Sym(pid).Name] = true
	}
	// hotmod defines main and hotwork.
	if !names["main"] || !names["hotwork"] {
		t.Errorf("ModuleFuncs missing hotmod functions: %v", names)
	}
	if names["coldwork"] || names["neverCalled"] {
		t.Errorf("ModuleFuncs leaked other modules: %v", names)
	}
}

func TestScopeSet(t *testing.T) {
	prog, fns, db := setup(t)
	ch := Select(prog, src(fns), db, 1)
	set := ch.ScopeSet(prog)
	pids := ch.ModuleFuncs(prog)
	if len(set) != len(pids) {
		t.Fatalf("ScopeSet has %d members, ModuleFuncs %d", len(set), len(pids))
	}
	for _, pid := range pids {
		if !set[pid] {
			t.Errorf("ScopeSet missing %s", prog.Sym(pid).Name)
		}
	}
}

func TestSelectJobsInvariant(t *testing.T) {
	prog, fns, db := setup(t)
	want := EnumerateSites(prog, src(fns), db)
	for _, jobs := range []int{2, 4, 8} {
		got := EnumerateSitesJobs(prog, src(fns), db, jobs)
		if len(got) != len(want) {
			t.Fatalf("jobs=%d: %d sites, want %d", jobs, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("jobs=%d: site %d = %+v, want %+v", jobs, i, got[i], want[i])
			}
		}
	}
	seq := Select(prog, src(fns), db, 60)
	for _, jobs := range []int{2, 8} {
		par := SelectJobs(prog, src(fns), db, 60, jobs)
		if len(par.Sites) != len(seq.Sites) {
			t.Fatalf("jobs=%d: selected %d sites, want %d", jobs, len(par.Sites), len(seq.Sites))
		}
		for i := range seq.Sites {
			if par.Sites[i].Key != seq.Sites[i].Key {
				t.Fatalf("jobs=%d: site %d ranked differently", jobs, i)
			}
		}
		if len(par.Modules) != len(seq.Modules) || len(par.Funcs) != len(seq.Funcs) {
			t.Fatalf("jobs=%d: module/func sets differ from sequential", jobs)
		}
	}
}

func TestSelectDeterministic(t *testing.T) {
	prog, fns, db := setup(t)
	a := Select(prog, src(fns), db, 60)
	b := Select(prog, src(fns), db, 60)
	if len(a.Sites) != len(b.Sites) {
		t.Fatal("site counts differ")
	}
	for i := range a.Sites {
		if a.Sites[i].Key != b.Sites[i].Key {
			t.Fatal("selection not deterministic")
		}
	}
}
