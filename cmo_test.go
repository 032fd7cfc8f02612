package cmo

import (
	"bytes"
	"testing"

	"cmo/internal/naim"
	"cmo/internal/workload"
)

// testSpec is a small multi-module workload used across facade tests.
func testSpec(seed int64) workload.Spec {
	return workload.Spec{
		Name: "facade", Seed: seed,
		Modules: 6, HotPerModule: 2, ColdPerModule: 5, ColdStmts: 12,
		ArrayElems: 32,
		TrainIters: 60, RefIters: 150, TrainMode: 2, RefMode: 4,
	}
}

func sources(spec workload.Spec) []SourceModule {
	var mods []SourceModule
	for _, m := range spec.Generate() {
		mods = append(mods, SourceModule{Name: m.Name + ".minc", Text: m.Text})
	}
	return mods
}

func refInputs(spec workload.Spec) map[string]int64 {
	return map[string]int64{"input0": spec.Ref().Iters, "input1": spec.Ref().Mode}
}

func trainInputs(spec workload.Spec) map[string]int64 {
	return map[string]int64{"input0": spec.Train().Iters, "input1": spec.Train().Mode}
}

// buildAndRun compiles at the given options and runs on ref inputs.
func buildAndRun(t *testing.T, mods []SourceModule, spec workload.Spec, opt Options) (*Build, *RunResult) {
	t.Helper()
	opt.Volatile = workload.InputGlobals()
	b, err := BuildSource(mods, opt)
	if err != nil {
		t.Fatalf("build %v: %v", opt.Level, err)
	}
	rr, err := b.Run(refInputs(spec), 0)
	if err != nil {
		t.Fatalf("run %v: %v", opt.Level, err)
	}
	return b, rr
}

func TestAllLevelsAgreeAndImprove(t *testing.T) {
	spec := testSpec(11)
	mods := sources(spec)
	db, err := Train(mods, []map[string]int64{trainInputs(spec)}, Options{})
	if err != nil {
		t.Fatalf("train: %v", err)
	}

	_, r1 := buildAndRun(t, mods, spec, Options{Level: O1})
	_, r2 := buildAndRun(t, mods, spec, Options{Level: O2})
	_, r2p := buildAndRun(t, mods, spec, Options{Level: O2, PBO: true, DB: db})
	_, r4 := buildAndRun(t, mods, spec, Options{Level: O4, SelectPercent: -1})
	b4p, r4p := buildAndRun(t, mods, spec, Options{Level: O4, PBO: true, DB: db, SelectPercent: 100})

	// Semantic agreement across every level (the repository's core
	// correctness property).
	for name, r := range map[string]*RunResult{"O2": r2, "O2+P": r2p, "O4": r4, "O4+P": r4p} {
		if r.Value != r1.Value {
			t.Errorf("%s result %d != O1 result %d", name, r.Value, r1.Value)
		}
	}

	// Performance ordering (Figure 1's qualitative shape): O2 beats
	// O1; every aggressive level beats O2; CMO+PBO is the best.
	if r2.Stats.Cycles >= r1.Stats.Cycles {
		t.Errorf("O2 (%d cycles) not faster than O1 (%d)", r2.Stats.Cycles, r1.Stats.Cycles)
	}
	for name, r := range map[string]*RunResult{"O2+P": r2p, "O4": r4, "O4+P": r4p} {
		if r.Stats.Cycles >= r2.Stats.Cycles {
			t.Errorf("%s (%d cycles) not faster than O2 (%d)", name, r.Stats.Cycles, r2.Stats.Cycles)
		}
	}
	if r4p.Stats.Cycles > r4.Stats.Cycles || r4p.Stats.Cycles > r2p.Stats.Cycles {
		t.Errorf("O4+P (%d) should be fastest (O4 %d, O2+P %d)",
			r4p.Stats.Cycles, r4.Stats.Cycles, r2p.Stats.Cycles)
	}
	// CMO must actually reduce dynamic call counts.
	if r4p.Stats.Calls >= r2.Stats.Calls {
		t.Errorf("O4+P calls (%d) not below O2 (%d)", r4p.Stats.Calls, r2.Stats.Calls)
	}
	if b4p.Stats.HLO.CrossModule == 0 {
		t.Error("no cross-module inlines recorded at O4+P")
	}
}

func TestSelectivityReducesWork(t *testing.T) {
	spec := testSpec(23)
	mods := sources(spec)
	db, err := Train(mods, []map[string]int64{trainInputs(spec)}, Options{})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	full, _ := buildAndRun(t, mods, spec, Options{Level: O4, PBO: true, DB: db, SelectPercent: 100})
	slim, rSlim := buildAndRun(t, mods, spec, Options{Level: O4, PBO: true, DB: db, SelectPercent: 5})
	if slim.Stats.SelectedSites >= full.Stats.SelectedSites {
		t.Errorf("5%% selected %d sites, 100%% selected %d", slim.Stats.SelectedSites, full.Stats.SelectedSites)
	}
	if slim.Stats.CMOFunctions >= full.Stats.CMOFunctions {
		t.Errorf("selectivity did not shrink the optimized set: %d vs %d",
			slim.Stats.CMOFunctions, full.Stats.CMOFunctions)
	}
	if slim.Stats.HLO.OptimizedFns > full.Stats.HLO.OptimizedFns {
		t.Error("selective build optimized more functions than full CMO")
	}
	// Correctness unaffected.
	_, r2 := buildAndRun(t, mods, spec, Options{Level: O2})
	if rSlim.Value != r2.Value {
		t.Errorf("selective CMO changed result: %d != %d", rSlim.Value, r2.Value)
	}
}

func TestZeroPercentSelectivityIsPlainPBO(t *testing.T) {
	spec := testSpec(31)
	mods := sources(spec)
	db, err := Train(mods, []map[string]int64{trainInputs(spec)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := buildAndRun(t, mods, spec, Options{Level: O4, PBO: true, DB: db, SelectPercent: 0})
	if b.Stats.HLO.Inlines != 0 || b.Stats.CMOModules != 0 {
		t.Errorf("0%% selectivity still ran CMO: %+v", b.Stats.HLO)
	}
}

func TestNAIMBudgetEngagesDuringBuild(t *testing.T) {
	spec := testSpec(47)
	spec.Modules = 10
	mods := sources(spec)

	free, err := BuildSource(mods, Options{Level: O4, SelectPercent: -1, Volatile: workload.InputGlobals()})
	if err != nil {
		t.Fatal(err)
	}
	if free.Stats.NAIMLevel != naim.LevelOff {
		t.Errorf("unbudgeted build engaged NAIM: %v", free.Stats.NAIMLevel)
	}

	budget := free.Stats.NAIM.PeakBytes / 3
	tight, err := BuildSource(mods, Options{
		Level: O4, SelectPercent: -1,
		NAIM:     naim.Config{BudgetBytes: budget, ForceLevel: naim.Adaptive, CacheSlots: 8},
		Volatile: workload.InputGlobals(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Stats.NAIMLevel == naim.LevelOff {
		t.Error("budgeted build never engaged NAIM")
	}
	if tight.Stats.NAIM.PeakBytes >= free.Stats.NAIM.PeakBytes {
		t.Errorf("budget did not reduce peak: %d vs %d",
			tight.Stats.NAIM.PeakBytes, free.Stats.NAIM.PeakBytes)
	}
	// And the output must be identical code: the same image bytes, and
	// so the same run.
	if !bytes.Equal(encodedImage(t, free), encodedImage(t, tight)) {
		t.Error("NAIM changed the encoded image")
	}
	rFree, err := free.Run(refInputs(spec), 0)
	if err != nil {
		t.Fatal(err)
	}
	rTight, err := tight.Run(refInputs(spec), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rFree.Value != rTight.Value || rFree.Stats.Cycles != rTight.Stats.Cycles {
		t.Errorf("NAIM changed generated code: value %d/%d cycles %d/%d",
			rFree.Value, rTight.Value, rFree.Stats.Cycles, rTight.Stats.Cycles)
	}
}

func TestBuildDeterministic(t *testing.T) {
	spec := testSpec(53)
	mods := sources(spec)
	db, err := Train(mods, []map[string]int64{trainInputs(spec)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Level: O4, PBO: true, DB: db, SelectPercent: 20, Volatile: workload.InputGlobals(),
		NAIM: naim.Config{ForceLevel: naim.LevelIR, CacheSlots: 4}}
	b1, err := BuildSource(mods, opt)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := BuildSource(mods, opt)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Image.Disasm() != b2.Image.Disasm() {
		t.Error("same sources, profile, and memory configuration produced different code (paper section 6.2 reproducibility violated)")
	}
}

func TestTrainMergesRuns(t *testing.T) {
	spec := testSpec(59)
	mods := sources(spec)
	db1, err := Train(mods, []map[string]int64{trainInputs(spec)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Train(mods, []map[string]int64{trainInputs(spec), trainInputs(spec)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := db1.RankedSites()
	s2 := db2.RankedSites()
	if len(s1) == 0 || len(s1) != len(s2) {
		t.Fatalf("site sets differ: %d vs %d", len(s1), len(s2))
	}
	if s2[0].Count != 2*s1[0].Count {
		t.Errorf("two runs should double counts: %d vs %d", s2[0].Count, s1[0].Count)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := BuildSource([]SourceModule{{Name: "x", Text: "not minc"}}, Options{}); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := BuildSource([]SourceModule{{Name: "x", Text: "module m; func f() {}"}}, Options{}); err == nil {
		t.Error("missing main not surfaced")
	}
	if _, err := BuildSource(nil, Options{PBO: true}); err == nil {
		t.Error("PBO without DB not surfaced")
	}
}

func TestDeadCodeShrinksImage(t *testing.T) {
	spec := testSpec(61)
	mods := sources(spec)
	o2, err := BuildSource(mods, Options{Level: O2, Volatile: workload.InputGlobals()})
	if err != nil {
		t.Fatal(err)
	}
	o4, err := BuildSource(mods, Options{Level: O4, SelectPercent: -1, Volatile: workload.InputGlobals()})
	if err != nil {
		t.Fatal(err)
	}
	if o4.Stats.HLO.DeadFuncs == 0 {
		t.Skip("workload has no dead functions at this seed")
	}
	if len(o4.Image.Funcs) >= len(o2.Image.Funcs) {
		t.Errorf("dead function elimination did not shrink the image: %d vs %d funcs",
			len(o4.Image.Funcs), len(o2.Image.Funcs))
	}
}
