package cmo

import (
	"strings"
	"testing"

	"cmo/internal/il"
	"cmo/internal/lower"
	"cmo/internal/naim"
	"cmo/internal/obs"
	"cmo/internal/source"
	"cmo/internal/workload"
)

// lowerSpec runs the frontend over a generated workload, returning the
// IL program and bodies for white-box pipeline tests.
func lowerSpec(t *testing.T, spec workload.Spec) (*il.Program, map[il.PID]*il.Function) {
	t.Helper()
	var files []*source.File
	for _, m := range spec.Generate() {
		f, err := source.Parse(m.Name+".minc", m.Text)
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
	return res.Prog, res.Funcs
}

// TestCompileParallelErrorUnpinsAll: when one routine fails
// verification mid-stream under Jobs > 1, the LLO stage must fail,
// stop compiling, and release every body its workers checked out — a
// failing build leaves no pinned handles behind, so UnloadAll can
// compact everything — and hand no code to the linker. The build
// neither caches objects nor has remote workers, so its routines
// compile as they are extracted and the failure ends the stage before
// it plans any partition.
func TestCompileParallelErrorUnpinsAll(t *testing.T) {
	spec := testSpec(31)
	prog, fns := lowerSpec(t, spec)
	loader := naim.NewLoader(prog, naim.Config{})
	defer loader.Close()
	for _, pid := range prog.FuncPIDs() {
		loader.InstallFunc(fns[pid])
	}

	// Break one routine roughly mid-way through the PID order: a call
	// whose callee is a global variable survives local optimization
	// (calls are never dead) but fails structural verification of
	// LLO's working copy. Every other routine compiles normally, so
	// several workers are holding bodies when the failure lands.
	var global *il.Symbol
	for _, sym := range prog.Syms {
		if sym.Kind == il.SymGlobal {
			global = sym
			break
		}
	}
	if global == nil {
		t.Fatal("workload has no global variable")
	}
	var victim *il.Symbol
	pids := prog.FuncPIDs()
	for _, pid := range pids[len(pids)/2:] {
		if call := firstCall(fns[pid]); call != nil {
			call.Sym = global.PID
			victim = prog.Sym(pid)
			break
		}
	}
	if victim == nil {
		t.Fatal("no routine in the second half of the program makes a call")
	}

	b := &Build{Prog: prog}
	opt := Options{Level: O2, Jobs: 8, Partitions: 8, Verify: VerifyStructural}
	code, err := b.runLLO(loader, opt, nil, nil, obs.Span{})
	if err == nil || !strings.Contains(err.Error(), victim.Name) {
		t.Fatalf("LLO error = %v, want the verification failure of %s", err, victim.Name)
	}
	if b.Stats.Partitions != 0 {
		t.Errorf("stage planned %d partitions after a failed extraction, want 0", b.Stats.Partitions)
	}
	if n := loader.PinnedPools(); n != 0 {
		t.Errorf("failing build left %d pools pinned", n)
	}
	if n := loader.UnloadAll(); n != 0 {
		t.Errorf("UnloadAll found %d pinned pools after a failing build (PinLeaks)", n)
	}
	if _, ok := code[victim.PID]; ok || code != nil {
		t.Errorf("failing build still emitted code (%d routines, victim %v)", len(code), ok)
	}
}

// firstCall returns f's first call instruction, or nil.
func firstCall(f *il.Function) *il.Instr {
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			if blk.Instrs[i].Op == il.Call {
				return &blk.Instrs[i]
			}
		}
	}
	return nil
}

func TestParallelBuildIdenticalAcrossJobs(t *testing.T) {
	// The deepest configuration: cross-module optimization, PBO, and
	// full interprocedural verification — every parallelized phase
	// (frontend, selectivity, out-of-scope summaries, HLO verify
	// passes, codegen, post-link verify) is exercised. The image must
	// be byte-identical at every job count.
	spec := testSpec(101)
	spec.Modules = 10
	mods := sources(spec)
	db, err := Train(mods, []map[string]int64{trainInputs(spec)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := Options{
		Level: O4, PBO: true, DB: db, SelectPercent: 20,
		Verify:   VerifyInterproc,
		Volatile: workload.InputGlobals(),
	}
	var ref string
	for _, jobs := range []int{1, 2, 4, 8} {
		opt := base
		opt.Jobs = jobs
		b, err := BuildSource(mods, opt)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		dis := b.Image.Disasm()
		if jobs == 1 {
			ref = dis
			continue
		}
		if dis != ref {
			t.Fatalf("jobs=%d: image differs from the sequential build", jobs)
		}
	}
}
