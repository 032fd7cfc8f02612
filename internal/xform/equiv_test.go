package xform

import (
	"fmt"
	"strings"
	"testing"

	"cmo/internal/il"
	"cmo/internal/iltest"
	"cmo/internal/lower"
	"cmo/internal/source"
	"cmo/internal/workload"
)

// dump renders f with everything the code generator reads: the
// printed text plus each block's raw T, F and Freq (Print omits F on
// a Jmp and the targets of a Ret).
func dump(p *il.Program, f *il.Function) string {
	var sb strings.Builder
	sb.WriteString(f.Print(p))
	for i, b := range f.Blocks {
		fmt.Fprintf(&sb, "b%d T=%d F=%d freq=%d\n", i, b.T, b.F, b.Freq)
	}
	return sb.String()
}

// corpusFunc is one function body of the equivalence corpus.
type corpusFunc struct {
	name string
	prog *il.Program
	f    *il.Function
}

// generatedCorpus returns every function of the iltest program for
// seed. Odd-PID functions get block frequencies so the merges' Freq
// handling is compared too.
func generatedCorpus(seed int64) []corpusFunc {
	p := iltest.Generate(seed, iltest.Default())
	var out []corpusFunc
	for _, pid := range p.Prog.FuncPIDs() {
		f := p.Funcs[pid]
		if f == nil {
			continue
		}
		if int(pid)%2 == 1 {
			for i, b := range f.Blocks {
				b.Freq = int64(i*5+int(seed)) % 7
			}
		}
		out = append(out, corpusFunc{fmt.Sprintf("seed %d %s", seed, f.Name), p.Prog, f})
	}
	return out
}

// loweredCorpus returns the functions the frontend lowers from a small
// program of the workload generator's shape; these carry the loop and
// short-circuit block shapes real builds optimize.
func loweredCorpus(t testing.TB, seed int64) []corpusFunc {
	spec := workload.Spec{
		Name: "eq", Seed: seed, Modules: 3, HotPerModule: 2, ColdPerModule: 4, ColdStmts: 12,
		ArrayElems: 16, TrainIters: 10, RefIters: 10, TrainMode: 2, RefMode: 4,
	}
	var files []*source.File
	for _, m := range spec.Generate() {
		sf, err := source.Parse(m.Name+".minc", m.Text)
		if err == nil {
			err = source.Check(sf)
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		files = append(files, sf)
	}
	res, err := lower.Modules(files)
	if err != nil {
		t.Fatalf("seed %d: lower: %v", seed, err)
	}
	var out []corpusFunc
	for _, pid := range res.Prog.FuncPIDs() {
		if f := res.Funcs[pid]; f != nil {
			out = append(out, corpusFunc{fmt.Sprintf("lowered seed %d %s", seed, f.Name), res.Prog, f})
		}
	}
	return out
}

// refUnrolls counts the corpus functions the reference pipeline
// unrolled a loop in.
var refUnrolls int

// checkAgainstRef runs each pass and its reference on clones of cf.f
// and fails on the first body whose text differs.
func checkAgainstRef(t *testing.T, cf corpusFunc) {
	t.Helper()
	type pass struct {
		name     string
		got, ref func(f *il.Function)
	}
	// prep turns the body into the state Cleanup meets inside
	// Optimize: folded locally, branches folded.
	prep := func(f *il.Function) { refLocalOptimize(f); FoldBranches(f) }
	passes := []pass{
		{"Optimize", func(f *il.Function) { Optimize(f) }, refOptimize},
		{"DCE", func(f *il.Function) { DCE(f) }, func(f *il.Function) { refDCE(f) }},
		{"Cleanup", func(f *il.Function) { Cleanup(f) }, func(f *il.Function) { refCleanup(f) }},
		{"LocalOptimize", func(f *il.Function) { LocalOptimize(f) }, func(f *il.Function) { refLocalOptimize(f) }},
		{"fold+Cleanup",
			func(f *il.Function) { prep(f); Cleanup(f) },
			func(f *il.Function) { prep(f); refCleanup(f) }},
		// One call of each Cleanup step, since Cleanup's outer loop
		// can hide a step that leaves the CFG in a different but
		// converging state.
		{"fold+dropUnreachable",
			func(f *il.Function) { prep(f); new(scratch).dropUnreachable(f) },
			func(f *il.Function) { prep(f); refDropUnreachable(f) }},
		{"fold+mergeChains",
			func(f *il.Function) { prep(f); new(scratch).mergeChains(f) },
			func(f *il.Function) { prep(f); refMergeChains(f) }},
		{"fold+threadJumps+mergeChains",
			func(f *il.Function) { prep(f); s := new(scratch); s.threadJumps(f); s.mergeChains(f) },
			func(f *il.Function) { prep(f); refThreadJumps(f); refMergeChains(f) }},
		{"Optimize+Unroll+Optimize",
			func(f *il.Function) {
				Optimize(f)
				if UnrollLoops(f, 256) {
					Optimize(f)
				}
			},
			func(f *il.Function) {
				refOptimize(f)
				if refUnrollLoops(f, 256) {
					refUnrolls++
					refOptimize(f)
				}
			}},
	}
	for _, p := range passes {
		got, want := cf.f.Clone(), cf.f.Clone()
		p.got(got)
		p.ref(want)
		if g, w := dump(cf.prog, got), dump(cf.prog, want); g != w {
			t.Fatalf("%s: %s differs from the reference\ninput:\n%s\ngot:\n%s\nwant:\n%s",
				cf.name, p.name, dump(cf.prog, cf.f), g, w)
		}
	}
}

// TestPassesMatchReference: over every function of 250 generated IL
// programs and 20 lowered MinC programs, Optimize, DCE, Cleanup,
// LocalOptimize and the unrolling pipeline leave exactly the text
// their references leave. The corpus must reach the merge that starts
// from an unreachable husk, whose block order Cleanup must reproduce,
// and must unroll some loop.
func TestPassesMatchReference(t *testing.T) {
	refHuskMerges, refUnrolls = 0, 0
	for seed := int64(0); seed < 250; seed++ {
		for _, cf := range generatedCorpus(seed) {
			checkAgainstRef(t, cf)
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		for _, cf := range loweredCorpus(t, seed) {
			checkAgainstRef(t, cf)
		}
	}
	if refHuskMerges == 0 {
		t.Error("no merge started from an unreachable husk; the corpus misses that case")
	}
	if refUnrolls == 0 {
		t.Error("no corpus function had a loop unrolled")
	}
}

// TestOptimizeReportsChange: Optimize reports a change exactly when
// the body's text changed. HLO marks a read-checked-out body dirty
// only on that report, so a change it misses would be dropped the
// next time the NAIM loader evicts the body.
func TestOptimizeReportsChange(t *testing.T) {
	var corpus []corpusFunc
	for seed := int64(0); seed < 50; seed++ {
		corpus = append(corpus, generatedCorpus(seed)...)
	}
	for seed := int64(1); seed <= 5; seed++ {
		corpus = append(corpus, loweredCorpus(t, seed)...)
	}
	seen := map[bool]int{}
	for _, cf := range corpus {
		f := cf.f.Clone()
		// The second round meets a body already at Optimize's fixed
		// point, where the report should be false.
		for round := 0; round < 2; round++ {
			before := dump(cf.prog, f)
			changed := Optimize(f)
			if after := dump(cf.prog, f); changed != (after != before) {
				t.Fatalf("%s round %d: Optimize reported changed=%v, text changed=%v\ninput:\n%s\noutput:\n%s",
					cf.name, round, changed, after != before, before, after)
			}
			seen[changed]++
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Errorf("corpus exercised only one outcome: %v", seen)
	}
}

func FuzzPassesMatchReference(f *testing.F) {
	for _, s := range []int64{0, 1, 7, 101} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, cf := range generatedCorpus(seed) {
			checkAgainstRef(t, cf)
		}
	})
}
