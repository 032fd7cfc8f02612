package analyze

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"cmo/internal/il"
)

// progBuilder assembles a tiny test program: one module, a few
// functions and globals, bodies supplied per test.
type progBuilder struct {
	p   *il.Program
	m   *il.Module
	fns MapSource
}

func newProg() *progBuilder {
	p := il.NewProgram()
	return &progBuilder{p: p, m: p.AddModule("m"), fns: MapSource{}}
}

func (pb *progBuilder) global(name string, init int64) il.PID {
	pid, _ := pb.p.Intern(name, il.SymGlobal)
	s := pb.p.Sym(pid)
	s.Module, s.Type, s.Init = pb.m.Index, il.I64, init
	pb.m.Defs = append(pb.m.Defs, pid)
	return pid
}

func (pb *progBuilder) fn(name string, nparams int, f *il.Function) il.PID {
	pid, _ := pb.p.Intern(name, il.SymFunc)
	s := pb.p.Sym(pid)
	s.Module = pb.m.Index
	sig := il.Signature{Ret: il.I64}
	for i := 0; i < nparams; i++ {
		sig.Params = append(sig.Params, il.I64)
	}
	s.Sig = sig
	pb.m.Defs = append(pb.m.Defs, pid)
	if f != nil {
		f.Name, f.PID, f.NParams, f.Ret = name, pid, nparams, il.I64
		pb.fns[pid] = f
	}
	return pid
}

// retBlock is a single-block body returning a constant.
func retBlock(v int64) *il.Function {
	return &il.Function{NRegs: 1, Blocks: []*il.Block{{
		Instrs: []il.Instr{{Op: il.Ret, A: il.ConstVal(v)}}, T: -1, F: -1}}}
}

func run(t *testing.T, pb *progBuilder, level Level, omit map[il.PID]bool) *Result {
	t.Helper()
	return Program(pb.p, pb.fns, Options{Level: level, Omit: omit})
}

func wantCheck(t *testing.T, res *Result, check string, sev Severity, substr string) {
	t.Helper()
	for _, d := range res.Diags {
		if d.Check == check && d.Severity == sev && strings.Contains(d.Message, substr) {
			return
		}
	}
	t.Errorf("no %s %s diagnostic containing %q in:\n%v", sev, check, substr, res.Diags)
}

func TestCleanProgramHasNoDiagnostics(t *testing.T) {
	pb := newProg()
	g := pb.global("g", 7)
	callee := pb.fn("callee", 1, &il.Function{NRegs: 3, Blocks: []*il.Block{{
		Instrs: []il.Instr{
			{Op: il.LoadG, Dst: 2, Sym: g},
			{Op: il.Add, Dst: 2, A: il.RegVal(1), B: il.RegVal(2)},
			{Op: il.Ret, A: il.RegVal(2)},
		}, T: -1, F: -1}}})
	pb.fn("main", 0, &il.Function{NRegs: 2, Blocks: []*il.Block{{
		Instrs: []il.Instr{
			{Op: il.Call, Dst: 1, Sym: callee, Args: []il.Value{il.ConstVal(4)}},
			{Op: il.Ret, A: il.RegVal(1)},
		}, T: -1, F: -1}}})
	res := run(t, pb, Interproc, nil)
	if len(res.Diags) != 0 {
		t.Fatalf("clean program produced diagnostics:\n%v", res.Diags)
	}
	if res.Functions != 2 {
		t.Errorf("Functions = %d, want 2", res.Functions)
	}
	if res.Err() != nil {
		t.Errorf("Err = %v", res.Err())
	}
}

func TestProgramJobsInvariant(t *testing.T) {
	// A program mixing clean bodies, a missing body, a structural
	// error, and dataflow warnings: the parallel per-function scan must
	// report exactly the sequential diagnostic stream at any job count.
	pb := newProg()
	for i := 0; i < 24; i++ {
		pb.fn(fmt.Sprintf("clean%02d", i), 0, retBlock(int64(i)))
	}
	pb.fn("ghost", 0, nil)
	pb.fn("bad", 0, &il.Function{NRegs: 2, Blocks: []*il.Block{{
		Instrs: []il.Instr{{Op: il.Const, Dst: 1, A: il.ConstVal(1)}}, T: -1, F: -1}}})
	pb.fn("warny", 0, &il.Function{NRegs: 3, Blocks: []*il.Block{
		{Instrs: []il.Instr{
			{Op: il.Const, Dst: 1, A: il.ConstVal(3)},
			{Op: il.Ret, A: il.ConstVal(0)},
		}, T: -1, F: -1},
		{Instrs: []il.Instr{{Op: il.Ret, A: il.ConstVal(9)}}, T: -1, F: -1},
	}})
	pb.fn("main", 0, retBlock(0))
	want := Program(pb.p, pb.fns, Options{Level: Dataflow})
	for _, jobs := range []int{2, 4, 8} {
		got := Program(pb.p, pb.fns, Options{Level: Dataflow, Jobs: jobs})
		if got.Functions != want.Functions {
			t.Errorf("jobs=%d: Functions = %d, want %d", jobs, got.Functions, want.Functions)
		}
		if len(got.Diags) != len(want.Diags) {
			t.Fatalf("jobs=%d: %d diags, want %d:\n%v\nvs\n%v",
				jobs, len(got.Diags), len(want.Diags), got.Diags, want.Diags)
		}
		for i := range want.Diags {
			if got.Diags[i] != want.Diags[i] {
				t.Errorf("jobs=%d: diag %d = %v, want %v", jobs, i, got.Diags[i], want.Diags[i])
			}
		}
	}
}

func TestStructuralTier(t *testing.T) {
	pb := newProg()
	// Last instruction is not a terminator.
	pb.fn("bad", 0, &il.Function{NRegs: 2, Blocks: []*il.Block{{
		Instrs: []il.Instr{{Op: il.Const, Dst: 1, A: il.ConstVal(1)}}, T: -1, F: -1}}})
	pb.fn("main", 0, retBlock(0))
	res := run(t, pb, Structural, nil)
	wantCheck(t, res, "structural", Error, "not a terminator")
	if res.Errors() != 1 {
		t.Errorf("Errors = %d, want 1", res.Errors())
	}
}

func TestMissingBody(t *testing.T) {
	pb := newProg()
	pb.fn("ghost", 0, nil) // defined symbol, no body
	pb.fn("main", 0, retBlock(0))
	res := run(t, pb, Structural, nil)
	wantCheck(t, res, "missing-body", Error, "no body")
}

func TestDefBeforeUse(t *testing.T) {
	pb := newProg()
	// r2 is defined only on the true arm but used after the join.
	pb.fn("main", 0, &il.Function{NRegs: 3, Blocks: []*il.Block{
		{Instrs: []il.Instr{
			{Op: il.Const, Dst: 1, A: il.ConstVal(1)},
			{Op: il.Br, A: il.RegVal(1)},
		}, T: 1, F: 2},
		{Instrs: []il.Instr{
			{Op: il.Const, Dst: 2, A: il.ConstVal(5)},
			{Op: il.Jmp},
		}, T: 2, F: -1},
		{Instrs: []il.Instr{{Op: il.Ret, A: il.RegVal(2)}}, T: -1, F: -1},
	}})
	res := run(t, pb, Dataflow, nil)
	wantCheck(t, res, "def-before-use", Error, "r2 may be used before it is defined")
}

func TestMergePointDefinitionAccepted(t *testing.T) {
	pb := newProg()
	// r2 is defined on BOTH arms: the must-defined dataflow accepts
	// what a pure dominance check would reject.
	pb.fn("main", 0, &il.Function{NRegs: 3, Blocks: []*il.Block{
		{Instrs: []il.Instr{
			{Op: il.Const, Dst: 1, A: il.ConstVal(1)},
			{Op: il.Br, A: il.RegVal(1)},
		}, T: 1, F: 2},
		{Instrs: []il.Instr{{Op: il.Const, Dst: 2, A: il.ConstVal(5)}, {Op: il.Jmp}}, T: 3, F: -1},
		{Instrs: []il.Instr{{Op: il.Const, Dst: 2, A: il.ConstVal(6)}, {Op: il.Jmp}}, T: 3, F: -1},
		{Instrs: []il.Instr{{Op: il.Ret, A: il.RegVal(2)}}, T: -1, F: -1},
	}})
	res := run(t, pb, Dataflow, nil)
	if res.Errors() != 0 {
		t.Fatalf("merge-point definition rejected:\n%v", res.Diags)
	}
}

func TestUnreachableAndDeadStoreWarnings(t *testing.T) {
	pb := newProg()
	pb.fn("main", 0, &il.Function{NRegs: 3, Blocks: []*il.Block{
		{Instrs: []il.Instr{
			{Op: il.Const, Dst: 1, A: il.ConstVal(3)}, // never used: dead store
			{Op: il.Ret, A: il.ConstVal(0)},
		}, T: -1, F: -1},
		{Instrs: []il.Instr{{Op: il.Ret, A: il.ConstVal(9)}}, T: -1, F: -1}, // unreachable
	}})
	res := run(t, pb, Dataflow, nil)
	wantCheck(t, res, "dead-store", Warning, "never used")
	wantCheck(t, res, "unreachable", Warning, "unreachable")
	if res.Errors() != 0 {
		t.Errorf("warnings misclassified as errors:\n%v", res.Diags)
	}
	if res.Warnings() != 2 {
		t.Errorf("Warnings = %d, want 2", res.Warnings())
	}
}

func TestCallSignatureMismatch(t *testing.T) {
	pb := newProg()
	callee := pb.fn("callee", 2, &il.Function{NRegs: 3, Blocks: []*il.Block{{
		Instrs: []il.Instr{{Op: il.Ret, A: il.RegVal(1)}}, T: -1, F: -1}}})
	pb.fn("main", 0, &il.Function{NRegs: 2, Blocks: []*il.Block{{
		Instrs: []il.Instr{
			{Op: il.Call, Dst: 1, Sym: callee, Args: []il.Value{il.ConstVal(1)}}, // arity 1, want 2
			{Op: il.Ret, A: il.RegVal(1)},
		}, T: -1, F: -1}}})
	// il.Verify would catch this too; run at Interproc with the
	// structural tier's victim excluded from blame by checking the
	// check id explicitly.
	res := run(t, pb, Interproc, nil)
	wantCheck(t, res, "call-signature", Error, "passes 1 args")
}

func TestDanglingAndOmittedCallees(t *testing.T) {
	pb := newProg()
	dead := pb.fn("dead", 0, retBlock(1))
	pb.fn("main", 0, &il.Function{NRegs: 2, Blocks: []*il.Block{{
		Instrs: []il.Instr{
			{Op: il.Call, Dst: 1, Sym: dead},
			{Op: il.Ret, A: il.RegVal(1)},
		}, T: -1, F: -1}}})
	res := run(t, pb, Interproc, map[il.PID]bool{dead: true})
	wantCheck(t, res, "dangling-pid", Error, "dead-code elimination removed")
}

func TestUnresolvedSymbolReference(t *testing.T) {
	pb := newProg()
	// An interned but never-defined function: Module stays -1.
	ext, _ := pb.p.Intern("mystery", il.SymFunc)
	pb.fn("main", 0, &il.Function{NRegs: 2, Blocks: []*il.Block{{
		Instrs: []il.Instr{
			{Op: il.Call, Dst: 1, Sym: ext},
			{Op: il.Ret, A: il.RegVal(1)},
		}, T: -1, F: -1}}})
	res := run(t, pb, Interproc, nil)
	wantCheck(t, res, "dangling-pid", Error, "unresolved symbol mystery")
}

func TestModuleTableMismatch(t *testing.T) {
	pb := newProg()
	pb.fn("main", 0, retBlock(0))
	other := pb.p.AddModule("other")
	// other claims to define main.
	other.Defs = append(other.Defs, pb.p.Lookup("main").PID)
	res := run(t, pb, Interproc, nil)
	wantCheck(t, res, "module-table", Error, "resolves to module")
}

// flipFlopSource returns a different body on the second read of one
// function, simulating a loader whose pools drift between the call
// graph's scan and everyone else's — exactly the inconsistency the
// callgraph agreement check exists to catch.
type flipFlopSource struct {
	MapSource
	target il.PID
	alt    *il.Function
	after  int // switch to alt after this many reads of target
	reads  int
}

func (s *flipFlopSource) View(pid il.PID) *il.Function {
	if pid == s.target {
		s.reads++
		if s.reads > s.after {
			return s.alt
		}
	}
	return s.MapSource[pid]
}

func TestCallgraphAgreement(t *testing.T) {
	pb := newProg()
	callee := pb.fn("callee", 0, retBlock(2))
	mainPID := pb.fn("main", 0, &il.Function{NRegs: 2, Blocks: []*il.Block{{
		Instrs: []il.Instr{
			{Op: il.Call, Dst: 1, Sym: callee},
			{Op: il.Ret, A: il.RegVal(1)},
		}, T: -1, F: -1}}})
	alt := retBlock(0) // no call at all once the source flips
	alt.Name, alt.PID, alt.Ret = "main", mainPID, il.I64
	// Reads of main: per-function tier (1), interproc direct scan (2),
	// callgraph.Build (3). Flip between 2 and 3 so the graph disagrees
	// with the direct scan.
	src := &flipFlopSource{MapSource: pb.fns, target: mainPID, alt: alt, after: 2}
	res := Program(pb.p, src, Options{Level: Interproc})
	wantCheck(t, res, "callgraph", Error, "callee")
}

func TestRoundTripTierPasses(t *testing.T) {
	pb := newProg()
	pb.fn("main", 0, &il.Function{NRegs: 3, Blocks: []*il.Block{
		{Instrs: []il.Instr{
			{Op: il.Const, Dst: 1, A: il.ConstVal(10)},
			{Op: il.Br, A: il.RegVal(1)},
		}, T: 1, F: 1},
		{Instrs: []il.Instr{{Op: il.Ret, A: il.RegVal(1)}}, T: -1, F: -1},
	}})
	res := run(t, pb, Interproc, nil)
	for _, d := range res.Diags {
		if d.Check == "naim-roundtrip" {
			t.Fatalf("round-trip failed on a well-formed body: %v", d)
		}
	}
}

func TestFunctionAPI(t *testing.T) {
	pb := newProg()
	pb.fn("f", 0, &il.Function{NRegs: 2, Blocks: []*il.Block{{
		Instrs: []il.Instr{{Op: il.Ret, A: il.RegVal(1)}}, T: -1, F: -1}}})
	f := pb.fns[pb.p.Lookup("f").PID]
	if ds := Function(pb.p, f, Off); ds != nil {
		t.Errorf("Off produced diagnostics: %v", ds)
	}
	// r1 is read but f has no params: caught only by the dataflow tier.
	if ds := Function(pb.p, f, Structural); len(ds) != 0 {
		t.Errorf("structural flagged a structurally valid body: %v", ds)
	}
	ds := Function(pb.p, f, Dataflow)
	if FirstError(ds) == nil {
		t.Error("dataflow tier missed use of undefined r1")
	}
}

func TestLevelAndSeverityCodecs(t *testing.T) {
	for _, l := range []Level{Off, Structural, Dataflow, Interproc} {
		back, err := ParseLevel(l.String())
		if err != nil || back != l {
			t.Errorf("ParseLevel(%q) = %v, %v", l.String(), back, err)
		}
	}
	if _, err := ParseLevel("bogus"); err == nil {
		t.Error("ParseLevel accepted bogus")
	}
	var s Severity
	b, _ := json.Marshal(Error)
	if string(b) != `"error"` {
		t.Errorf("marshal Error = %s", b)
	}
	if err := json.Unmarshal(b, &s); err != nil || s != Error {
		t.Errorf("unmarshal: %v %v", s, err)
	}
}

func TestDiagnosticStringAndSort(t *testing.T) {
	d := Diagnostic{Check: "def-before-use", Severity: Error,
		Module: "m", Function: "f", Block: 2, Instr: 3, Message: "boom"}
	want := "m: f: b2/3: error: [def-before-use] boom"
	if d.String() != want {
		t.Errorf("String = %q, want %q", d.String(), want)
	}
	res := &Result{Diags: []Diagnostic{
		{Module: "m", Function: "g", Block: 0, Instr: 0, Severity: Warning, Check: "b"},
		{Module: "m", Function: "f", Block: 1, Instr: 0, Severity: Warning, Check: "a"},
		{Module: "m", Function: "f", Block: 1, Instr: 0, Severity: Error, Check: "z"},
	}}
	res.Sort()
	if res.Diags[0].Check != "z" || res.Diags[1].Check != "a" || res.Diags[2].Check != "b" {
		t.Errorf("sort order wrong: %v", res.Diags)
	}
	if err := res.Err(); err == nil || !strings.Contains(err.Error(), "[z]") {
		t.Errorf("Err should carry the first error: %v", err)
	}
}
