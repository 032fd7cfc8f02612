package ipa_test

import (
	"testing"

	"cmo/internal/il"
	"cmo/internal/ipa"
)

// builder assembles a tiny one-module program; bodies are supplied
// per test through a pin-counting source so every test doubles as a
// check of the Function/DoneWith discipline.
type builder struct {
	p   *il.Program
	m   *il.Module
	fns map[il.PID]*il.Function
}

func newBuilder() *builder {
	p := il.NewProgram()
	return &builder{p: p, m: p.AddModule("m"), fns: map[il.PID]*il.Function{}}
}

func (b *builder) global(name string) il.PID {
	pid, _ := b.p.Intern(name, il.SymGlobal)
	s := b.p.Sym(pid)
	s.Module, s.Type = b.m.Index, il.I64
	b.m.Defs = append(b.m.Defs, pid)
	return pid
}

func (b *builder) fn(name string, body ...il.Instr) il.PID {
	pid, _ := b.p.Intern(name, il.SymFunc)
	s := b.p.Sym(pid)
	s.Module = b.m.Index
	s.Sig = il.Signature{Ret: il.I64}
	b.m.Defs = append(b.m.Defs, pid)
	if body != nil {
		if body[len(body)-1].Op != il.Ret {
			body = append(body, il.Instr{Op: il.Ret, A: il.ConstVal(0)})
		}
		b.fns[pid] = &il.Function{
			Name: name, PID: pid, NRegs: 8, Ret: il.I64,
			Blocks: []*il.Block{{Instrs: body, T: -1, F: -1}},
		}
	}
	return pid
}

// countingSource counts outstanding pins; Analyze must end balanced.
type countingSource struct {
	fns    map[il.PID]*il.Function
	pinned map[il.PID]int
}

func (s *countingSource) View(pid il.PID) *il.Function {
	if s.fns[pid] == nil {
		return nil
	}
	s.pinned[pid]++
	return s.fns[pid]
}

func (s *countingSource) DoneWith(pid il.PID) { s.pinned[pid]-- }

func analyze(t *testing.T, b *builder, opts ipa.Options) *ipa.Result {
	t.Helper()
	src := &countingSource{fns: b.fns, pinned: map[il.PID]int{}}
	res := ipa.Analyze(b.p, src, opts)
	for pid, n := range src.pinned {
		if n != 0 {
			t.Errorf("%s left %d pins outstanding", b.p.Sym(pid).Name, n)
		}
	}
	return res
}

func call(dst il.Reg, callee il.PID) il.Instr {
	return il.Instr{Op: il.Call, Dst: dst, Sym: callee}
}

func TestDirectEffectsAndPurity(t *testing.T) {
	b := newBuilder()
	g := b.global("g")
	h := b.global("h")
	writer := b.fn("writer", il.Instr{Op: il.StoreG, Sym: g, A: il.ConstVal(1)})
	reader := b.fn("reader", il.Instr{Op: il.LoadG, Dst: 1, Sym: h})
	leaf := b.fn("leaf", il.Instr{Op: il.Ret, A: il.ConstVal(42)})

	res := analyze(t, b, ipa.Options{})
	if s := res.Summaries[writer]; !s.Mods(g) || s.Refs(g) || s.Purity != ipa.Neither {
		t.Errorf("writer summary wrong: %s", s.Fingerprint(b.p))
	}
	if s := res.Summaries[reader]; !s.Refs(h) || s.WritesAnything() || s.Purity != ipa.Pure {
		t.Errorf("reader summary wrong: %s", s.Fingerprint(b.p))
	}
	if s := res.Summaries[leaf]; s.Purity != ipa.Const {
		t.Errorf("leaf summary wrong: %s", s.Fingerprint(b.p))
	}
	if res.Stats.Functions != 3 || res.Stats.ConstFns != 1 || res.Stats.PureFns != 1 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestTransitivePropagation(t *testing.T) {
	b := newBuilder()
	g := b.global("g")
	writer := b.fn("writer", il.Instr{Op: il.StoreG, Sym: g, A: il.ConstVal(1)})
	mid := b.fn("mid", call(1, writer))
	top := b.fn("top", call(1, mid))

	res := analyze(t, b, ipa.Options{})
	for _, pid := range []il.PID{mid, top} {
		s := res.Summaries[pid]
		if !s.Mods(g) || s.ModTop || s.Purity != ipa.Neither {
			t.Errorf("%s summary wrong: %s", b.p.Sym(pid).Name, s.Fingerprint(b.p))
		}
	}
}

func TestSCCFixpoint(t *testing.T) {
	// even and odd call each other; odd also writes g. Both members of
	// the cycle must converge to Mod={g}.
	b := newBuilder()
	g := b.global("g")
	even, _ := b.p.Intern("even", il.SymFunc)
	odd := b.fn("odd",
		il.Instr{Op: il.StoreG, Sym: g, A: il.ConstVal(1)},
		call(1, even))
	b.fn("even", call(1, odd))

	res := analyze(t, b, ipa.Options{})
	for _, pid := range []il.PID{even, odd} {
		s := res.Summaries[pid]
		if !s.Mods(g) || s.ModTop {
			t.Errorf("%s summary wrong: %s", b.p.Sym(pid).Name, s.Fingerprint(b.p))
		}
	}
	if res.Stats.SCCs != 1 {
		t.Errorf("SCCs = %d, want 1 (one two-member component)", res.Stats.SCCs)
	}
}

func TestOutOfScopeCalleeWidensToTop(t *testing.T) {
	b := newBuilder()
	outside := b.fn("outside", il.Instr{Op: il.Ret, A: il.ConstVal(0)})
	caller := b.fn("caller", call(1, outside))

	res := analyze(t, b, ipa.Options{Scope: map[il.PID]bool{caller: true}})
	if res.Summaries[outside] != nil {
		t.Fatal("out-of-scope function must not be summarized")
	}
	s := res.Summaries[caller]
	if !s.ModTop || !s.RefTop || !s.CallsOut || s.Purity != ipa.Neither {
		t.Errorf("caller of out-of-scope code must be Top, got %s", s.Fingerprint(b.p))
	}
	if res.Stats.TopFns != 1 {
		t.Errorf("TopFns = %d, want 1", res.Stats.TopFns)
	}
}

func TestBodylessCalleeWidensToTop(t *testing.T) {
	b := newBuilder()
	ext := b.fn("ext") // declared, no body
	caller := b.fn("caller", call(1, ext))

	res := analyze(t, b, ipa.Options{})
	if s := res.Summaries[caller]; !s.ModTop || !s.RefTop || !s.CallsOut {
		t.Errorf("caller of bodyless code must be Top, got %s", s.Fingerprint(b.p))
	}
}

func TestProbeDeniesPurity(t *testing.T) {
	b := newBuilder()
	probed := b.fn("probed", il.Instr{Op: il.Probe, Sym: 0})

	res := analyze(t, b, ipa.Options{})
	s := res.Summaries[probed]
	if !s.CallsOut || s.Purity != ipa.Neither {
		t.Errorf("probed function must be calls-out/neither, got %s", s.Fingerprint(b.p))
	}
	if s.ModTop || s.RefTop {
		t.Errorf("a probe alone must not widen the sets: %s", s.Fingerprint(b.p))
	}
}

func TestMaxSetWidening(t *testing.T) {
	b := newBuilder()
	g1 := b.global("g1")
	g2 := b.global("g2")
	wide := b.fn("wide",
		il.Instr{Op: il.StoreG, Sym: g1, A: il.ConstVal(1)},
		il.Instr{Op: il.StoreG, Sym: g2, A: il.ConstVal(2)})

	res := analyze(t, b, ipa.Options{MaxSet: 1})
	if s := res.Summaries[wide]; !s.ModTop {
		t.Errorf("two-global MOD under MaxSet=1 must widen to Top, got %s", s.Fingerprint(b.p))
	}
}

func TestFingerprintIsStableAndNameBased(t *testing.T) {
	b := newBuilder()
	gb := b.global("beta")
	ga := b.global("alpha")
	f := b.fn("f",
		il.Instr{Op: il.StoreG, Sym: gb, A: il.ConstVal(1)},
		il.Instr{Op: il.StoreG, Sym: ga, A: il.ConstVal(2)},
		il.Instr{Op: il.LoadG, Dst: 1, Sym: gb})

	res := analyze(t, b, ipa.Options{})
	got := res.Summaries[f].Fingerprint(b.p)
	// Sorted by name regardless of interning order, so two builds that
	// intern PIDs differently agree.
	want := "neither;mod=alpha,beta;ref=beta"
	if got != want {
		t.Errorf("Fingerprint = %q, want %q", got, want)
	}
	if top := ipa.Top().Fingerprint(b.p); top != "neither;out;mod=*;ref=*" {
		t.Errorf("Top fingerprint = %q", top)
	}
}

func TestAnalyzeIsDeterministic(t *testing.T) {
	b := newBuilder()
	g := b.global("g")
	w := b.fn("w", il.Instr{Op: il.StoreG, Sym: g, A: il.ConstVal(1)})
	r := b.fn("r", il.Instr{Op: il.LoadG, Dst: 1, Sym: g})
	m := b.fn("m", call(1, w), call(2, r))

	first := analyze(t, b, ipa.Options{})
	for i := 0; i < 5; i++ {
		again := analyze(t, b, ipa.Options{})
		for _, pid := range []il.PID{w, r, m} {
			a, z := first.Summaries[pid].Fingerprint(b.p), again.Summaries[pid].Fingerprint(b.p)
			if a != z {
				t.Fatalf("run %d: %s fingerprint changed: %q vs %q", i, b.p.Sym(pid).Name, a, z)
			}
		}
	}
}
