package xform

import (
	"testing"

	"cmo/internal/il"
	"cmo/internal/iltest"
)

// diamonds returns a function of k if-else diamonds on a parameter,
// 3k+1 blocks that Optimize cannot fold away: each diamond's arms
// update r2, which the final block returns.
func diamonds(k int) *il.Function {
	f := &il.Function{Name: "diamonds", NParams: 1, Ret: il.I64, NRegs: 3}
	r1, r2 := il.RegVal(1), il.RegVal(2)
	for i := 0; i < k; i++ {
		h := int32(len(f.Blocks))
		head := &il.Block{T: h + 1, F: h + 2, Instrs: []il.Instr{
			{Op: il.Mul, Dst: 2, A: r2, B: il.ConstVal(3)},
			{Op: il.Br, A: r1},
		}}
		if i == 0 {
			head.Instrs = append([]il.Instr{{Op: il.Add, Dst: 2, A: r1, B: il.ConstVal(1)}}, head.Instrs...)
		}
		then := &il.Block{T: h + 3, Instrs: []il.Instr{{Op: il.Add, Dst: 2, A: r2, B: il.ConstVal(int64(i + 1))}, {Op: il.Jmp}}}
		els := &il.Block{T: h + 3, Instrs: []il.Instr{{Op: il.Sub, Dst: 2, A: r2, B: r1}, {Op: il.Jmp}}}
		f.Blocks = append(f.Blocks, head, then, els)
	}
	f.Blocks = append(f.Blocks, &il.Block{Instrs: []il.Instr{{Op: il.Ret, A: r2}}})
	return f
}

// TestDCEAllocsIndependentOfBlocks holds DCE on an already-optimized
// function to a small constant number of allocations: the CFG and
// liveness it solves live in a few flat arrays, whatever the block
// count. Each run starts from an empty scratch, so the count does not
// depend on what the pool happens to hold (the race detector drops
// pooled items at random).
func TestDCEAllocsIndependentOfBlocks(t *testing.T) {
	const maxAllocs = 16
	var counts []float64
	for _, k := range []int{4, 64} {
		f := diamonds(k)
		Optimize(f)
		if len(f.Blocks) != 3*k+1 {
			t.Fatalf("k=%d: Optimize left %d blocks, want %d", k, len(f.Blocks), 3*k+1)
		}
		n := testing.AllocsPerRun(20, func() {
			var s scratch
			if s.dce(f) {
				t.Fatal("DCE changed an optimized function")
			}
		})
		if n > maxAllocs {
			t.Errorf("DCE on %d blocks: %.0f allocations, want at most %d", len(f.Blocks), n, maxAllocs)
		}
		counts = append(counts, n)
	}
	if counts[0] != counts[1] {
		t.Errorf("DCE allocations grow with the block count: %.0f on 13 blocks, %.0f on 193", counts[0], counts[1])
	}
}

// benchFunction is the fixed function the micro-benchmarks measure:
// the largest body of one generated program.
func benchFunction() (*il.Program, *il.Function) {
	cfg := iltest.Default()
	cfg.MaxBlocks, cfg.MaxInstrs, cfg.MaxRegs = 24, 16, 96
	p := iltest.Generate(42, cfg)
	var best *il.Function
	for _, pid := range p.Prog.FuncPIDs() {
		if f := p.Funcs[pid]; f != nil && (best == nil || f.NumInstrs() > best.NumInstrs()) {
			best = f
		}
	}
	return p.Prog, best
}

// BenchmarkOptimize runs the whole function-local pipeline on a fresh
// copy of the benchmark function (the copy is not timed, but its
// allocations are reported).
func BenchmarkOptimize(b *testing.B) {
	_, f := benchFunction()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := f.Clone()
		b.StartTimer()
		Optimize(w)
	}
}

// BenchmarkDCE runs DCE on a fresh copy of the benchmark function
// before any other optimization, so it has dead code to delete.
func BenchmarkDCE(b *testing.B) {
	_, f := benchFunction()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := f.Clone()
		b.StartTimer()
		DCE(w)
	}
}

// BenchmarkDCEOptimized runs DCE on the optimized benchmark function,
// where it deletes nothing: the cost of proving a body dead-code free.
func BenchmarkDCEOptimized(b *testing.B) {
	_, f := benchFunction()
	Optimize(f)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DCE(f)
	}
}
