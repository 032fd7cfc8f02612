package naim

import (
	"fmt"
	"strings"
	"testing"

	"cmo/internal/il"
	"cmo/internal/lower"
	"cmo/internal/source"
)

// genModules produces n small modules with f functions each, lowered
// to IL, for loader stress tests.
func genModules(t testing.TB, n, fPerMod int) (*il.Program, map[il.PID]*il.Function) {
	t.Helper()
	var files []*source.File
	for mi := 0; mi < n; mi++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, "module m%d;\n", mi)
		fmt.Fprintf(&sb, "var g%d int = %d;\n", mi, mi)
		for fi := 0; fi < fPerMod; fi++ {
			fmt.Fprintf(&sb, `
func f%d_%d(x int) int {
	var acc int = x + g%d;
	for (var i int = 0; i < 10; i = i + 1) {
		if (acc %% 3 == 0) { acc = acc * 2 + i; } else { acc = acc - i; }
	}
	return acc;
}
`, mi, fi, mi)
		}
		if mi == 0 {
			sb.WriteString("func main() int { return f0_0(7); }\n")
		}
		f, err := source.Parse(fmt.Sprintf("m%d.minc", mi), sb.String())
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

func installAll(l *Loader, fns map[il.PID]*il.Function, prog *il.Program) {
	for _, pid := range prog.FuncPIDs() {
		l.InstallFunc(fns[pid])
	}
}

func TestLoaderOffModeKeepsEverythingExpanded(t *testing.T) {
	prog, fns := genModules(t, 4, 5)
	l := NewLoader(prog, Config{ForceLevel: LevelOff})
	defer l.Close()
	installAll(l, fns, prog)
	if l.ExpandedPools() != len(fns) {
		t.Errorf("expanded pools = %d, want %d", l.ExpandedPools(), len(fns))
	}
	l.UnloadAll()
	if got := l.Stats().Compactions; got != 0 {
		t.Errorf("LevelOff compacted %d pools", got)
	}
	// Every access is a cache hit.
	for _, pid := range prog.FuncPIDs() {
		if l.Function(pid) == nil {
			t.Fatal("body missing")
		}
	}
	if s := l.Stats(); s.CacheMisses != 0 {
		t.Errorf("misses = %d in LevelOff", s.CacheMisses)
	}
}

func TestLoaderIRCompaction(t *testing.T) {
	prog, fns := genModules(t, 6, 6)
	l := NewLoader(prog, Config{ForceLevel: LevelIR, CacheSlots: 4})
	defer l.Close()
	installAll(l, fns, prog)
	if l.ExpandedPools() > 4 {
		t.Errorf("cache holds %d pools, slots = 4", l.ExpandedPools())
	}
	s := l.Stats()
	if s.Compactions == 0 {
		t.Error("no compactions at LevelIR")
	}
	// Re-access everything; compacted pools must expand transparently
	// and identically.
	for _, pid := range prog.FuncPIDs() {
		f := l.Function(pid)
		if f == nil {
			t.Fatalf("lost body for %s", prog.Sym(pid).Name)
		}
		if err := il.Verify(prog, f); err != nil {
			t.Fatalf("verify after reload: %v", err)
		}
	}
	if l.Stats().Expansions == 0 {
		t.Error("no expansions recorded")
	}
}

func TestLoaderContentSurvivesCycles(t *testing.T) {
	prog, fns := genModules(t, 3, 4)
	snap := make(map[il.PID]string)
	for pid, f := range fns {
		snap[pid] = f.Print(prog)
	}
	l := NewLoader(prog, Config{ForceLevel: LevelIR, CacheSlots: 2})
	defer l.Close()
	installAll(l, fns, prog)
	// Thrash the cache several times.
	for round := 0; round < 5; round++ {
		for _, pid := range prog.FuncPIDs() {
			f := l.Function(pid)
			if f.Print(prog) != snap[pid] {
				t.Fatalf("round %d: %s corrupted by compact/expand cycle", round, f.Name)
			}
			l.DoneWith(pid)
		}
	}
}

func TestLoaderDiskOffload(t *testing.T) {
	prog, fns := genModules(t, 6, 6)
	l := NewLoader(prog, Config{ForceLevel: LevelDisk, CacheSlots: 3, Dir: t.TempDir()})
	defer l.Close()
	installAll(l, fns, prog)
	// Spill writes are async; drain them so the counters below (and
	// the read-back sweep) observe landed state, not queue state.
	l.Flush()
	s := l.Stats()
	if s.DiskWrites == 0 {
		t.Fatal("no disk writes at LevelDisk")
	}
	if l.RepositoryBytes() == 0 {
		t.Fatal("repository empty")
	}
	// Everything must come back intact from disk.
	for _, pid := range prog.FuncPIDs() {
		f := l.Function(pid)
		if f == nil {
			t.Fatalf("lost %s", prog.Sym(pid).Name)
		}
		if err := il.Verify(prog, f); err != nil {
			t.Fatalf("verify from disk: %v", err)
		}
	}
	if l.Stats().DiskReads == 0 {
		t.Error("no disk reads recorded")
	}
}

func TestLoaderMemoryDropsWithLevel(t *testing.T) {
	prog, fns := genModules(t, 8, 8)
	peak := make(map[Level]int64)
	for _, lvl := range []Level{LevelOff, LevelIR, LevelST, LevelDisk} {
		l := NewLoader(prog, Config{ForceLevel: lvl, CacheSlots: 2, Dir: t.TempDir()})
		clones := make(map[il.PID]*il.Function, len(fns))
		for pid, f := range fns {
			clones[pid] = f.Clone()
		}
		for _, pid := range prog.FuncPIDs() {
			l.InstallFunc(clones[pid])
		}
		// Touch everything twice, like an optimizer sweep.
		for round := 0; round < 2; round++ {
			for _, pid := range prog.FuncPIDs() {
				l.Function(pid)
				l.DoneWith(pid)
			}
		}
		peak[lvl] = l.Stats().PeakBytes
		l.Close()
	}
	if !(peak[LevelOff] > peak[LevelIR] && peak[LevelIR] > peak[LevelST] && peak[LevelST] >= peak[LevelDisk]) {
		t.Errorf("peak bytes not decreasing with level: off=%d ir=%d st=%d disk=%d",
			peak[LevelOff], peak[LevelIR], peak[LevelST], peak[LevelDisk])
	}
}

func TestLoaderAdaptiveThresholds(t *testing.T) {
	prog, fns := genModules(t, 10, 8)
	// Compute the unlimited footprint first.
	l0 := NewLoader(prog, Config{ForceLevel: LevelOff})
	installAll(l0, fns, prog)
	full := l0.Stats().PeakBytes
	l0.Close()

	// A budget below the full footprint must engage NAIM adaptively
	// and keep CurBytes at or under budget.
	budget := full / 2
	l := NewLoader(prog, Config{ForceLevel: Adaptive, BudgetBytes: budget, CacheSlots: 4, Dir: t.TempDir()})
	defer l.Close()
	clones := make(map[il.PID]*il.Function, len(fns))
	for pid, f := range fns {
		clones[pid] = f.Clone()
	}
	for _, pid := range prog.FuncPIDs() {
		l.InstallFunc(clones[pid])
	}
	if l.Level() == LevelOff {
		t.Errorf("budget %d (full %d) did not engage NAIM", budget, full)
	}
	l.Flush() // let queued spills land so CurBytes reflects offloaded state
	if cur := l.Stats().CurBytes; cur > budget {
		t.Errorf("CurBytes %d exceeds budget %d", cur, budget)
	}
	// With a generous budget, NAIM stays off.
	l2 := NewLoader(prog, Config{ForceLevel: Adaptive, BudgetBytes: full * 4})
	defer l2.Close()
	clones2 := make(map[il.PID]*il.Function, len(fns))
	for pid, f := range fns {
		clones2[pid] = f.Clone()
	}
	for _, pid := range prog.FuncPIDs() {
		l2.InstallFunc(clones2[pid])
	}
	if l2.Level() != LevelOff {
		t.Errorf("generous budget engaged NAIM level %v", l2.Level())
	}
	if l2.Stats().Compactions != 0 {
		t.Error("thresholded NAIM imposed compactions on a small compile")
	}
}

func TestLoaderRemeasuresGrowth(t *testing.T) {
	prog, fns := genModules(t, 2, 2)
	l := NewLoader(prog, Config{ForceLevel: LevelOff})
	defer l.Close()
	installAll(l, fns, prog)
	before := l.Stats().CurBytes
	// Grow a function in place (as inlining does), then touch it.
	pid := prog.FuncPIDs()[0]
	f := l.Function(pid)
	for i := 0; i < 50; i++ {
		b := f.Blocks[0]
		b.Instrs = append([]il.Instr{{Op: il.Nop}}, b.Instrs...)
	}
	l.DoneWith(pid)
	after := l.Stats().CurBytes
	if after <= before {
		t.Errorf("growth not remeasured: %d -> %d", before, after)
	}
}

func TestLoaderModuleSymtabCompaction(t *testing.T) {
	prog, fns := genModules(t, 5, 4)
	wantDefs := make([][]il.PID, len(prog.Modules))
	for i, m := range prog.Modules {
		wantDefs[i] = append([]il.PID(nil), m.Defs...)
	}
	l := NewLoader(prog, Config{ForceLevel: LevelST, CacheSlots: 2})
	defer l.Close()
	installAll(l, fns, prog)
	// Symbol tables must have been compacted...
	comp := false
	for i := range prog.Modules {
		if !l.modExpanded[i] {
			comp = true
		}
	}
	if !comp {
		t.Fatal("no module symtab compacted at LevelST")
	}
	// ...and come back intact on demand.
	for i := range prog.Modules {
		defs := l.ModuleDefs(i)
		if len(defs) != len(wantDefs[i]) {
			t.Fatalf("module %d defs lost: %v vs %v", i, defs, wantDefs[i])
		}
		for j := range defs {
			if defs[j] != wantDefs[i][j] {
				t.Fatalf("module %d def %d: %d != %d", i, j, defs[j], wantDefs[i][j])
			}
		}
	}
}

func TestLoaderPinNeverEvicted(t *testing.T) {
	prog, fns := genModules(t, 6, 6)
	l := NewLoader(prog, Config{ForceLevel: LevelIR, CacheSlots: 1})
	defer l.Close()
	installAll(l, fns, prog)
	// With a single slot, each Function() call must still return an
	// expanded body (the pinned one) even while everything else
	// compacts.
	for _, pid := range prog.FuncPIDs() {
		f := l.Function(pid)
		if f == nil {
			t.Fatal("pinned body evicted")
		}
	}
}

func TestLoaderUnknownPID(t *testing.T) {
	prog, _ := genModules(t, 1, 1)
	l := NewLoader(prog, Config{})
	defer l.Close()
	if l.Function(il.PID(9999)) != nil {
		t.Error("unknown PID returned a body")
	}
	l.DoneWith(il.PID(9999)) // must not panic
}

func TestLoaderDeterministicAccounting(t *testing.T) {
	run := func() (int64, int64) {
		prog, fns := genModules(t, 5, 5)
		l := NewLoader(prog, Config{ForceLevel: LevelIR, CacheSlots: 3})
		defer l.Close()
		installAll(l, fns, prog)
		for round := 0; round < 3; round++ {
			for _, pid := range prog.FuncPIDs() {
				l.Function(pid)
				l.DoneWith(pid)
			}
		}
		s := l.Stats()
		return s.PeakBytes, s.Compactions
	}
	p1, c1 := run()
	p2, c2 := run()
	if p1 != p2 || c1 != c2 {
		t.Errorf("loader behavior not deterministic: (%d,%d) vs (%d,%d)", p1, c1, p2, c2)
	}
}

func TestLoaderWritebackBatches(t *testing.T) {
	// A burst of installs at LevelDisk evicts in a tight loop while
	// the single writer lands blobs — exactly the shape group commit
	// exists for. The invariants hold at any interleaving: every
	// landed write belongs to some batch, and batches never exceed
	// writes.
	prog, fns := genModules(t, 10, 8)
	l := NewLoader(prog, Config{ForceLevel: LevelDisk, CacheSlots: 2, Dir: t.TempDir()})
	defer l.Close()
	installAll(l, fns, prog)
	l.Flush()
	s := l.Stats()
	if s.DiskWrites == 0 {
		t.Fatal("no disk writes at LevelDisk")
	}
	if s.WritebackBatches == 0 {
		t.Errorf("disk writes landed outside any batch: %d writes, 0 batches", s.DiskWrites)
	}
	if s.WritebackBatches > s.DiskWrites {
		t.Errorf("more batches (%d) than writes (%d)", s.WritebackBatches, s.DiskWrites)
	}
	// Batched landings must be as readable as singleton ones.
	for _, pid := range prog.FuncPIDs() {
		if l.Function(pid) == nil {
			t.Fatalf("lost %s after batched writeback", prog.Sym(pid).Name)
		}
		l.DoneWith(pid)
	}
}
