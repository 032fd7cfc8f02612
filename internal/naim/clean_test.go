package naim

import (
	"math/rand"
	"testing"

	"cmo/internal/il"
)

// The clean/dirty state machine: a pool's compacted form is a cache of
// its content. Read checkouts (View) leave it valid, so evicting the
// pool drops the expanded form without encoding or writing anything;
// write checkouts (Function), MarkDirty and InstallFunc invalidate it.

// diskLoader installs every body of a small program into a one-slot
// LevelDisk loader and waits until every install-time spill landed.
func diskLoader(t *testing.T) (*Loader, *il.Program, []il.PID) {
	t.Helper()
	prog, fns := genModules(t, 2, 3)
	l := NewLoader(prog, Config{ForceLevel: LevelDisk, CacheSlots: 1, Dir: t.TempDir()})
	t.Cleanup(func() { l.Close() })
	installAll(l, fns, prog)
	l.Flush()
	return l, prog, prog.FuncPIDs()
}

// sweep checks every pid out for reading once, in order, waiting
// after each checkout for the spills it caused. (A pool re-expanded
// while its spill is still in flight keeps no key, so its next clean
// eviction spills the same bytes once more; waiting keeps the counts
// below exact.)
func sweep(l *Loader, pids []il.PID) {
	for _, pid := range pids {
		l.View(pid)
		l.DoneWith(pid)
		l.Flush()
	}
}

func TestLoaderCleanEvictionSkipsCompaction(t *testing.T) {
	l, _, pids := diskLoader(t)
	sweep(l, pids) // every body now came back from the repository once
	before := l.Stats()
	for round := 0; round < 3; round++ {
		sweep(l, pids)
	}
	after := l.Stats()
	if after.Compactions != before.Compactions {
		t.Errorf("read sweeps compacted %d pools", after.Compactions-before.Compactions)
	}
	if after.DiskWrites != before.DiskWrites || after.WritebackQueued != before.WritebackQueued {
		t.Errorf("read sweeps queued %d spills and wrote %d records",
			after.WritebackQueued-before.WritebackQueued, after.DiskWrites-before.DiskWrites)
	}
	if after.Evictions <= before.Evictions || after.Expansions <= before.Expansions {
		t.Fatalf("sweeps did not cycle pools through the one-slot cache: %+v -> %+v", before, after)
	}
	if got := after.DiskReads - before.DiskReads; got != after.Expansions-before.Expansions {
		t.Errorf("%d disk reads for %d expansions: clean pools should read back from the repository",
			got, after.Expansions-before.Expansions)
	}
}

func TestLoaderWriteAfterReadRespills(t *testing.T) {
	l, prog, pids := diskLoader(t)
	pid, other := pids[0], pids[1]
	l.View(pid)
	l.DoneWith(pid)
	f := l.Function(pid)
	want := f.Clone()
	f.Calls = 4242 // an edit the next eviction must keep
	want.Calls = 4242
	l.DoneWith(pid)
	l.Flush()
	before := l.Stats()
	sweep(l, []il.PID{other}) // evicts pid
	after := l.Stats()
	if after.Compactions != before.Compactions+1 {
		t.Errorf("evicting the written pool compacted %d pools, want 1", after.Compactions-before.Compactions)
	}
	if after.DiskWrites != before.DiskWrites+1 {
		t.Errorf("evicting the written pool wrote %d records, want 1", after.DiskWrites-before.DiskWrites)
	}
	got := l.View(pid)
	defer l.DoneWith(pid)
	if got.Calls != 4242 || got.Print(prog) != want.Print(prog) {
		t.Errorf("edit lost across eviction: calls=%d\n%s", got.Calls, got.Print(prog))
	}
}

func TestLoaderMarkDirtyRespills(t *testing.T) {
	l, _, pids := diskLoader(t)
	pid, other := pids[0], pids[1]
	f := l.View(pid)
	f.Calls = 99
	l.MarkDirty(pid)
	l.DoneWith(pid)
	l.Flush()
	before := l.Stats()
	sweep(l, []il.PID{other})
	if got := l.Stats().Compactions - before.Compactions; got != 1 {
		t.Errorf("evicting a MarkDirty pool compacted %d pools, want 1", got)
	}
	if got := l.View(pid).Calls; got != 99 {
		t.Errorf("MarkDirty edit lost: calls=%d", got)
	}
	l.DoneWith(pid)
}

func TestLoaderInstallOverCleanPoolIsDirty(t *testing.T) {
	l, _, pids := diskLoader(t)
	pid, other := pids[0], pids[1]
	f := l.View(pid).Clone()
	l.DoneWith(pid)
	f.Calls = 7
	l.InstallFunc(f) // replaces the clean pool; the old key must not survive
	l.Flush()
	before := l.Stats()
	sweep(l, []il.PID{other})
	if got := l.Stats().Compactions - before.Compactions; got != 1 {
		t.Errorf("evicting a reinstalled pool compacted %d pools, want 1", got)
	}
	if got := l.View(pid).Calls; got != 7 {
		t.Errorf("reinstalled body lost: calls=%d", got)
	}
	l.DoneWith(pid)
}

// A spill that lands after its pool was re-expanded belongs to the
// old content generation: it must not give the clean pool a key, or
// the pool's next eviction would drop a body it never stored.
func TestLoaderStaleSpillDroppedAfterReexpansion(t *testing.T) {
	prog, fns := genModules(t, 1, 2)
	l := NewLoader(prog, Config{ForceLevel: LevelDisk, CacheSlots: 64, Dir: t.TempDir()})
	defer l.Close()
	installAll(l, fns, prog)
	pid := prog.FuncPIDs()[0]
	s := l.shardFor(pid)

	// Compact the pool by hand so its spill is held back.
	l.lockShard(s)
	h := s.handles[pid]
	job := l.compactHandle(s, h)
	s.mu.Unlock()
	if job == nil || h.st != stSpilling {
		t.Fatalf("LevelDisk compaction gave job=%v state=%v, want a spill", job, h.st)
	}
	l.View(pid) // re-expands from the in-flight blob
	l.DoneWith(pid)

	l.landSpill(*job, Key{1})
	l.lockShard(s)
	st, hasKey := h.st, h.hasKey
	s.mu.Unlock()
	if st != stExpanded || hasKey {
		t.Errorf("stale landing changed the re-expanded pool: state=%v hasKey=%v", st, hasKey)
	}
	// Still clean: the next eviction re-spills the blob without
	// encoding it again.
	compactions := l.Stats().Compactions
	l.lockShard(s)
	job2 := l.compactHandle(s, h)
	s.mu.Unlock()
	if job2 == nil {
		t.Fatal("clean pool without a key was not spilled")
	}
	if got := l.Stats().Compactions; got != compactions {
		t.Errorf("clean re-eviction compacted %d pools", got-compactions)
	}
	l.enqueueSpill(*job2)
	l.Flush()
	if got := l.View(pid); got.Print(prog) != fns[pid].Print(prog) {
		t.Errorf("body changed across the stale landing:\n%s", got.Print(prog))
	}
	l.DoneWith(pid)
}

// bigFunction is a body with many blocks, instructions and calls (to
// itself), registered in prog.
func bigFunction(prog *il.Program, rng *rand.Rand, nblocks int) *il.Function {
	m := prog.AddModule("m")
	pid, _ := prog.Intern("big", il.SymFunc)
	prog.Sym(pid).Module = m.Index
	prog.Sym(pid).Sig = il.Signature{Ret: il.I64}
	f := &il.Function{Name: "big", PID: pid, NParams: 2, Ret: il.I64, NRegs: 40}
	for bi := 0; bi < nblocks; bi++ {
		b := &il.Block{Freq: int64(bi), T: int32((bi + 1) % nblocks), F: -1}
		for ii := rng.Intn(12); ii > 0; ii-- {
			in := il.Instr{Op: il.Add, Dst: il.Reg(1 + rng.Intn(39)), A: il.RegVal(1), B: il.ConstVal(int64(ii))}
			if rng.Intn(3) == 0 {
				in = il.Instr{Op: il.Call, Dst: il.Reg(1 + rng.Intn(39)), Sym: pid}
				for a := rng.Intn(4); a > 0; a-- {
					in.Args = append(in.Args, il.ConstVal(int64(bi*100+a)))
				}
			}
			b.Instrs = append(b.Instrs, in)
		}
		b.Instrs = append(b.Instrs, il.Instr{Op: il.Jmp})
		f.Blocks = append(f.Blocks, b)
	}
	f.Blocks[nblocks-1].Instrs[len(f.Blocks[nblocks-1].Instrs)-1] = il.Instr{Op: il.Ret, A: il.RegVal(1)}
	f.Blocks[nblocks-1].T = -1
	return f
}

func TestDecodeFuncSlabsRoundTripAndIsolate(t *testing.T) {
	prog := il.NewProgram()
	rng := rand.New(rand.NewSource(7))
	f := bigFunction(prog, rng, 300)
	blob := EncodeFunc(f, nil)
	back, err := DecodeFunc(prog, blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Print(prog) != f.Print(prog) {
		t.Fatal("slab decode does not round-trip a large body")
	}
	// Appending in place to any decoded block or call must reallocate,
	// never write into the next one's slab space.
	for bi, b := range back.Blocks {
		b.Instrs = append(b.Instrs, il.Instr{Op: il.Nop})
		for ii := range b.Instrs {
			if in := &b.Instrs[ii]; len(in.Args) > 0 {
				in.Args = append(in.Args, il.ConstVal(-1))
			}
		}
		back.Blocks[bi] = b
	}
	for bi, b := range back.Blocks {
		orig := f.Blocks[bi].Instrs
		if len(b.Instrs) != len(orig)+1 {
			t.Fatalf("b%d: %d instructions after one append, want %d", bi, len(b.Instrs), len(orig)+1)
		}
		for ii, in := range orig {
			got := b.Instrs[ii]
			if got.Op != in.Op || got.Dst != in.Dst || got.A != in.A || len(got.Args) != len(in.Args)+boolInt(len(in.Args) > 0) {
				t.Fatalf("b%d i%d: clobbered by a neighbour's append: %+v, want %+v", bi, ii, got, in)
			}
			for ai, a := range in.Args {
				if got.Args[ai] != a {
					t.Fatalf("b%d i%d arg %d clobbered: %v, want %v", bi, ii, ai, got.Args[ai], a)
				}
			}
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// BenchmarkDecodeFunc measures expanding one relocatable pool; its
// allocs/op is the number of slabs and headers a decode costs.
func BenchmarkDecodeFunc(b *testing.B) {
	prog := il.NewProgram()
	blob := EncodeFunc(bigFunction(prog, rand.New(rand.NewSource(7)), 60), nil)
	b.ReportAllocs()
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFunc(prog, blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoaderReadSweep reads 3,000 bodies through a 48-slot
// LevelDisk loader, the way the select, ipa and LLO sweeps read a
// budgeted build's program. One op is one sweep; after the first,
// every eviction is of a clean pool.
func BenchmarkLoaderReadSweep(b *testing.B) {
	prog, fns := genModules(b, 100, 30)
	l := NewLoader(prog, Config{ForceLevel: LevelDisk, CacheSlots: 48, Dir: b.TempDir()})
	defer l.Close()
	installAll(l, fns, prog)
	pids := prog.FuncPIDs()
	sweepOnce := func() {
		for _, pid := range pids {
			if l.View(pid) == nil {
				b.Fatal("body missing")
			}
			l.DoneWith(pid)
		}
	}
	// Warm up until no install-time (dirty) pool is left expanded: the
	// LRU can keep one in the cache for a few sweeps.
	for i := 0; i < 20; i++ {
		c := l.Stats().Compactions
		sweepOnce()
		l.Flush()
		if l.Stats().Compactions == c {
			break
		}
	}
	before := l.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepOnce()
	}
	b.StopTimer()
	l.Flush()
	after := l.Stats()
	b.ReportMetric(float64(after.Compactions-before.Compactions)/float64(b.N), "compactions/op")
	b.ReportMetric(float64(after.Expansions-before.Expansions)/float64(b.N), "expansions/op")
}
