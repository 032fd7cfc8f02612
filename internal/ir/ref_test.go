package ir

import (
	"fmt"
	"testing"

	"cmo/internal/il"
	"cmo/internal/iltest"
)

// The ref functions are the straightforward versions of the analyses
// that the flat-storage ones replaced: BuildCFG with one small slice
// per edge list, BuildLiveness with a per-register Has/Remove transfer
// and a Clone per block per iteration, BuildLoops with a map per loop
// body, and BuildIntervals testing every register of every block.
// They are kept here only as references the replacements must agree
// with exactly.

func refBuildCFG(f *il.Function) *CFG {
	n := len(f.Blocks)
	c := &CFG{
		Succs: make([][]int32, n),
		Preds: make([][]int32, n),
		Reach: make([]bool, n),
	}
	for i, b := range f.Blocks {
		switch b.Term().Op {
		case il.Jmp:
			c.Succs[i] = []int32{b.T}
		case il.Br:
			if b.T == b.F {
				c.Succs[i] = []int32{b.T}
			} else {
				c.Succs[i] = []int32{b.T, b.F}
			}
		}
	}
	var post []int32
	state := make([]uint8, n)
	type frame struct {
		b  int32
		si int
	}
	stack := []frame{{0, 0}}
	state[0] = 1
	c.Reach[0] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.si < len(c.Succs[top.b]) {
			s := c.Succs[top.b][top.si]
			top.si++
			if state[s] == 0 {
				state[s] = 1
				c.Reach[s] = true
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		state[top.b] = 2
		post = append(post, top.b)
		stack = stack[:len(stack)-1]
	}
	c.RPO = make([]int32, len(post))
	for i, b := range post {
		c.RPO[len(post)-1-i] = b
	}
	for i := range f.Blocks {
		if !c.Reach[i] {
			continue
		}
		for _, s := range c.Succs[i] {
			c.Preds[s] = append(c.Preds[s], int32(i))
		}
	}
	return c
}

func refBuildLiveness(f *il.Function, c *CFG) *Liveness {
	n := len(f.Blocks)
	lv := &Liveness{
		In:       make([]RegSet, n),
		Out:      make([]RegSet, n),
		UseCount: make([]int64, f.NRegs),
	}
	use := make([]RegSet, n)
	def := make([]RegSet, n)
	for i, b := range f.Blocks {
		lv.In[i] = NewRegSet(f.NRegs)
		lv.Out[i] = NewRegSet(f.NRegs)
		use[i] = NewRegSet(f.NRegs)
		def[i] = NewRegSet(f.NRegs)
		w := int64(1)
		if b.Freq > 0 {
			w = b.Freq
		}
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			instrUses(in, func(r il.Reg) {
				lv.UseCount[r] += w
				if !def[i].Has(r) {
					use[i].Add(r)
				}
			})
			if d := instrDef(in); d != 0 {
				def[i].Add(d)
			}
		}
	}
	order := make([]int32, len(c.RPO))
	copy(order, c.RPO)
	for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
		order[l], order[r] = order[r], order[l]
	}
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			out := lv.Out[b]
			for _, s := range c.Succs[b] {
				if out.UnionInto(lv.In[s]) {
					changed = true
				}
			}
			newIn := out.Clone()
			for r := il.Reg(1); r < f.NRegs; r++ {
				if def[b].Has(r) {
					newIn.Remove(r)
				}
			}
			newIn.UnionInto(use[b])
			if lv.In[b].UnionInto(newIn) {
				changed = true
			}
		}
	}
	return lv
}

func refBuildLoops(c *CFG, d *Dominators) *LoopInfo {
	n := len(c.Succs)
	li := &LoopInfo{Depth: make([]int, n)}
	bodyByHeader := make(map[int32]map[int32]bool)
	var headers []int32
	for b := int32(0); b < int32(n); b++ {
		if !c.Reach[b] {
			continue
		}
		for _, h := range c.Succs[b] {
			if !d.Dominates(h, b) {
				continue
			}
			body, ok := bodyByHeader[h]
			if !ok {
				body = map[int32]bool{h: true}
				bodyByHeader[h] = body
				headers = append(headers, h)
			}
			stack := []int32{b}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if body[x] {
					continue
				}
				body[x] = true
				for _, p := range c.Preds[x] {
					stack = append(stack, p)
				}
			}
		}
	}
	for _, h := range headers {
		body := bodyByHeader[h]
		loop := Loop{Header: h}
		for b := int32(0); b < int32(n); b++ {
			if body[b] {
				loop.Blocks = append(loop.Blocks, b)
				li.Depth[b]++
			}
		}
		li.Loops = append(li.Loops, loop)
	}
	for i := range li.Loops {
		li.Loops[i].Depth = li.Depth[li.Loops[i].Header]
	}
	return li
}

func refBuildIntervals(f *il.Function, c *CFG, lv *Liveness, order []int32, weights []int64) []Interval {
	iv := make([]Interval, f.NRegs)
	for r := range iv {
		iv[r] = Interval{Reg: il.Reg(r), Start: -1, End: -1}
	}
	touch := func(r il.Reg, pos int, w int64) {
		if iv[r].Start == -1 {
			iv[r].Start = pos
		}
		if pos < iv[r].Start {
			iv[r].Start = pos
		}
		if pos > iv[r].End {
			iv[r].End = pos
		}
		iv[r].Weight += w
	}
	for p := 1; p <= f.NParams; p++ {
		touch(il.Reg(p), 0, 0)
	}
	pos := 0
	blockStart := make([]int, len(f.Blocks))
	blockEnd := make([]int, len(f.Blocks))
	for _, bi := range order {
		b := f.Blocks[bi]
		blockStart[bi] = pos
		w := int64(1)
		if weights != nil {
			w = weights[bi]
		} else if b.Freq > 0 {
			w = b.Freq
		}
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			instrUses(in, func(r il.Reg) { touch(r, pos, w) })
			if d := instrDef(in); d != 0 {
				touch(d, pos, w)
			}
			pos++
		}
		blockEnd[bi] = pos - 1
	}
	for _, bi := range order {
		for r := il.Reg(1); r < f.NRegs; r++ {
			if lv.In[bi].Has(r) {
				touch(r, blockStart[bi], 0)
			}
			if lv.Out[bi].Has(r) {
				touch(r, blockEnd[bi], 0)
				touch(r, blockStart[bi], 0)
			}
		}
	}
	return iv
}

// cfgDiff describes the first difference between two CFGs ("" if equal).
func cfgDiff(got, want *CFG) string {
	if len(got.Succs) != len(want.Succs) || len(got.Preds) != len(want.Preds) || len(got.Reach) != len(want.Reach) {
		return fmt.Sprintf("sizes differ: %d/%d/%d vs %d/%d/%d",
			len(got.Succs), len(got.Preds), len(got.Reach), len(want.Succs), len(want.Preds), len(want.Reach))
	}
	eq := func(a, b []int32) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for i := range want.Succs {
		if !eq(got.Succs[i], want.Succs[i]) {
			return fmt.Sprintf("Succs[%d] = %v, want %v", i, got.Succs[i], want.Succs[i])
		}
		if !eq(got.Preds[i], want.Preds[i]) {
			return fmt.Sprintf("Preds[%d] = %v, want %v", i, got.Preds[i], want.Preds[i])
		}
		if got.Reach[i] != want.Reach[i] {
			return fmt.Sprintf("Reach[%d] = %v, want %v", i, got.Reach[i], want.Reach[i])
		}
	}
	if !eq(got.RPO, want.RPO) {
		return fmt.Sprintf("RPO = %v, want %v", got.RPO, want.RPO)
	}
	return ""
}

// livenessDiff describes the first difference between two liveness
// results over f's registers ("" if equal).
func livenessDiff(f *il.Function, got, want *Liveness) string {
	if len(got.In) != len(want.In) || len(got.Out) != len(want.Out) {
		return fmt.Sprintf("%d/%d blocks, want %d/%d", len(got.In), len(got.Out), len(want.In), len(want.Out))
	}
	for b := range want.In {
		for r := il.Reg(0); r < f.NRegs; r++ {
			if got.In[b].Has(r) != want.In[b].Has(r) {
				return fmt.Sprintf("In[b%d] r%d = %v, want %v", b, r, got.In[b].Has(r), want.In[b].Has(r))
			}
			if got.Out[b].Has(r) != want.Out[b].Has(r) {
				return fmt.Sprintf("Out[b%d] r%d = %v, want %v", b, r, got.Out[b].Has(r), want.Out[b].Has(r))
			}
		}
	}
	if len(got.UseCount) != len(want.UseCount) {
		return fmt.Sprintf("%d use counts, want %d", len(got.UseCount), len(want.UseCount))
	}
	for r := range want.UseCount {
		if got.UseCount[r] != want.UseCount[r] {
			return fmt.Sprintf("UseCount[r%d] = %d, want %d", r, got.UseCount[r], want.UseCount[r])
		}
	}
	return ""
}

// checkSeedAgainstRef compares BuildCFG, BuildLiveness, one reused
// Liveness.Rebuild, BuildLoops and BuildIntervals against the
// references on every function of one generated program. Every other function gets profile frequencies so
// the weighted use counts are covered too.
func checkSeedAgainstRef(t *testing.T, seed int64, reused *Liveness) {
	t.Helper()
	p := iltest.Generate(seed, iltest.Default())
	for _, pid := range p.Prog.FuncPIDs() {
		f := p.Funcs[pid]
		if f == nil {
			continue
		}
		if int(pid)%2 == 1 {
			for i, b := range f.Blocks {
				b.Freq = int64(i*7+int(seed)) % 5
			}
		}
		wantC := refBuildCFG(f)
		c := BuildCFG(f)
		if d := cfgDiff(c, wantC); d != "" {
			t.Fatalf("seed %d %s: BuildCFG: %s", seed, f.Name, d)
		}
		want := refBuildLiveness(f, wantC)
		if d := livenessDiff(f, BuildLiveness(f, c), want); d != "" {
			t.Fatalf("seed %d %s: BuildLiveness: %s", seed, f.Name, d)
		}
		reused.Rebuild(f, c)
		if d := livenessDiff(f, reused, want); d != "" {
			t.Fatalf("seed %d %s: reused Liveness.Rebuild: %s", seed, f.Name, d)
		}
		dom := BuildDominators(c)
		if g, w := fmt.Sprint(BuildLoops(c, dom)), fmt.Sprint(refBuildLoops(c, dom)); g != w {
			t.Fatalf("seed %d %s: BuildLoops = %s, want %s", seed, f.Name, g, w)
		}
		weights := make([]int64, len(f.Blocks))
		for i := range weights {
			weights[i] = int64(i%3) + 1
		}
		for _, ws := range [][]int64{nil, weights} {
			g := fmt.Sprint(BuildIntervals(f, c, reused, c.RPO, ws))
			if w := fmt.Sprint(refBuildIntervals(f, c, want, c.RPO, ws)); g != w {
				t.Fatalf("seed %d %s: BuildIntervals = %s, want %s", seed, f.Name, g, w)
			}
		}
	}
}

// TestAnalysesMatchReference: over every function of 300 generated
// programs, the CFG, liveness, loops and live intervals equal the
// references', also when one Liveness's storage is reused across
// functions of different sizes.
func TestAnalysesMatchReference(t *testing.T) {
	var reused Liveness
	for seed := int64(0); seed < 300; seed++ {
		checkSeedAgainstRef(t, seed, &reused)
	}
}

func FuzzAnalysesMatchReference(f *testing.F) {
	for _, s := range []int64{0, 1, 7, 101} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		var reused Liveness
		checkSeedAgainstRef(t, seed, &reused)
	})
}

// benchFunction is the fixed function the micro-benchmarks measure:
// the largest body of one generated program.
func benchFunction() *il.Function {
	cfg := iltest.Default()
	cfg.MaxBlocks, cfg.MaxInstrs, cfg.MaxRegs = 24, 16, 96
	p := iltest.Generate(42, cfg)
	var best *il.Function
	for _, pid := range p.Prog.FuncPIDs() {
		if f := p.Funcs[pid]; f != nil && (best == nil || f.NumInstrs() > best.NumInstrs()) {
			best = f
		}
	}
	return best
}

func BenchmarkBuildLiveness(b *testing.B) {
	f := benchFunction()
	c := BuildCFG(f)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildLiveness(f, c)
	}
}

func BenchmarkLivenessRebuild(b *testing.B) {
	f := benchFunction()
	c := BuildCFG(f)
	var lv Liveness
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lv.Rebuild(f, c)
	}
}

func BenchmarkBuildCFG(b *testing.B) {
	f := benchFunction()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildCFG(f)
	}
}
