package xform

import (
	"cmo/internal/il"
	"cmo/internal/ir"
)

// The functions below are the straightforward versions of the
// optimizer's passes that the storage-reusing ones replaced: DCE
// rebuilding the CFG and liveness every round, Cleanup rebuilding the
// whole CFG after every merge, and per-block fact maps in
// LocalOptimize. They are kept here only as references the optimizer
// must agree with instruction for instruction.

func refOptimize(f *il.Function) {
	for i := 0; i < 10; i++ {
		c := refLocalOptimize(f)
		c = FoldBranches(f) || c
		c = refCleanup(f) || c
		c = refDCE(f) || c
		if !c {
			return
		}
	}
}

func refDCE(f *il.Function) bool {
	any := false
	for {
		c := ir.BuildCFG(f)
		lv := ir.BuildLiveness(f, c)
		changed := false
		for bi, b := range f.Blocks {
			live := lv.Out[bi].Clone()
			keep := b.Instrs[:0]
			var kept []il.Instr
			for ii := len(b.Instrs) - 1; ii >= 0; ii-- {
				in := b.Instrs[ii]
				dead := in.Op == il.Nop ||
					(in.Dst != 0 && !live.Has(in.Dst) && isRemovable(&in))
				if dead {
					changed = true
					continue
				}
				if in.Dst != 0 {
					live.Remove(in.Dst)
				}
				visitUses(&in, func(r il.Reg) { live.Add(r) })
				kept = append(kept, in)
			}
			for i := len(kept) - 1; i >= 0; i-- {
				keep = append(keep, kept[i])
			}
			b.Instrs = keep
		}
		if !changed {
			return any
		}
		any = true
	}
}

func refCleanup(f *il.Function) bool {
	changed := false
	for {
		c := refThreadJumps(f)
		c = refDropUnreachable(f) || c
		c = refMergeChains(f) || c
		if !c {
			return changed
		}
		changed = true
	}
}

func refThreadJumps(f *il.Function) bool {
	forward := make([]int32, len(f.Blocks))
	for i, b := range f.Blocks {
		forward[i] = int32(i)
		if len(b.Instrs) == 1 && b.Instrs[0].Op == il.Jmp {
			forward[i] = b.T
		}
	}
	resolve := func(i int32) int32 {
		seen := 0
		for forward[i] != i && seen < len(f.Blocks) {
			i = forward[i]
			seen++
		}
		return i
	}
	changed := false
	for _, b := range f.Blocks {
		switch b.Term().Op {
		case il.Jmp:
			if nt := resolve(b.T); nt != b.T {
				b.T = nt
				changed = true
			}
		case il.Br:
			if nt := resolve(b.T); nt != b.T {
				b.T = nt
				changed = true
			}
			if nf := resolve(b.F); nf != b.F {
				b.F = nf
				changed = true
			}
		}
	}
	return changed
}

func refDropUnreachable(f *il.Function) bool {
	c := ir.BuildCFG(f)
	all := true
	for i := range f.Blocks {
		if !c.Reach[i] {
			all = false
			break
		}
	}
	if all {
		return false
	}
	remap := make([]int32, len(f.Blocks))
	var kept []*il.Block
	for i, b := range f.Blocks {
		if c.Reach[i] {
			remap[i] = int32(len(kept))
			kept = append(kept, b)
		} else {
			remap[i] = -1
		}
	}
	for _, b := range kept {
		switch b.Term().Op {
		case il.Jmp:
			b.T = remap[b.T]
		case il.Br:
			b.T = remap[b.T]
			b.F = remap[b.F]
		}
	}
	f.Blocks = kept
	return true
}

// refHuskMerges counts the merges refMergeChains started from a block
// that was unreachable at the time, so tests can show they exercise
// that case.
var refHuskMerges int

func refMergeChains(f *il.Function) bool {
	c := ir.BuildCFG(f)
	changed := false
	for i, b := range f.Blocks {
		for {
			if b.Term().Op != il.Jmp {
				break
			}
			t := b.T
			if t == int32(i) || t == 0 {
				break
			}
			if len(c.Preds[t]) != 1 {
				break
			}
			tb := f.Blocks[t]
			if tb == b {
				break
			}
			if !c.Reach[i] {
				refHuskMerges++
			}
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1], tb.Instrs...)
			b.T, b.F = tb.T, tb.F
			if tb.Freq > b.Freq {
				b.Freq = tb.Freq
			}
			tb.Instrs = []il.Instr{{Op: il.Jmp}}
			tb.T = int32(i)
			c.Preds[t] = nil
			changed = true
			c = ir.BuildCFG(f)
		}
	}
	if changed {
		refDropUnreachable(f)
	}
	return changed
}

func refLocalOptimize(f *il.Function) bool {
	changed := false
	for _, b := range f.Blocks {
		changed = refOptimizeBlock(b) || changed
	}
	return changed
}

func refOptimizeBlock(b *il.Block) bool {
	changed := false
	constOf := make(map[il.Reg]int64)
	copyOf := make(map[il.Reg]il.Reg)
	kill := func(r il.Reg) {
		delete(constOf, r)
		delete(copyOf, r)
		for d, s := range copyOf {
			if s == r {
				delete(copyOf, d)
			}
		}
	}
	resolve := func(v il.Value) il.Value {
		if v.IsConst || v.Reg == 0 {
			return v
		}
		if c, ok := constOf[v.Reg]; ok {
			return il.ConstVal(c)
		}
		if s, ok := copyOf[v.Reg]; ok {
			return il.RegVal(s)
		}
		return v
	}
	for ii := range b.Instrs {
		in := &b.Instrs[ii]
		oldA, oldB := in.A, in.B
		in.A = resolve(in.A)
		in.B = resolve(in.B)
		for ai := range in.Args {
			na := resolve(in.Args[ai])
			if na != in.Args[ai] {
				in.Args[ai] = na
				changed = true
			}
		}
		if in.A != oldA || in.B != oldB {
			changed = true
		}
		if simplify(in) {
			changed = true
		}
		if in.Dst != 0 {
			kill(in.Dst)
			switch in.Op {
			case il.Const:
				constOf[in.Dst] = in.A.Const
			case il.Copy:
				if in.A.IsConst {
					in.Op = il.Const
					constOf[in.Dst] = in.A.Const
					changed = true
				} else if in.A.Reg != in.Dst {
					copyOf[in.Dst] = in.A.Reg
				}
			}
		}
	}
	return changed
}

func refUnrollLoops(f *il.Function, budget int) bool {
	if budget <= 0 {
		budget = 256
	}
	const maxTrips = 16
	changed := false
	for rounds := 0; rounds < 8; rounds++ {
		c := ir.BuildCFG(f)
		d := ir.BuildDominators(c)
		li := ir.BuildLoops(c, d)
		did := false
		for _, loop := range li.Loops {
			if len(loop.Blocks) != 2 {
				continue
			}
			h := loop.Header
			var l int32 = -1
			for _, b := range loop.Blocks {
				if b != h {
					l = b
				}
			}
			if l < 0 {
				continue
			}
			if tryUnroll(f, c, h, l, budget, maxTrips) {
				changed = true
				did = true
				refCleanup(f)
				break
			}
		}
		if !did {
			return changed
		}
	}
	return changed
}
