package xform

import (
	"sync"

	"cmo/internal/il"
	"cmo/internal/ir"
)

// Cleanup normalizes a function's CFG: it deletes unreachable blocks,
// threads jumps through empty forwarding blocks, and merges blocks
// with their unique successor when that successor has a unique
// predecessor. It reports whether anything changed.
func Cleanup(f *il.Function) bool {
	s := getScratch()
	defer scratchPool.Put(s)
	return s.cleanup(f)
}

func (s *scratch) cleanup(f *il.Function) bool {
	changed := false
	for {
		c := s.threadJumps(f)
		c = s.dropUnreachable(f) || c
		c = s.mergeChains(f) || c
		if !c {
			return changed
		}
		changed = true
	}
}

// scratch is the storage of one optimizer call. Optimize threads one
// through all its passes and rounds, so the analyses they re-derive
// every round are recomputed into the same arrays instead of fresh
// ones. Every pass overwrites or clears what it reads before reading
// it, and nothing in a scratch points into IL, so finished calls hand
// theirs to scratchPool for the next function.
type scratch struct {
	cfg  ir.CFG
	lv   ir.Liveness
	live ir.RegSet
	flow flow

	forward, remap []int32

	// LocalOptimize's per-register facts and the registers that
	// currently hold a copy fact; gen stamps the block being scanned.
	facts  []regFact
	copies []il.Reg
	gen    uint32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// grow returns s with length n, reallocating only when its capacity is
// too small. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// flow is the part of the CFG Cleanup reads: which blocks are
// reachable from the entry, and how many reachable predecessors each
// block has. npreds[b] equals len(ir.BuildCFG(f).Preds[b]): only
// reachable predecessors count, and a Br whose two targets are equal
// counts once.
type flow struct {
	reach  []bool
	npreds []int32
	stack  []int32
}

// solve recomputes fl for f.
func (fl *flow) solve(f *il.Function) {
	n := len(f.Blocks)
	fl.reach = grow(fl.reach, n)
	fl.npreds = grow(fl.npreds, n)
	clear(fl.reach)
	clear(fl.npreds)
	// Each reachable block is pushed once, when first reached, and
	// counts its out-edges when popped.
	stack := append(fl.stack[:0], 0)
	fl.reach[0] = true
	for len(stack) > 0 {
		b := f.Blocks[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		switch b.Term().Op {
		case il.Jmp:
			stack = fl.edge(b.T, stack)
		case il.Br:
			stack = fl.edge(b.T, stack)
			if b.F != b.T {
				stack = fl.edge(b.F, stack)
			}
		}
	}
	fl.stack = stack
}

func (fl *flow) edge(s int32, stack []int32) []int32 {
	fl.npreds[s]++
	if !fl.reach[s] {
		fl.reach[s] = true
		stack = append(stack, s)
	}
	return stack
}

// threadJumps redirects edges that point at a block containing only a
// Jmp to that block's target.
func (s *scratch) threadJumps(f *il.Function) bool {
	// forward[i] = final destination when block i is a pure jump.
	forward := grow(s.forward, len(f.Blocks))
	s.forward = forward
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

// dropUnreachable removes blocks not reachable from the entry and
// renumbers branch targets.
func (s *scratch) dropUnreachable(f *il.Function) bool {
	s.flow.solve(f)
	return s.compact(f)
}

// compact removes the blocks s.flow marks unreachable and renumbers
// branch targets. It reports whether it removed any.
func (s *scratch) compact(f *il.Function) bool {
	kept := 0
	for _, r := range s.flow.reach {
		if r {
			kept++
		}
	}
	if kept == len(f.Blocks) {
		return false
	}
	remap := grow(s.remap, len(f.Blocks))
	s.remap = remap
	blocks := make([]*il.Block, 0, kept)
	for i, b := range f.Blocks {
		if s.flow.reach[i] {
			remap[i] = int32(len(blocks))
			blocks = append(blocks, b)
		} else {
			remap[i] = -1
		}
	}
	for _, b := range blocks {
		switch b.Term().Op {
		case il.Jmp:
			b.T = remap[b.T]
		case il.Br:
			b.T = remap[b.T]
			b.F = remap[b.F]
		}
	}
	f.Blocks = blocks
	return true
}

// mergeChains merges a block ending in Jmp with its target when the
// target's only reachable predecessor is that block, or is some other
// block while this one is unreachable (and the target is not the
// entry). The second case is how a husk left by an earlier merge can
// take a block's code back; it is kept because the block order, and
// so the image, depends on it.
func (s *scratch) mergeChains(f *il.Function) bool {
	fl := &s.flow
	fl.solve(f)
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
			if fl.npreds[t] != 1 {
				break
			}
			tb := f.Blocks[t]
			if tb == b {
				break
			}
			// Splice: drop our Jmp, append target's instructions.
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1], tb.Instrs...)
			b.T, b.F = tb.T, tb.F
			if tb.Freq > b.Freq {
				b.Freq = tb.Freq
			}
			// Leave the target as an unreachable husk (a Jmp to
			// itself would be wrong; give it a Ret-like shape that
			// dropUnreachable will delete).
			tb.Instrs = []il.Instr{{Op: il.Jmp}}
			tb.T = int32(i)
			changed = true
			// Update fl to what solving it afresh would give. t's one
			// reachable predecessor p is reachable, so t is, and t is
			// not its own successor (p != t would make that two).
			if fl.reach[i] {
				// p is b, which now branches where t did: t alone
				// becomes unreachable, and every other block keeps its
				// count (b's edges replace t's).
				fl.reach[t] = false
				fl.npreds[t] = 0
			} else {
				// b was unreachable, so had no reachable predecessor;
				// now p reaches t, which jumps to b, whose edges
				// replace t's: b alone becomes reachable, with t as
				// its one reachable predecessor.
				fl.reach[i] = true
				fl.npreds[i] = 1
			}
			// b's new terminator may be another Jmp; keep merging.
		}
	}
	if changed {
		s.compact(f)
	}
	return changed
}

// Optimize is the standard function-local pipeline: local folding,
// branch folding, CFG cleanup, and DCE, iterated to a fixed point.
// This is what +O2 runs per routine and what HLO re-runs after
// inlining (the paper's "minimum amount of analysis and
// transformation" for unselected routines skips it). It reports
// whether anything changed.
func Optimize(f *il.Function) bool {
	s := getScratch()
	defer scratchPool.Put(s)
	return s.optimize(f)
}

func (s *scratch) optimize(f *il.Function) bool {
	changed := false
	for i := 0; i < 10; i++ {
		c := s.localOptimize(f)
		c = FoldBranches(f) || c
		c = s.cleanup(f) || c
		c = s.dce(f) || c
		if !c {
			break
		}
		changed = true
	}
	return changed
}
