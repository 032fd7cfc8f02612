// Package xform implements function-local IL transformations shared
// by the high-level optimizer (which runs them after inlining to
// exploit interprocedural facts) and the low-level optimizer (which
// runs them as part of the default +O2 intraprocedural pipeline):
// constant folding, copy propagation, algebraic simplification,
// branch folding, dead code elimination, and CFG cleanup.
//
// All transformations preserve IL semantics exactly, with one
// documented exception: dead loads from arrays are deleted even
// though an out-of-bounds dead load would have trapped. Production
// compilers (including the paper's) make the same choice for legal
// programs; see DESIGN.md.
package xform

import (
	"cmo/internal/il"
)

// LocalOptimize performs block-local constant folding, copy
// propagation, and algebraic simplification, plus folding of branches
// on constants. It reports whether anything changed.
func LocalOptimize(f *il.Function) bool {
	s := getScratch()
	defer scratchPool.Put(s)
	return s.localOptimize(f)
}

// regFact is what the forward pass over one block knows about a
// register: the constant it holds or the register it copies. Each
// fact holds only while its stamp equals the stamp of the block being
// scanned, so starting a block forgets every fact at once.
type regFact struct {
	c          int64
	src        il.Reg
	cGen, sGen uint32
}

func (s *scratch) localOptimize(f *il.Function) bool {
	if cap(s.facts) < int(f.NRegs) {
		// Fresh facts carry stamp 0, which no block uses.
		s.facts = make([]regFact, f.NRegs)
	}
	s.facts = s.facts[:f.NRegs]
	changed := false
	for _, b := range f.Blocks {
		changed = s.optimizeBlock(b) || changed
	}
	return changed
}

// optimizeBlock does one forward pass over a block.
func (s *scratch) optimizeBlock(b *il.Block) bool {
	changed := false
	s.gen++
	if s.gen == 0 {
		// The stamp wrapped: forget every fact of every earlier block.
		clear(s.facts[:cap(s.facts)])
		s.gen = 1
	}
	gen, facts := s.gen, s.facts
	// copies lists exactly the registers with a live copy fact, so
	// killing a register costs one pass over the live copies.
	copies := s.copies[:0]

	// kill invalidates facts about a redefined register.
	kill := func(r il.Reg) {
		facts[r].cGen, facts[r].sGen = 0, 0
		w := 0
		for _, d := range copies {
			if facts[d].sGen == gen && facts[d].src != r {
				copies[w] = d
				w++
			} else {
				facts[d].sGen = 0
			}
		}
		copies = copies[:w]
	}
	// resolve rewrites an operand using current facts.
	resolve := func(v il.Value) il.Value {
		if v.IsConst || v.Reg == 0 {
			return v
		}
		if fa := &facts[v.Reg]; fa.cGen == gen {
			return il.ConstVal(fa.c)
		} else if fa.sGen == gen {
			return il.RegVal(fa.src)
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

		// Try to fold or simplify the instruction itself.
		if simplified := simplify(in); simplified {
			changed = true
		}

		// Update facts.
		if d := in.Dst; d != 0 {
			kill(d)
			switch in.Op {
			case il.Const:
				facts[d].c, facts[d].cGen = in.A.Const, gen
			case il.Copy:
				if in.A.IsConst {
					// Copy of a constant is a Const.
					in.Op = il.Const
					facts[d].c, facts[d].cGen = in.A.Const, gen
					changed = true
				} else if in.A.Reg != d {
					facts[d].src, facts[d].sGen = in.A.Reg, gen
					copies = append(copies, d)
				}
			}
		}
	}
	s.copies = copies
	return changed
}

// simplify rewrites one instruction in place when its operands allow
// folding or algebraic simplification. It reports whether it changed
// the instruction.
func simplify(in *il.Instr) bool {
	setConst := func(c int64) bool {
		in.Op = il.Const
		in.A = il.ConstVal(c)
		in.B = il.Value{}
		in.Sym = 0
		in.Args = nil
		return true
	}
	setCopy := func(v il.Value) bool {
		if v.IsConst {
			return setConst(v.Const)
		}
		in.Op = il.Copy
		in.A = v
		in.B = il.Value{}
		return true
	}
	switch in.Op {
	case il.Add, il.Sub, il.Mul, il.Div, il.Rem,
		il.Eq, il.Ne, il.Lt, il.Le, il.Gt, il.Ge:
		if in.A.IsConst && in.B.IsConst {
			a, bv := in.A.Const, in.B.Const
			switch in.Op {
			case il.Add:
				return setConst(a + bv)
			case il.Sub:
				return setConst(a - bv)
			case il.Mul:
				return setConst(a * bv)
			case il.Div:
				if bv != 0 {
					return setConst(a / bv)
				}
			case il.Rem:
				if bv != 0 {
					return setConst(a % bv)
				}
			case il.Eq:
				return setConst(b2i(a == bv))
			case il.Ne:
				return setConst(b2i(a != bv))
			case il.Lt:
				return setConst(b2i(a < bv))
			case il.Le:
				return setConst(b2i(a <= bv))
			case il.Gt:
				return setConst(b2i(a > bv))
			case il.Ge:
				return setConst(b2i(a >= bv))
			}
			return false
		}
		// Algebraic identities.
		switch in.Op {
		case il.Add:
			if in.B.IsConst && in.B.Const == 0 {
				return setCopy(in.A)
			}
			if in.A.IsConst && in.A.Const == 0 {
				return setCopy(in.B)
			}
			// Canonicalize constant to the right for the emitter's
			// immediate form.
			if in.A.IsConst {
				in.A, in.B = in.B, in.A
				return true
			}
		case il.Sub:
			if in.B.IsConst && in.B.Const == 0 {
				return setCopy(in.A)
			}
			if !in.A.IsConst && !in.B.IsConst && in.A.Reg == in.B.Reg {
				return setConst(0)
			}
		case il.Mul:
			if in.B.IsConst && in.B.Const == 1 {
				return setCopy(in.A)
			}
			if in.A.IsConst && in.A.Const == 1 {
				return setCopy(in.B)
			}
			if (in.B.IsConst && in.B.Const == 0) || (in.A.IsConst && in.A.Const == 0) {
				return setConst(0)
			}
			if in.A.IsConst {
				in.A, in.B = in.B, in.A
				return true
			}
		case il.Div:
			if in.B.IsConst && in.B.Const == 1 {
				return setCopy(in.A)
			}
		case il.Eq, il.Ne, il.Lt, il.Le, il.Gt, il.Ge:
			if !in.A.IsConst && !in.B.IsConst && in.A.Reg == in.B.Reg {
				switch in.Op {
				case il.Eq, il.Le, il.Ge:
					return setConst(1)
				case il.Ne, il.Lt, il.Gt:
					return setConst(0)
				}
			}
		}
	case il.Neg:
		if in.A.IsConst {
			return setConst(-in.A.Const)
		}
	case il.Not:
		if in.A.IsConst {
			return setConst(b2i(in.A.Const == 0))
		}
	case il.Copy:
		if !in.A.IsConst && in.A.Reg == in.Dst {
			in.Op = il.Nop
			in.A = il.Value{}
			in.Dst = 0
			return true
		}
	}
	return false
}

// FoldBranches rewrites Br terminators whose condition is a constant
// into Jmp, and Br with identical arms into Jmp. It reports whether
// anything changed. Run Cleanup afterwards to drop the unreachable
// blocks this exposes.
func FoldBranches(f *il.Function) bool {
	changed := false
	for _, b := range f.Blocks {
		t := b.Term()
		if t.Op != il.Br {
			continue
		}
		if t.A.IsConst {
			if t.A.Const != 0 {
				// Always taken.
			} else {
				b.T = b.F
			}
			*t = il.Instr{Op: il.Jmp}
			b.F = -1
			changed = true
			continue
		}
		if b.T == b.F {
			*t = il.Instr{Op: il.Jmp}
			b.F = -1
			changed = true
		}
	}
	return changed
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
