package xform

import (
	"cmo/internal/il"
	"cmo/internal/ir"
)

// UnrollLoops fully unrolls small counted loops with compile-time
// constant trip counts — one of HLO's "locality and schedule-
// enhancing loop transformations" (paper section 3). Only the
// simplest shape is handled, conservatively:
//
//	preheader:  ... rI = const c0 ... jmp header
//	header:     rC = cmp rI, const; br rC -> latch, exit
//	latch:      ...body (single block, one induction update)... jmp header
//
// The unrolled form replaces the header with trips copies of the
// latch body laid straight-line. Bodies are copied verbatim — without
// SSA, re-executing the same register updates is exactly the loop's
// semantics. budget caps the total instructions added per function.
// It reports whether anything was unrolled; run Optimize afterwards
// to clean up the dead compare and the unreachable latch.
func UnrollLoops(f *il.Function, budget int) bool {
	if budget <= 0 {
		budget = 256
	}
	const maxTrips = 16
	s := getScratch()
	defer scratchPool.Put(s)
	changed := false
	// Loop analysis invalidates after each unroll; iterate.
	for rounds := 0; rounds < 8; rounds++ {
		if !hasUnrollCandidate(f) {
			return changed
		}
		s.cfg.Rebuild(f)
		c := &s.cfg
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
				s.cleanup(f)
				break // CFG changed; recompute analyses
			}
		}
		if !did {
			return changed
		}
	}
	return changed
}

// hasUnrollCandidate reports whether some block has the header shape
// tryUnroll requires. It reads only the blocks themselves, so most
// functions, which have no such loop, skip the dominator and loop
// analyses: tryUnroll would reject every loop they have.
func hasUnrollCandidate(f *il.Function) bool {
	for h := range f.Blocks {
		if _, ok := unrollHeader(f, int32(h)); ok {
			return true
		}
	}
	return false
}

// unrollHeader reports whether block h is exactly [cmp rI, const; br]
// whose true edge enters a latch that ends in a jump straight back to
// h, and returns that latch.
func unrollHeader(f *il.Function, h int32) (latch int32, ok bool) {
	hb := f.Blocks[h]
	if len(hb.Instrs) != 2 {
		return -1, false
	}
	cmp, br := &hb.Instrs[0], &hb.Instrs[1]
	if br.Op != il.Br || br.A.IsConst || br.A.Reg != cmp.Dst {
		return -1, false
	}
	switch cmp.Op {
	case il.Lt, il.Le, il.Gt, il.Ge, il.Ne:
	default:
		return -1, false
	}
	if cmp.A.IsConst || !cmp.B.IsConst {
		return -1, false
	}
	if cmp.A.Reg == cmp.Dst {
		return -1, false // compare must not clobber the induction variable
	}
	// The loop continues on true (our lowering shape) and exits on
	// false to a third block.
	l, exit := hb.T, hb.F
	if l == h || exit == h || exit == l {
		return -1, false
	}
	if lb := f.Blocks[l]; lb.Term().Op != il.Jmp || lb.T != h {
		return -1, false
	}
	return l, true
}

// tryUnroll attempts the transformation for one (header, latch) pair.
func tryUnroll(f *il.Function, c *ir.CFG, h, l int32, budget, maxTrips int) bool {
	if hl, ok := unrollHeader(f, h); !ok || hl != l {
		return false
	}
	hb, lb := f.Blocks[h], f.Blocks[l]
	cmp := &hb.Instrs[0]
	rI := cmp.A.Reg
	bound := cmp.B.Const
	exit := hb.F

	// Latch: must not touch the compare register; its net effect on
	// rI must be "rI += step" for a constant step, independent of all
	// other state. We establish that by symbolic execution over the
	// affine lattice {i + c}: a register is either "i + c" (for the
	// value of rI at block entry) or opaque.
	type affine struct {
		known bool
		c     int64
	}
	sym := map[il.Reg]affine{rI: {known: true}}
	lookup := func(v il.Value) affine {
		if v.IsConst || v.Reg == 0 {
			return affine{}
		}
		return sym[v.Reg]
	}
	for ii := range lb.Instrs {
		in := &lb.Instrs[ii]
		if usesReg(in, cmp.Dst) || in.Dst == cmp.Dst {
			return false
		}
		if in.Dst == 0 {
			continue
		}
		out := affine{}
		switch in.Op {
		case il.Copy:
			out = lookup(in.A)
		case il.Add:
			if a := lookup(in.A); a.known && in.B.IsConst {
				out = affine{known: true, c: a.c + in.B.Const}
			} else if b := lookup(in.B); b.known && in.A.IsConst {
				out = affine{known: true, c: b.c + in.A.Const}
			}
		case il.Sub:
			if a := lookup(in.A); a.known && in.B.IsConst {
				out = affine{known: true, c: a.c - in.B.Const}
			}
		}
		sym[in.Dst] = out
	}
	final, ok := sym[rI]
	if !ok || !final.known || final.c == 0 {
		return false
	}
	step := final.c

	// The header's only predecessors are one preheader and the latch.
	var pre int32 = -1
	for _, p := range c.Preds[h] {
		if p == l {
			continue
		}
		if pre != -1 {
			return false
		}
		pre = p
	}
	if pre < 0 {
		return false
	}
	// The preheader must establish rI as a constant (its last def of
	// rI is a Const) and must not be the latch of some outer
	// construct that re-enters — a plain jmp suffices.
	pb := f.Blocks[pre]
	if pb.Term().Op != il.Jmp {
		return false
	}
	var init int64
	found := false
	for ii := range pb.Instrs {
		in := &pb.Instrs[ii]
		if in.Dst == rI {
			if in.Op == il.Const {
				init = in.A.Const
				found = true
			} else {
				found = false
			}
		}
	}
	if !found {
		return false
	}

	// Simulate the trip count exactly.
	taken := func(i int64) bool {
		switch cmp.Op {
		case il.Lt:
			return i < bound
		case il.Le:
			return i <= bound
		case il.Gt:
			return i > bound
		case il.Ge:
			return i >= bound
		case il.Ne:
			return i != bound
		}
		return false
	}
	trips := 0
	for i := init; taken(i); i += step {
		trips++
		if trips > maxTrips {
			return false
		}
	}
	bodyLen := len(lb.Instrs) - 1 // minus the jmp
	if trips*bodyLen > budget {
		return false
	}

	// Rewrite the header as the straight-line unrolled body.
	instrs := make([]il.Instr, 0, trips*bodyLen+1)
	for t := 0; t < trips; t++ {
		for ii := 0; ii < bodyLen; ii++ {
			in := lb.Instrs[ii]
			if in.Args != nil {
				args := make([]il.Value, len(in.Args))
				copy(args, in.Args)
				in.Args = args
			}
			instrs = append(instrs, in)
		}
	}
	// Keep rI's final value correct even for zero-trip loops: the
	// copies already updated it trips times; nothing more to do.
	instrs = append(instrs, il.Instr{Op: il.Jmp})
	hb.Instrs = instrs
	hb.T, hb.F = exit, -1
	// The latch is now unreachable; Cleanup (run by the caller)
	// removes it.
	return true
}

func usesReg(in *il.Instr, r il.Reg) bool {
	if r == 0 {
		return false
	}
	if !in.A.IsConst && in.A.Reg == r {
		return true
	}
	if !in.B.IsConst && in.B.Reg == r {
		return true
	}
	for _, a := range in.Args {
		if !a.IsConst && a.Reg == r {
			return true
		}
	}
	return false
}
