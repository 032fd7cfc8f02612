package xform

import (
	"cmo/internal/il"
	"cmo/internal/ir"
)

// isRemovable reports whether an instruction may be deleted when its
// destination is dead. Calls, stores, probes, and terminators are
// never removable; Div/Rem are removable only when the divisor is a
// non-zero constant (deleting a potential divide-by-zero trap would
// change behavior); dead loads are removable (see package comment).
func isRemovable(in *il.Instr) bool {
	switch in.Op {
	case il.Const, il.Copy, il.Add, il.Sub, il.Mul, il.Neg, il.Not,
		il.Eq, il.Ne, il.Lt, il.Le, il.Gt, il.Ge,
		il.LoadG, il.LoadX, il.Nop:
		return true
	case il.Div, il.Rem:
		return in.B.IsConst && in.B.Const != 0
	}
	return false
}

// DCE removes instructions whose results are never used, iterating to
// a fixed point. Nop instructions are removed unconditionally. It
// reports whether anything was deleted.
func DCE(f *il.Function) bool {
	s := getScratch()
	defer scratchPool.Put(s)
	return s.dce(f)
}

// dce is DCE over s's storage. It never deletes or changes a
// terminator, so f's CFG is the same in every round: it is built once
// per call, and each round re-solves liveness into the same sets. A
// round deletes against the liveness solved before it, exactly as
// rebuilding everything per round would; iterated liveness DCE is
// confluent, so the fixed point is the same either way.
func (s *scratch) dce(f *il.Function) bool {
	s.cfg.Rebuild(f)
	any := false
	for {
		s.lv.Rebuild(f, &s.cfg)
		live := ir.RegSet(grow(s.live, len(s.lv.Out[0])))
		s.live = live
		changed := false
		for bi, b := range f.Blocks {
			copy(live, s.lv.Out[bi])
			// Walk backward, deleting dead removable defs and packing
			// the kept instructions against the end of the block.
			w := len(b.Instrs)
			for ii := len(b.Instrs) - 1; ii >= 0; ii-- {
				in := &b.Instrs[ii]
				if in.Op == il.Nop || (in.Dst != 0 && !live.Has(in.Dst) && isRemovable(in)) {
					changed = true
					continue
				}
				if in.Dst != 0 {
					live.Remove(in.Dst)
				}
				visitUses(in, func(r il.Reg) { live.Add(r) })
				w--
				if w != ii {
					b.Instrs[w] = *in
				}
			}
			if w > 0 {
				n := copy(b.Instrs, b.Instrs[w:])
				clear(b.Instrs[n:])
				b.Instrs = b.Instrs[:n]
			}
		}
		if !changed {
			return any
		}
		any = true
	}
}

func visitUses(in *il.Instr, visit func(il.Reg)) {
	use := func(v il.Value) {
		if !v.IsConst && v.Reg != 0 {
			visit(v.Reg)
		}
	}
	use(in.A)
	use(in.B)
	for _, a := range in.Args {
		use(a)
	}
}
