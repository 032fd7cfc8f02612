package ir

import (
	"math/bits"

	"cmo/internal/il"
)

// RegSet is a dense bitset over a function's virtual registers.
type RegSet []uint64

// NewRegSet returns a set sized for n registers.
func NewRegSet(n il.Reg) RegSet { return make(RegSet, (int(n)+63)/64) }

// Has reports membership.
func (s RegSet) Has(r il.Reg) bool { return s[r/64]&(1<<(r%64)) != 0 }

// Add inserts r and reports whether the set changed.
func (s RegSet) Add(r il.Reg) bool {
	w, b := r/64, uint64(1)<<(r%64)
	if s[w]&b != 0 {
		return false
	}
	s[w] |= b
	return true
}

// Remove deletes r.
func (s RegSet) Remove(r il.Reg) { s[r/64] &^= 1 << (r % 64) }

// UnionInto ors o into s and reports whether s changed.
func (s RegSet) UnionInto(o RegSet) bool {
	changed := false
	for i := range s {
		n := s[i] | o[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// Clone copies the set.
func (s RegSet) Clone() RegSet {
	c := make(RegSet, len(s))
	copy(c, s)
	return c
}

// Liveness holds per-block live-in/live-out register sets.
type Liveness struct {
	In, Out []RegSet
	// UseCount[r] is the static number of uses of register r,
	// weighted by block frequency when profiles are attached
	// (used by the register allocator's spill heuristic).
	UseCount []int64

	// Per-block upward-exposed uses and definitions, the set headers
	// and the one word array all four families of sets live in, kept
	// for Rebuild.
	use, def []RegSet
	sets     []RegSet
	words    []uint64
	order    []int32
}

// instrUses visits the registers read by an instruction.
func instrUses(in *il.Instr, visit func(il.Reg)) {
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

// instrDef returns the register written by an instruction (0 if none).
func instrDef(in *il.Instr) il.Reg { return in.Dst }

// BuildLiveness computes classic backward liveness over the CFG.
// Parameters (registers 1..NParams) are treated as defined at entry.
func BuildLiveness(f *il.Function, c *CFG) *Liveness {
	lv := new(Liveness)
	lv.Rebuild(f, c)
	return lv
}

// Rebuild recomputes lv as the liveness of f over c (which must be
// f's current CFG), reusing the storage of lv's previous contents:
// sets and counts taken from lv before the call are overwritten.
// Only blocks reachable in c get non-empty sets.
func (lv *Liveness) Rebuild(f *il.Function, c *CFG) {
	n := len(f.Blocks)
	nw := (int(f.NRegs) + 63) / 64
	lv.words = resize(lv.words, 4*n*nw)
	clear(lv.words)
	lv.sets = resize(lv.sets, 4*n)
	for i := range lv.sets {
		lv.sets[i] = RegSet(lv.words[i*nw : (i+1)*nw : (i+1)*nw])
	}
	lv.In, lv.Out, lv.use, lv.def = lv.sets[:n:n], lv.sets[n:2*n:2*n], lv.sets[2*n:3*n:3*n], lv.sets[3*n:]
	lv.UseCount = resize(lv.UseCount, int(f.NRegs))
	clear(lv.UseCount)

	for i, b := range f.Blocks {
		use, def := lv.use[i], lv.def[i]
		w := int64(1)
		if b.Freq > 0 {
			w = b.Freq
		}
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			instrUses(in, func(r il.Reg) {
				lv.UseCount[r] += w
				if !def.Has(r) {
					use.Add(r)
				}
			})
			if d := instrDef(in); d != 0 {
				def.Add(d)
			}
		}
	}
	// Iterate to fixed point, visiting blocks in reverse RPO for
	// fast convergence. The transfer is word-wide:
	// in |= use | out &^ def.
	order := resize(lv.order, len(c.RPO))
	for i, b := range c.RPO {
		order[len(order)-1-i] = b
	}
	lv.order = order
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			out := lv.Out[b]
			for _, s := range c.Succs[b] {
				if out.UnionInto(lv.In[s]) {
					changed = true
				}
			}
			in, use, def := lv.In[b], lv.use[b], lv.def[b]
			for k := range in {
				if nv := in[k] | use[k] | out[k]&^def[k]; nv != in[k] {
					in[k] = nv
					changed = true
				}
			}
		}
	}
}

// Intervals computes a linearized live interval for every register
// given a block ordering (the layout LLO will emit). Positions are
// instruction indices in the linearized order. A register's interval
// is [Start, End] inclusive; registers never used have Start == -1.
type Interval struct {
	Reg        il.Reg
	Start, End int
	Weight     int64 // spill cost weight (profile/loop aware)
}

// BuildIntervals computes conservative live intervals over the given
// block order, extending intervals across loop-carried liveness via
// block live-in/out sets. weights gives the spill-cost weight of each
// block (profile counts, or loop-depth estimates); nil falls back to
// block Freq or 1.
func BuildIntervals(f *il.Function, c *CFG, lv *Liveness, order []int32, weights []int64) []Interval {
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
	// Parameters are live-in at position 0.
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
	// Extend intervals to cover whole blocks where a register is
	// live-in or live-out, so loop-carried values stay allocated.
	// Only the registers in either set are visited; touch is order
	// independent.
	for _, bi := range order {
		in, out := lv.In[bi], lv.Out[bi]
		for k := range in {
			for w := in[k] | out[k]; w != 0; w &= w - 1 {
				r := il.Reg(k*64 + bits.TrailingZeros64(w))
				if r == 0 || r >= f.NRegs {
					continue
				}
				if in.Has(r) {
					touch(r, blockStart[bi], 0)
				}
				if out.Has(r) {
					touch(r, blockEnd[bi], 0)
					touch(r, blockStart[bi], 0)
				}
			}
		}
	}
	return iv
}
