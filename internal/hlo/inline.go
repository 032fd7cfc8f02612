package hlo

import (
	"sort"

	"cmo/internal/il"
	"cmo/internal/profile"
	"cmo/internal/xform"
)

// inlineAll processes functions bottom-up (callees before callers) so
// that bodies spliced into a caller have already received their own
// inlining, and schedules each caller's inline candidates grouped by
// callee so that repeated pulls of the same callee body hit the NAIM
// expanded-pool cache (paper section 4.3: "HLO's inliner tries to
// carefully schedule inlines so that cross-module inlines from the
// same pair of modules are processed one after another").
func (p *pass) inlineAll() {
	inc := p.incremental()
	var keys map[il.PID]string
	if inc != nil {
		keys = p.inlineClosureKeys(p.prehashScope(inc))
	}
	for _, pid := range p.bottomUp() {
		if !p.selected[pid] {
			continue
		}
		if p.canceled() {
			return
		}
		if inc != nil && p.replayInline(inc, pid, keys[pid]) {
			continue
		}
		opsBefore := len(p.res.InlineOps)
		changed := p.inlineFunction(pid)
		if inc != nil {
			p.storeInlineRecord(inc, pid, keys[pid], changed, p.res.InlineOps[opsBefore:])
		}
	}
}

// candidate is one call site eligible for inlining.
type candidate struct {
	block int32
	instr int
	site  profile.SiteKey
	pid   il.PID // callee
	freq  int64
}

// inlineFunction runs the live inline stage on one caller; the return
// reports whether the body was touched (some candidate was accepted,
// so splices and the local cleanup ran).
func (p *pass) inlineFunction(caller il.PID) bool {
	f := p.src.View(caller)
	if f == nil {
		return false
	}
	origSize := f.NumInstrs()
	cap := origSize * p.opts.Budget.GrowthFactor
	if cap < p.opts.Budget.MinCap {
		cap = p.opts.Budget.MinCap
	}

	// Collect candidates with their profiled site counts. Block ids
	// here are the fresh post-lowering ids the profile was keyed on.
	var cands []candidate
	for bi, b := range f.Blocks {
		seq := int32(0)
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			if in.Op != il.Call {
				continue
			}
			key := profile.SiteKey{
				Fn:     f.Name,
				Block:  int32(bi),
				Seq:    seq,
				Callee: p.prog.Sym(in.Sym).Name,
			}
			seq++
			cands = append(cands, candidate{
				block: int32(bi),
				instr: ii,
				site:  key,
				pid:   in.Sym,
				freq:  p.siteFreqs[key],
			})
		}
	}

	// Decide, then order the accepted inlines: by callee module, then
	// callee PID, then position — the cache-friendly schedule. Within
	// one block, later sites must be spliced before earlier ones so
	// that remaining instruction indexes stay valid; the splice
	// routine re-locates sites by (block, index) recorded *before*
	// any mutation, so we process per block in descending index order
	// within the callee grouping.
	var accepted []candidate
	curSize := origSize
	for _, c := range cands {
		calleeSym := p.prog.Sym(c.pid)
		if calleeSym.Module < 0 {
			continue
		}
		calleeSize := p.size[c.pid]
		if !p.shouldInline(caller, c.pid, calleeSize, c.freq) {
			continue
		}
		if curSize+calleeSize > cap {
			continue
		}
		curSize += calleeSize
		accepted = append(accepted, c)
	}
	if len(accepted) == 0 {
		p.src.DoneWith(caller)
		return false
	}
	p.src.MarkDirty(caller)
	if p.opts.NoScheduleLocality {
		// Ablation mode: deterministically interleave callees so that
		// consecutive inlines touch different pools (the worst case
		// for the expanded-pool cache).
		sort.SliceStable(accepted, func(i, j int) bool {
			bi := (accepted[i].block*31 + int32(accepted[i].instr)) % 7
			bj := (accepted[j].block*31 + int32(accepted[j].instr)) % 7
			if bi != bj {
				return bi < bj
			}
			return accepted[i].pid > accepted[j].pid
		})
	} else {
		sort.SliceStable(accepted, func(i, j int) bool {
			mi := p.prog.Sym(accepted[i].pid).Module
			mj := p.prog.Sym(accepted[j].pid).Module
			if mi != mj {
				return mi < mj
			}
			if accepted[i].pid != accepted[j].pid {
				return accepted[i].pid < accepted[j].pid
			}
			if accepted[i].block != accepted[j].block {
				return accepted[i].block < accepted[j].block
			}
			return accepted[i].instr > accepted[j].instr
		})
	}

	// Splicing shifts instructions: an earlier splice at (b, i) moves
	// instructions after i into a new tail block. Track per (block)
	// how sites relocate: we only ever splice within the *original*
	// block at positions below previously spliced ones, except that
	// the callee-module grouping breaks descending order across
	// groups. Re-locate each site by scanning for the recorded call
	// instruction identity instead.
	for _, c := range accepted {
		if p.opts.MaxInlines > 0 && p.res.Stats.Inlines >= p.opts.MaxInlines {
			break
		}
		callee := p.src.View(c.pid)
		if callee == nil {
			continue
		}
		bi, ii, ok := locateSite(f, c)
		if !ok {
			continue
		}
		callerMod := p.prog.Sym(caller).Module
		calleeMod := p.prog.Sym(c.pid).Module
		calleeInstrs := callee.NumInstrs()
		splice(f, bi, ii, callee, c.freq)
		p.res.Stats.Inlines++
		p.res.Stats.InlinedInstrs += calleeInstrs
		p.res.InlineOps = append(p.res.InlineOps, InlineOp{Caller: caller, Callee: c.pid, SiteFreq: c.freq, Instrs: calleeInstrs})
		if callerMod != calleeMod {
			p.res.Stats.CrossModule++
		}
	}
	// The callees of this function are no longer needed here; their
	// pools can be reclaimed before we clean up the caller.
	for _, c := range accepted {
		p.src.DoneWith(c.pid)
	}
	xform.Optimize(f)
	p.size[caller] = f.NumInstrs()
	p.src.DoneWith(caller)
	return true
}

// shouldInline applies the budget rules.
func (p *pass) shouldInline(caller, callee il.PID, calleeSize int, freq int64) bool {
	if !p.scope[callee] {
		return false // callee's IL was not routed into the optimizer
	}
	if caller == callee || p.sccOf[caller] == p.sccOf[callee] {
		return false // never inline within a recursion cycle
	}
	if calleeSize == 0 {
		return false
	}
	b := p.opts.Budget
	if calleeSize <= b.TinySize {
		return true
	}
	if p.opts.DB != nil && freq >= b.HotMin && calleeSize <= b.HotMaxSize {
		return true
	}
	return calleeSize <= b.ColdMaxSize
}

// locateSite finds the current position of a candidate's call
// instruction. Splices only move instructions from a block's suffix
// into fresh tail blocks, so the site is either still in its original
// block or in one of the tail blocks appended since; we search the
// caller for the n'th call to the callee matching the original
// ordering by scanning blocks in id order starting at the original
// block. Sites are unique because each splice deletes the call it
// inlines.
func locateSite(f *il.Function, c candidate) (int32, int, bool) {
	// Fast path: unchanged position.
	if int(c.block) < len(f.Blocks) {
		b := f.Blocks[c.block]
		if c.instr < len(b.Instrs) {
			in := &b.Instrs[c.instr]
			if in.Op == il.Call && in.Sym == c.pid {
				return c.block, c.instr, true
			}
		}
	}
	// Slow path: the call moved into a tail block. Scan all blocks
	// for a call to this callee; counts per candidate stay unique
	// because earlier splices removed their own call instructions.
	// We prefer the earliest remaining occurrence, which preserves
	// the original relative order.
	for bi := range f.Blocks {
		b := f.Blocks[bi]
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			if in.Op == il.Call && in.Sym == c.pid {
				return int32(bi), ii, true
			}
		}
	}
	return 0, 0, false
}

// splice inlines callee at instruction (bi, ii) of f, which must be a
// Call to it. siteFreq scales the callee's profile annotations into
// the caller.
func splice(f *il.Function, bi int32, ii int, callee *il.Function, siteFreq int64) {
	b := f.Blocks[bi]
	call := b.Instrs[ii]

	regOff := f.NRegs - 1 // callee reg r maps to r + regOff
	f.NRegs += callee.NRegs - 1
	blockOff := int32(len(f.Blocks))
	tailIdx := blockOff + int32(len(callee.Blocks))

	mapReg := func(r il.Reg) il.Reg {
		if r == 0 {
			return 0
		}
		return r + regOff
	}
	mapVal := func(v il.Value) il.Value {
		if v.IsConst || v.Reg == 0 {
			return v
		}
		return il.RegVal(v.Reg + regOff)
	}

	// Tail block: everything after the call, inheriting the block's
	// terminator targets and frequency.
	tail := &il.Block{
		Instrs: append([]il.Instr(nil), b.Instrs[ii+1:]...),
		T:      b.T,
		F:      b.F,
		Freq:   b.Freq,
	}

	// Head: retain the prefix, bind arguments, jump into the body.
	head := b.Instrs[:ii:ii]
	for pi := 0; pi < callee.NParams; pi++ {
		dst := mapReg(il.Reg(pi + 1))
		a := call.Args[pi]
		if a.IsConst {
			head = append(head, il.Instr{Op: il.Const, Dst: dst, A: a})
		} else {
			head = append(head, il.Instr{Op: il.Copy, Dst: dst, A: a})
		}
	}
	head = append(head, il.Instr{Op: il.Jmp})
	b.Instrs = head
	b.T, b.F = blockOff, -1

	// Profile scaling for the inlined body.
	scale := func(freq int64) int64 {
		if siteFreq <= 0 || callee.Calls <= 0 {
			return 0
		}
		return freq * siteFreq / callee.Calls
	}

	// Copy the callee body with registers and block ids remapped and
	// returns rewritten to (copy result; jump to tail).
	for _, cb := range callee.Blocks {
		nb := &il.Block{
			Instrs: make([]il.Instr, 0, len(cb.Instrs)+1),
			T:      -1,
			F:      -1,
			Freq:   scale(cb.Freq),
		}
		for _, cin := range cb.Instrs {
			in := cin
			in.Dst = mapReg(in.Dst)
			in.A = mapVal(in.A)
			in.B = mapVal(in.B)
			if in.Args != nil {
				args := make([]il.Value, len(in.Args))
				for i, a := range in.Args {
					args[i] = mapVal(a)
				}
				in.Args = args
			}
			switch in.Op {
			case il.Ret:
				if call.Dst != 0 {
					if in.A.IsConst {
						nb.Instrs = append(nb.Instrs, il.Instr{Op: il.Const, Dst: call.Dst, A: in.A})
					} else if !in.A.IsNone() {
						nb.Instrs = append(nb.Instrs, il.Instr{Op: il.Copy, Dst: call.Dst, A: in.A})
					}
				}
				nb.Instrs = append(nb.Instrs, il.Instr{Op: il.Jmp})
				nb.T = tailIdx
			case il.Jmp:
				nb.Instrs = append(nb.Instrs, in)
				nb.T = cb.T + blockOff
			case il.Br:
				nb.Instrs = append(nb.Instrs, in)
				nb.T = cb.T + blockOff
				nb.F = cb.F + blockOff
			default:
				nb.Instrs = append(nb.Instrs, in)
			}
		}
		f.Blocks = append(f.Blocks, nb)
	}
	f.Blocks = append(f.Blocks, tail)
	f.SrcLines += callee.SrcLines
}
