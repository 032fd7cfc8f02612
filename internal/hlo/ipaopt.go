package hlo

import (
	"encoding/binary"
	"strings"

	"cmo/internal/il"
	"cmo/internal/ipa"
	"cmo/internal/xform"
)

// The ipa-gated transforms. With Options.Summaries supplied, three
// additional named transforms run between ipcp and dce, each using
// the interprocedural MOD/REF summaries to optimize *across* call
// instructions that the purely local pipeline must treat as barriers:
//
//   - gforward: within a block, a LoadG whose global's current value
//     is known (from an earlier StoreG or LoadG) becomes a Const or
//     Copy — surviving across calls whose callee provably does not
//     MOD that global.
//   - gdse: within a block, a StoreG overwritten by a later StoreG to
//     the same global with no intervening LoadG becomes a Nop —
//     surviving across calls whose callee provably does not REF it.
//   - purecse: within a block, a call to a const (or pure) function
//     that duplicates an earlier call with identical operands reuses
//     the earlier result. Pure entries (which may read globals) are
//     invalidated by any store or by any call that may write; const
//     entries only by operand redefinition. Only a *later* duplicate
//     is replaced, so a call that would trap still traps first —
//     trap equivalence is preserved.
//
// A callee without a summary is Top ("may do anything"), so every
// rewrite is gated on positive knowledge. Volatile globals are never
// tracked. All three transforms are block-local: the facts they need
// cross *calls*, not control flow, which is where the summaries pay.
//
// Replay: the three stages share one record per function (kind
// "hlo/ipa"), keyed on the post-ipcp body hash plus ipaFactsFP — the
// summary fingerprint of every callee the body mentions and the
// volatile bit of every global it touches. Editing a callee so its
// side effects change flips its summary fingerprint and invalidates
// exactly the callers whose transforms consulted it. The first stage
// replays the record (installing the final body); the later stages
// skip replayed functions; the last stage stores fresh records.

// ipaTopSummary is the shared "no knowledge" summary.
var ipaTopSummary = ipa.Top()

// summaryOf returns the callee's summary, or Top when it has none.
func (p *pass) summaryOf(callee il.PID) *ipa.Summary {
	if s := p.summaries[callee]; s != nil {
		return s
	}
	return ipaTopSummary
}

// ipaOutcome is what the three ipa-gated stages did to one function.
type ipaOutcome struct {
	fwd, dse, cse int64
	changed       bool
}

// ipaForwardAll runs the gforward stage over the selected functions,
// consulting (and on miss, preparing) the shared replay record.
func (p *pass) ipaForwardAll() {
	inc := p.incremental()
	p.ipaReplayed = make(map[il.PID]bool)
	p.ipaKeys = make(map[il.PID][2]string)
	p.ipaDeltas = make(map[il.PID]*ipaOutcome)
	for _, pid := range p.bottomUp() {
		if !p.selected[pid] {
			continue
		}
		if p.canceled() {
			return
		}
		f := p.src.Function(pid)
		if f == nil {
			continue
		}
		if inc != nil && p.replayIPA(inc, pid, f) {
			p.src.DoneWith(pid)
			continue
		}
		d := &ipaOutcome{}
		p.ipaDeltas[pid] = d
		if n := p.forwardGlobals(f); n > 0 {
			d.fwd = int64(n)
			d.changed = true
			p.res.Stats.GLoadsForwarded += n
		}
		p.src.DoneWith(pid)
	}
}

// ipaDSEAll runs the gdse stage over the functions the gforward loop
// did not satisfy from the cache.
func (p *pass) ipaDSEAll() {
	for _, pid := range p.bottomUp() {
		if !p.selected[pid] || p.ipaReplayed[pid] {
			continue
		}
		if p.canceled() {
			return
		}
		f := p.src.Function(pid)
		if f == nil {
			continue
		}
		d := p.ipaDeltas[pid]
		if d == nil {
			d = &ipaOutcome{}
			p.ipaDeltas[pid] = d
		}
		if n := p.deadGlobalStores(f); n > 0 {
			d.dse = int64(n)
			d.changed = true
			p.res.Stats.GStoresKilled += n
		}
		p.src.DoneWith(pid)
	}
}

// ipaCSEAll runs the purecse stage, then cleans up changed bodies and
// stores the shared replay record.
func (p *pass) ipaCSEAll() {
	inc := p.incremental()
	for _, pid := range p.bottomUp() {
		if !p.selected[pid] || p.ipaReplayed[pid] {
			continue
		}
		if p.canceled() {
			return
		}
		f := p.src.Function(pid)
		if f == nil {
			continue
		}
		d := p.ipaDeltas[pid]
		if d == nil {
			d = &ipaOutcome{}
			p.ipaDeltas[pid] = d
		}
		if n := p.cseConstPureCalls(f); n > 0 {
			d.cse = int64(n)
			d.changed = true
			p.res.Stats.PureCSEs += n
		}
		if d.changed {
			// One local cleanup for the three stages: fold the Copies,
			// drop the Nops, shrink what forwarding exposed.
			xform.Optimize(f)
			p.size[pid] = f.NumInstrs()
		}
		if inc != nil {
			p.storeIPARecord(inc, pid, f, d)
		}
		p.src.DoneWith(pid)
	}
}

// forwardGlobals is the gforward transform body: block-local known-
// value tracking for scalar globals, with callee MOD summaries
// deciding which calls kill which entries.
func (p *pass) forwardGlobals(f *il.Function) int {
	count := 0
	for _, b := range f.Blocks {
		// avail[g] is the value global g currently holds: a constant,
		// or a register that has not been redefined since.
		avail := make(map[il.PID]il.Value)
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			wasLoadG := in.Op == il.LoadG
			// Use phase: rewrite a redundant load of a known global.
			if wasLoadG && !p.opts.Volatile[in.Sym] {
				if v, ok := avail[in.Sym]; ok {
					if v.IsConst {
						*in = il.Instr{Op: il.Const, Dst: in.Dst, A: v}
						count++
					} else if v.Reg != in.Dst {
						*in = il.Instr{Op: il.Copy, Dst: in.Dst, A: v}
						count++
					}
				}
			}
			// Barrier phase: calls kill what their callee may MOD.
			switch in.Op {
			case il.Call:
				s := p.summaryOf(in.Sym)
				if s.ModTop || s.CallsOut {
					clear(avail)
				} else {
					for g := range avail {
						if s.Mod[g] {
							delete(avail, g)
						}
					}
				}
			case il.Probe:
				clear(avail)
			}
			// Redefinition phase: a new value in Dst invalidates every
			// entry held in that register.
			if in.Dst != 0 {
				for g, v := range avail {
					if !v.IsConst && v.Reg == in.Dst {
						delete(avail, g)
					}
				}
			}
			// Gen phase: stores and (surviving) loads establish values.
			switch {
			case in.Op == il.StoreG && !p.opts.Volatile[in.Sym]:
				avail[in.Sym] = in.A
			case wasLoadG && in.Op == il.LoadG && !p.opts.Volatile[in.Sym]:
				avail[in.Sym] = il.RegVal(in.Dst)
			}
		}
	}
	return count
}

// deadGlobalStores is the gdse transform body: a StoreG is dead when
// a later StoreG to the same global follows in the block with no
// intervening LoadG of it and no call that may REF it. Death is with
// respect to the machine's observable outputs (return value, probes):
// like the local DCE's removal of potentially-trapping dead loads, a
// trap between the two stores leaves the global holding an older
// value, which no surviving instruction can read.
func (p *pass) deadGlobalStores(f *il.Function) int {
	count := 0
	for _, b := range f.Blocks {
		// pending[g] indexes the latest StoreG to g that nothing has
		// read yet. Entries surviving to the block's end are kept:
		// successors may read them.
		pending := make(map[il.PID]int)
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			switch in.Op {
			case il.LoadG:
				delete(pending, in.Sym)
			case il.StoreG:
				if p.opts.Volatile[in.Sym] {
					break
				}
				if prev, ok := pending[in.Sym]; ok {
					b.Instrs[prev] = il.Instr{Op: il.Nop}
					count++
				}
				pending[in.Sym] = ii
			case il.Call:
				s := p.summaryOf(in.Sym)
				if s.RefTop || s.CallsOut {
					clear(pending)
				} else {
					for g := range pending {
						if s.Ref[g] {
							delete(pending, g)
						}
					}
				}
			case il.Probe:
				clear(pending)
			}
		}
	}
	return count
}

// cseEntry is one available const/pure call result.
type cseEntry struct {
	result  il.Reg
	pure    bool // Pure (may read globals) as opposed to Const
	argRegs []il.Reg
}

// cseConstPureCalls is the purecse transform body.
func (p *pass) cseConstPureCalls(f *il.Function) int {
	count := 0
	var keyb strings.Builder
	for _, b := range f.Blocks {
		avail := make(map[string]*cseEntry)
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			insertKey := ""
			var insertEntry *cseEntry
			if in.Op == il.Call && in.Dst != 0 {
				s := p.summaryOf(in.Sym)
				if s.Purity == ipa.Const || s.Purity == ipa.Pure {
					keyb.Reset()
					keyb.WriteString(p.prog.Sym(in.Sym).Name)
					for _, a := range in.Args {
						keyb.WriteByte(':')
						keyb.WriteString(a.String())
					}
					key := keyb.String()
					if e, ok := avail[key]; ok {
						*in = il.Instr{Op: il.Copy, Dst: in.Dst, A: il.RegVal(e.result)}
						count++
					} else {
						insertKey = key
						insertEntry = &cseEntry{result: in.Dst, pure: s.Purity == ipa.Pure}
						for _, a := range in.Args {
							if !a.IsConst {
								insertEntry.argRegs = append(insertEntry.argRegs, a.Reg)
							}
						}
					}
				}
			}
			// Barrier phase: writes invalidate pure entries (their
			// results depend on global state); probes invalidate all.
			switch in.Op {
			case il.Call:
				s := p.summaryOf(in.Sym)
				if s.WritesAnything() || s.CallsOut {
					for k, e := range avail {
						if e.pure {
							delete(avail, k)
						}
					}
				}
			case il.StoreG, il.StoreX:
				for k, e := range avail {
					if e.pure {
						delete(avail, k)
					}
				}
			case il.Probe:
				clear(avail)
			}
			// Redefinition phase: Dst overwrite invalidates entries
			// whose result or operands lived there.
			if in.Dst != 0 {
				for k, e := range avail {
					if e.result == in.Dst {
						delete(avail, k)
						continue
					}
					for _, r := range e.argRegs {
						if r == in.Dst {
							delete(avail, k)
							break
						}
					}
				}
			}
			if insertKey != "" {
				avail[insertKey] = insertEntry
			}
		}
	}
	return count
}

// ipaFactsFP renders the facts the ipa-gated transforms consult for
// one function: every callee the body mentions with its summary
// fingerprint (⊤ for none), and every global it touches with its
// volatile bit. First-appearance body order is stable because the
// record key also contains the body hash.
func (p *pass) ipaFactsFP(f *il.Function) string {
	var sb strings.Builder
	seenC := make(map[il.PID]bool)
	seenG := make(map[il.PID]bool)
	for _, b := range f.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			switch in.Op {
			case il.Call:
				if seenC[in.Sym] {
					continue
				}
				seenC[in.Sym] = true
				sb.WriteString("c:")
				sb.WriteString(p.prog.Sym(in.Sym).Name)
				sb.WriteByte('\x00')
				if s := p.summaries[in.Sym]; s != nil {
					sb.WriteString(p.summaryFP(s))
				} else {
					sb.WriteString("⊤")
				}
				sb.WriteByte('\n')
			case il.LoadG, il.StoreG, il.LoadX, il.StoreX:
				if seenG[in.Sym] {
					continue
				}
				seenG[in.Sym] = true
				sb.WriteString("g:")
				sb.WriteString(p.prog.Sym(in.Sym).Name)
				sb.WriteByte(':')
				sb.WriteByte(b2c(p.opts.Volatile[in.Sym]))
				sb.WriteByte('\n')
			}
		}
	}
	return sb.String()
}

// summaryFP memoizes Summary.Fingerprint for one run: every caller of
// a function consults the same summary, and clones share their
// original's. Keying on the pointer is sound because summaries are
// immutable once ipa.Analyze returns; HLO only adds map entries.
func (p *pass) summaryFP(s *ipa.Summary) string {
	fp, ok := p.summaryFPs[s]
	if !ok {
		if p.summaryFPs == nil {
			p.summaryFPs = make(map[*ipa.Summary]string)
		}
		fp = s.Fingerprint(p.prog)
		p.summaryFPs[s] = fp
	}
	return fp
}

const ipaRecMagic = 0xC3

func encodeIPARecord(d *ipaOutcome, body []byte) []byte {
	b := []byte{ipaRecMagic, b2c(d.changed)}
	if d.changed {
		b = binary.AppendUvarint(b, uint64(len(body)))
		b = append(b, body...)
	}
	b = binary.AppendVarint(b, d.fwd)
	b = binary.AppendVarint(b, d.dse)
	b = binary.AppendVarint(b, d.cse)
	return b
}

func decodeIPARecord(blob []byte) (d *ipaOutcome, body []byte, err error) {
	r := &recReader{b: blob}
	if r.byte() != ipaRecMagic {
		return nil, nil, errRecord
	}
	d = &ipaOutcome{changed: r.byte() == '1'}
	if d.changed {
		body = r.take(r.u())
	}
	d.fwd = r.i()
	d.dse = r.i()
	d.cse = r.i()
	if r.err != nil || r.off != len(blob) {
		return nil, nil, errRecord
	}
	return d, body, nil
}

// replayIPA tries to satisfy all three ipa-gated stages for one
// function from a cached record. On a miss the computed key material
// is stashed so the purecse loop can store a fresh record under the
// *pre*-transform key.
func (p *pass) replayIPA(inc *Incremental, pid il.PID, f *il.Function) bool {
	preHash := inc.Hash(f)
	facts := p.ipaFactsFP(f)
	name := p.prog.Sym(pid).Name
	miss := func() bool {
		p.ipaKeys[pid] = [2]string{preHash, facts}
		return false
	}
	blob, ok := inc.Load("hlo/ipa", inc.OptionsFP, name, preHash, facts)
	if !ok {
		return miss()
	}
	d, body, err := decodeIPARecord(blob)
	if err != nil {
		return miss()
	}
	if d.changed {
		nf, err := inc.Decode(pid, body)
		if err != nil {
			return miss()
		}
		*f = *nf
		p.size[pid] = f.NumInstrs()
	}
	p.res.Stats.GLoadsForwarded += int(d.fwd)
	p.res.Stats.GStoresKilled += int(d.dse)
	p.res.Stats.PureCSEs += int(d.cse)
	p.res.Stats.ReplayHits++
	p.ipaReplayed[pid] = true
	return true
}

// storeIPARecord persists one function's combined ipa-stage outcome
// under the key captured before the first stage mutated the body.
func (p *pass) storeIPARecord(inc *Incremental, pid il.PID, f *il.Function, d *ipaOutcome) {
	keys, ok := p.ipaKeys[pid]
	if !ok {
		return
	}
	var body []byte
	if d.changed {
		body = inc.Encode(f)
	}
	inc.Store("hlo/ipa", encodeIPARecord(d, body), inc.OptionsFP, p.prog.Sym(pid).Name, keys[0], keys[1])
	p.res.Stats.ReplayMisses++
}
