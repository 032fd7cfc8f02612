package hlo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cmo/internal/il"
	"cmo/internal/profile"
	"cmo/internal/xform"
)

// Procedure cloning (paper section 3 lists it among HLO's
// transformations, right after inlining): when different groups of
// call sites pass different — but within each group, identical —
// constant arguments, IPCP must give up. Cloning specializes the
// callee per constant signature and redirects each group to its
// clone; ordinary constant propagation then does the rest inside each
// specialization. Cloning runs after inlining, so it applies exactly
// where inlining declined (callees too big or sites too cold) but
// specialization still pays.

// Cloning budget.
const (
	cloneMaxSize     = 150 // callee size eligible for cloning
	clonesPerCallee  = 2   // specializations per original
	cloneMinSites    = 2   // static sites required to justify a clone
	cloneMinSiteFreq = 8   // or a group at least this hot
)

// Installer is the optional FuncSource extension that lets HLO add
// newly created bodies (clones) to the pool store. naim.Loader and
// MapSource both satisfy it.
type Installer interface {
	InstallFunc(f *il.Function)
}

// InstallFunc adds a body to a MapSource.
func (m MapSource) InstallFunc(f *il.Function) { m[f.PID] = f }

// constSig is a callee's constant-argument signature at one call
// site: comma-separated constants with "." for non-constant slots.
type constSig string

func sigOf(in *il.Instr) (constSig, int) {
	parts := make([]string, len(in.Args))
	consts := 0
	for i, a := range in.Args {
		if a.IsConst {
			consts++
			parts[i] = strconv.FormatInt(a.Const, 10)
		} else {
			parts[i] = "."
		}
	}
	return constSig(strings.Join(parts, ",")), consts
}

// parseSig decodes a signature back to per-param values (nil = not
// constant).
func parseSig(sig constSig) []*int64 {
	if sig == "" {
		return nil
	}
	parts := strings.Split(string(sig), ",")
	out := make([]*int64, len(parts))
	for i, p := range parts {
		if p == "." {
			continue
		}
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			continue
		}
		out[i] = &v
	}
	return out
}

// cloneSite locates one candidate call site.
type cloneSite struct {
	caller il.PID
	block  int32
	instr  int
	sig    constSig
	freq   int64
}

func cloneGroupWeight(g []cloneSite) int64 {
	var w int64
	for _, s := range g {
		w += s.freq
	}
	return w
}

// cloneAll performs the cloning pass over the selected functions.
func (p *pass) cloneAll() {
	installer, ok := p.src.(Installer)
	if !ok {
		return // the pool store cannot accept new bodies
	}

	byCallee := make(map[il.PID][]cloneSite)
	var calleeOrder []il.PID
	for _, caller := range p.bottomUp() {
		if !p.selected[caller] {
			continue
		}
		f := p.src.View(caller)
		if f == nil {
			continue
		}
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
				callee := in.Sym
				if !p.scope[callee] || callee == caller || p.sccOf[callee] == p.sccOf[caller] {
					continue
				}
				sig, consts := sigOf(in)
				if consts == 0 {
					continue
				}
				if _, seen := byCallee[callee]; !seen {
					calleeOrder = append(calleeOrder, callee)
				}
				byCallee[callee] = append(byCallee[callee], cloneSite{
					caller: caller, block: int32(bi), instr: ii,
					sig: sig, freq: p.siteFreqs[key],
				})
			}
		}
		p.src.DoneWith(caller)
	}
	sort.Slice(calleeOrder, func(i, j int) bool { return calleeOrder[i] < calleeOrder[j] })

	for _, callee := range calleeOrder {
		sym := p.prog.Sym(callee)
		if sym.Module < 0 || p.size[callee] == 0 || p.size[callee] > cloneMaxSize {
			continue
		}
		groups := make(map[constSig][]cloneSite)
		var sigs []constSig
		for _, s := range byCallee[callee] {
			if _, seen := groups[s.sig]; !seen {
				sigs = append(sigs, s.sig)
			}
			groups[s.sig] = append(groups[s.sig], s)
		}
		if len(sigs) < 2 {
			continue // a single signature is IPCP's job
		}
		sort.Slice(sigs, func(i, j int) bool { return sigs[i] < sigs[j] })
		sort.SliceStable(sigs, func(i, j int) bool {
			wi, wj := cloneGroupWeight(groups[sigs[i]]), cloneGroupWeight(groups[sigs[j]])
			if wi != wj {
				return wi > wj
			}
			return len(groups[sigs[i]]) > len(groups[sigs[j]])
		})
		made := 0
		for _, sig := range sigs {
			if made >= clonesPerCallee {
				break
			}
			g := groups[sig]
			if len(g) < cloneMinSites && cloneGroupWeight(g) < cloneMinSiteFreq {
				continue
			}
			if p.makeClone(installer, callee, sig, g) {
				made++
			}
		}
	}
}

// makeClone specializes callee for one signature and redirects the
// group's call sites to the specialization. Reports success.
func (p *pass) makeClone(installer Installer, callee il.PID, sig constSig, group []cloneSite) bool {
	orig := p.src.View(callee)
	if orig == nil {
		return false
	}
	consts := parseSig(sig)
	if len(consts) != orig.NParams {
		return false
	}
	name := fmt.Sprintf("%s$clone%d", orig.Name, p.res.Stats.Clones)
	pid, err := p.prog.Intern(name, il.SymFunc)
	if err != nil {
		return false
	}
	nsym := p.prog.Sym(pid)
	osym := p.prog.Sym(callee)
	nsym.Module = osym.Module
	nsym.Sig = il.Signature{Params: append([]il.Type(nil), osym.Sig.Params...), Ret: osym.Sig.Ret}
	// Note: the clone is intentionally NOT appended to the module's
	// Defs list — the module symbol table may already live in its
	// compacted NAIM form, and the program-wide symbol table is the
	// authoritative function registry at this stage.

	clone := orig.Clone()
	clone.Name = name
	clone.PID = pid
	// Bake the constant parameters into the entry; local cleanup
	// propagates them through the body.
	var pre []il.Instr
	for i, c := range consts {
		if c != nil {
			pre = append(pre, il.Instr{Op: il.Const, Dst: il.Reg(i + 1), A: il.ConstVal(*c)})
		}
	}
	clone.Calls = cloneGroupWeight(group)
	clone.Blocks[0].Instrs = append(pre, clone.Blocks[0].Instrs...)
	xform.Optimize(clone)

	installer.InstallFunc(clone)
	p.selected[pid] = true
	p.scope[pid] = true
	p.sccOf[pid] = p.sccOf[callee]
	p.size[pid] = clone.NumInstrs()
	if p.summaries != nil {
		// The clone is the original specialized to constant parameters,
		// so its effects are a subset of the original's — the original's
		// summary is a sound (if slightly wide) summary for it.
		if s := p.summaries[callee]; s != nil {
			p.summaries[pid] = s
		}
	}
	p.src.DoneWith(pid)

	redirected := 0
	for _, s := range group {
		f := p.src.View(s.caller)
		if f == nil {
			continue
		}
		if redirectSite(f, s, callee, pid, sig) {
			p.src.MarkDirty(s.caller)
			redirected++
		}
		p.src.DoneWith(s.caller)
	}
	p.src.DoneWith(callee)
	if redirected == 0 {
		return false
	}
	p.res.Stats.Clones++
	return true
}

// redirectSite points one recorded call site at the clone, if the
// site still calls callee with the group's signature.
func redirectSite(f *il.Function, s cloneSite, callee, clone il.PID, sig constSig) bool {
	if int(s.block) >= len(f.Blocks) || s.instr >= len(f.Blocks[s.block].Instrs) {
		return false
	}
	in := &f.Blocks[s.block].Instrs[s.instr]
	if in.Op != il.Call || in.Sym != callee {
		return false
	}
	if got, _ := sigOf(in); got != sig {
		return false
	}
	in.Sym = clone
	return true
}
