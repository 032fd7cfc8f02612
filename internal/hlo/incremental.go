package hlo

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"

	"cmo/internal/il"
)

// Incremental replay: with a session repository behind the build, the
// two per-function HLO stages that dominate optimization time —
// inlining and the interprocedural/local pipeline — consult cached
// transform records before doing work. A record's key encodes the
// function's complete input set, so replay is sound by construction:
//
//   - The inline stage keys on the transitive callee closure — for
//     every function reachable through call edges from the caller, its
//     name, pre-inline content hash, and scope/selected/defined bits.
//     Bottom-up inlining makes a caller's outcome a pure function of
//     that closure (callee post-inline bodies are themselves pure
//     functions of their sub-closures), so an edit to one module
//     invalidates exactly the functions whose closure reaches into it:
//     the dependents. Everything else replays. The closure is hashed
//     condensed, once per run: each call-graph SCC gets a SHA-256 over
//     its own members and the keys of the SCCs it calls, so a caller's
//     key is its name plus its SCC's key (inlineClosureKeys), and the
//     whole key set costs one pass over the call graph rather than one
//     closure walk per function.
//
//   - The interproc stage keys on the post-clone body hash plus the
//     facts it consults: the constant-argument lattice for the
//     function's parameters, its entry/externally-called bits, and for
//     every global it loads the (stored ⊔ volatile, initial value)
//     summary. That fact list is the invalidation edge set: a store
//     added anywhere to a previously constant global changes the fact
//     string of every function that loads it — and only of those.
//
// Whole-program facts (scan, SCC, clone, dead-function elimination)
// always run live; they are cheap relative to the per-function
// transforms and globally coupled, so caching them would buy little
// and risk much. MaxInlines > 0 disables replay outright: the global
// operation cap couples every function's outcome to every other's.
//
// Records never influence *what* the pipeline produces — a warm run
// must be byte-identical to a cold one — so every decode error or
// mismatch simply falls back to the live path.

// Incremental connects HLO to the session's artifact repository. All
// closures are supplied by the driver (package cmo), keeping this
// package free of any dependency on the repository implementation.
type Incremental struct {
	// OptionsFP fingerprints every build input outside function bodies
	// that can steer HLO: optimization level, budget, the full profile
	// database content, entry name, volatile set, toolchain version.
	OptionsFP string
	// Hash returns a stable, PID-independent content hash of a body.
	Hash func(f *il.Function) string
	// Load fetches a record; ok=false on miss.
	Load func(kind string, parts ...string) ([]byte, bool)
	// Store persists a record (best-effort; the cache is advisory).
	Store func(kind string, blob []byte, parts ...string)
	// Encode/Decode convert bodies to and from the portable form.
	Encode func(f *il.Function) []byte
	Decode func(pid il.PID, blob []byte) (*il.Function, error)
}

const (
	inlineRecMagic    = 0xC1
	interprocRecMagic = 0xC2
)

var errRecord = errors.New("hlo: corrupt transform record")

// incremental returns the replay hook, or nil when replay is off for
// this run.
func (p *pass) incremental() *Incremental {
	inc := p.opts.Incremental
	if inc == nil {
		return nil
	}
	if p.opts.MaxInlines > 0 {
		// The global inline cap makes one function's outcome depend on
		// how many operations every earlier function performed; no
		// per-function key can capture that.
		return nil
	}
	return inc
}

func b2c(b bool) byte {
	if b {
		return '1'
	}
	return '0'
}

// prehashScope computes the pre-inline content hash of every in-scope
// body, the closure keys' raw material.
func (p *pass) prehashScope(inc *Incremental) map[il.PID]string {
	h0 := make(map[il.PID]string)
	for _, pid := range p.prog.FuncPIDs() {
		if !p.scope[pid] {
			continue
		}
		if f := p.src.Function(pid); f != nil {
			h0[pid] = inc.Hash(f)
			p.src.DoneWith(pid)
		}
	}
	return h0
}

// inlineClosureKeys gives every selected function its inline-replay
// key in one bottom-up pass over the call graph's SCCs. Each SCC's key
// is a SHA-256 over its members sorted by name — each with its name,
// pre-inline hash, and the bits the inliner consults — followed by the
// sorted, de-duplicated keys of the SCCs it calls. Tarjan numbers SCCs
// callee-first, so every callee key exists before its callers need it.
// The SCC key is thus a Merkle hash of the whole transitive callee
// closure: it changes exactly when some closure member's name, hash or
// bits change (edges follow from the hashed bodies), it is independent
// of PIDs and map order, and the whole map costs one pass over the
// call graph (plus the name and key sorts) per run.
func (p *pass) inlineClosureKeys(h0 map[il.PID]string) map[il.PID]string {
	nscc := 0
	for _, c := range p.sccOf {
		nscc = max(nscc, c+1)
	}
	members := make([][]il.PID, nscc)
	for pid, c := range p.sccOf {
		members[c] = append(members[c], pid)
	}
	sccKeys := make([][sha256.Size]byte, nscc)
	var buf []byte
	var calls [][sha256.Size]byte
	for c, ms := range members {
		sort.Slice(ms, func(i, j int) bool {
			return p.prog.Sym(ms[i]).Name < p.prog.Sym(ms[j]).Name
		})
		buf = binary.AppendUvarint(buf[:0], uint64(len(ms)))
		calls = calls[:0]
		for _, m := range ms {
			sym := p.prog.Sym(m)
			buf = append(buf, sym.Name...)
			buf = append(buf, 0)
			buf = append(buf, h0[m]...)
			buf = append(buf, 0, b2c(p.scope[m]), b2c(p.selected[m]), b2c(sym.Module >= 0), '\n')
			for _, w := range p.callees[m] {
				if d := p.sccOf[w]; d != c {
					calls = append(calls, sccKeys[d])
				}
			}
		}
		sort.Slice(calls, func(i, j int) bool { return bytes.Compare(calls[i][:], calls[j][:]) < 0 })
		for i, k := range calls {
			if i == 0 || k != calls[i-1] {
				buf = append(buf, k[:]...)
			}
		}
		sccKeys[c] = sha256.Sum256(buf)
	}
	keys := make(map[il.PID]string, len(p.selected))
	for pid := range p.selected {
		keys[pid] = p.prog.Sym(pid).Name + "\n" + hex.EncodeToString(sccKeys[p.sccOf[pid]][:])
	}
	return keys
}

// inlineRecOp is one replayed inline operation.
type inlineRecOp struct {
	callee string
	freq   int64
	instrs int64
}

func encodeInlineRecord(changed bool, body []byte, ops []inlineRecOp) []byte {
	b := []byte{inlineRecMagic, b2c(changed)}
	if changed {
		b = binary.AppendUvarint(b, uint64(len(body)))
		b = append(b, body...)
	}
	b = binary.AppendUvarint(b, uint64(len(ops)))
	for _, op := range ops {
		b = binary.AppendUvarint(b, uint64(len(op.callee)))
		b = append(b, op.callee...)
		b = binary.AppendVarint(b, op.freq)
		b = binary.AppendVarint(b, op.instrs)
	}
	return b
}

type recReader struct {
	b   []byte
	off int
	err error
}

func (r *recReader) fail() {
	if r.err == nil {
		r.err = errRecord
	}
}

func (r *recReader) u() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *recReader) i() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *recReader) byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *recReader) take(n uint64) []byte {
	if r.err != nil || n > uint64(len(r.b)-r.off) {
		r.fail()
		return nil
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

func decodeInlineRecord(blob []byte) (changed bool, body []byte, ops []inlineRecOp, err error) {
	r := &recReader{b: blob}
	if r.byte() != inlineRecMagic {
		return false, nil, nil, errRecord
	}
	changed = r.byte() == '1'
	if changed {
		body = r.take(r.u())
	}
	n := r.u()
	if r.err != nil || n > uint64(len(blob)) {
		return false, nil, nil, errRecord
	}
	for j := uint64(0); j < n; j++ {
		op := inlineRecOp{callee: string(r.take(r.u()))}
		op.freq = r.i()
		op.instrs = r.i()
		ops = append(ops, op)
	}
	if r.err != nil {
		return false, nil, nil, r.err
	}
	if r.off != len(blob) {
		return false, nil, nil, errRecord
	}
	return changed, body, ops, nil
}

// replayInline tries to satisfy one caller's inline stage from a
// cached record. It returns true when the record was applied: the
// caller's post-inline body is installed and every statistic the live
// path would have produced is reproduced.
func (p *pass) replayInline(inc *Incremental, caller il.PID, key string) bool {
	blob, ok := inc.Load("hlo/inline", inc.OptionsFP, key)
	if !ok {
		return false
	}
	changed, body, ops, err := decodeInlineRecord(blob)
	if err != nil {
		return false
	}
	// Resolve every replayed operation before mutating anything.
	type resolved struct {
		callee il.PID
		freq   int64
		instrs int64
	}
	rops := make([]resolved, 0, len(ops))
	for _, op := range ops {
		sym := p.prog.Lookup(op.callee)
		if sym == nil {
			return false
		}
		rops = append(rops, resolved{callee: sym.PID, freq: op.freq, instrs: op.instrs})
	}
	f := p.src.Function(caller)
	if f == nil {
		return false
	}
	if changed {
		nf, err := inc.Decode(caller, body)
		if err != nil {
			p.src.DoneWith(caller)
			return false
		}
		*f = *nf
	}
	callerMod := p.prog.Sym(caller).Module
	for _, op := range rops {
		p.res.Stats.Inlines++
		p.res.Stats.InlinedInstrs += int(op.instrs)
		p.res.InlineOps = append(p.res.InlineOps, InlineOp{
			Caller: caller, Callee: op.callee, SiteFreq: op.freq, Instrs: int(op.instrs),
		})
		if p.prog.Sym(op.callee).Module != callerMod {
			p.res.Stats.CrossModule++
		}
	}
	p.size[caller] = f.NumInstrs()
	p.src.DoneWith(caller)
	p.res.Stats.ReplayHits++
	return true
}

// storeInlineRecord persists one caller's inline-stage outcome.
func (p *pass) storeInlineRecord(inc *Incremental, caller il.PID, key string, changed bool, ops []InlineOp) {
	f := p.src.Function(caller)
	if f == nil {
		return
	}
	var body []byte
	if changed {
		body = inc.Encode(f)
	}
	p.src.DoneWith(caller)
	recOps := make([]inlineRecOp, len(ops))
	for i, op := range ops {
		recOps[i] = inlineRecOp{
			callee: p.prog.Sym(op.Callee).Name,
			freq:   op.SiteFreq,
			instrs: int64(op.Instrs),
		}
	}
	inc.Store("hlo/inline", encodeInlineRecord(changed, body, recOps), inc.OptionsFP, key)
	p.res.Stats.ReplayMisses++
}

// interprocFactsFP renders the facts the interproc stage consults for
// one function: the parameter lattice, the entry and externally-called
// bits, and for each loaded global its promotion-relevant summary.
func (p *pass) interprocFactsFP(pid il.PID, f *il.Function, entryPID il.PID) string {
	var sb strings.Builder
	sb.WriteByte(b2c(pid == entryPID))
	sb.WriteByte(b2c(p.opts.ExternallyCalled[pid]))
	sb.WriteByte('\n')
	if st := p.args[pid]; st != nil {
		for i := 0; i < f.NParams && i < len(st.state); i++ {
			fmt.Fprintf(&sb, "p%d:%d:%d\n", i, st.state[i], st.val[i])
		}
	}
	// Globals the body loads, in first-appearance order (body order is
	// part of the key's body hash, so this order is stable).
	seen := make(map[il.PID]bool)
	for _, b := range f.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			if in.Op != il.LoadG || seen[in.Sym] {
				continue
			}
			seen[in.Sym] = true
			sym := p.prog.Sym(in.Sym)
			fmt.Fprintf(&sb, "g:%s:%c:%d\n", sym.Name,
				b2c(p.stored[in.Sym] || p.opts.Volatile[in.Sym]), sym.Init)
		}
	}
	return sb.String()
}

// ipOutcome is what one function's interproc stage did.
type ipOutcome struct {
	ipcpParams   []int
	ipcpVals     []int64
	constGlobals int
	promoted     []il.PID
	unrolled     bool
}

func (p *pass) encodeInterprocRecord(body []byte, out *ipOutcome) []byte {
	b := []byte{interprocRecMagic}
	b = binary.AppendUvarint(b, uint64(len(body)))
	b = append(b, body...)
	b = binary.AppendUvarint(b, uint64(len(out.ipcpParams)))
	for i := range out.ipcpParams {
		b = binary.AppendUvarint(b, uint64(out.ipcpParams[i]))
		b = binary.AppendVarint(b, out.ipcpVals[i])
	}
	b = binary.AppendUvarint(b, uint64(out.constGlobals))
	b = binary.AppendUvarint(b, uint64(len(out.promoted)))
	for _, g := range out.promoted {
		name := p.prog.Sym(g).Name
		b = binary.AppendUvarint(b, uint64(len(name)))
		b = append(b, name...)
	}
	b = append(b, b2c(out.unrolled))
	return b
}

func (p *pass) decodeInterprocRecord(blob []byte) (body []byte, out *ipOutcome, err error) {
	r := &recReader{b: blob}
	if r.byte() != interprocRecMagic {
		return nil, nil, errRecord
	}
	body = r.take(r.u())
	out = &ipOutcome{}
	n := r.u()
	if r.err != nil || n > uint64(len(blob)) {
		return nil, nil, errRecord
	}
	for j := uint64(0); j < n; j++ {
		out.ipcpParams = append(out.ipcpParams, int(r.u()))
		out.ipcpVals = append(out.ipcpVals, r.i())
	}
	out.constGlobals = int(r.u())
	ng := r.u()
	if r.err != nil || ng > uint64(len(blob)) {
		return nil, nil, errRecord
	}
	for j := uint64(0); j < ng; j++ {
		name := string(r.take(r.u()))
		sym := p.prog.Lookup(name)
		if sym == nil {
			return nil, nil, fmt.Errorf("hlo: record promotes unknown global %q", name)
		}
		out.promoted = append(out.promoted, sym.PID)
	}
	out.unrolled = r.byte() == '1'
	if r.err != nil || r.off != len(blob) {
		return nil, nil, errRecord
	}
	return body, out, nil
}

// applyIPOutcome reproduces one function's interproc statistics and
// whole-program fact updates.
func (p *pass) applyIPOutcome(pid il.PID, out *ipOutcome) {
	for i := range out.ipcpParams {
		p.res.Stats.IPCPParams++
		p.ipcpFacts = append(p.ipcpFacts, IPCPFact{Fn: pid, Param: out.ipcpParams[i], Val: out.ipcpVals[i]})
	}
	p.res.Stats.ConstGlobals += out.constGlobals
	for _, g := range out.promoted {
		p.promoted[g] = true
	}
	if out.unrolled {
		p.res.Stats.Unrolled++
	}
	p.res.Stats.OptimizedFns++
}

// replayInterproc tries to satisfy one function's interproc stage from
// a cached record keyed by its post-clone body hash and fact string.
func (p *pass) replayInterproc(inc *Incremental, pid il.PID, f *il.Function, entryPID il.PID) bool {
	facts := p.interprocFactsFP(pid, f, entryPID)
	blob, ok := inc.Load("hlo/interproc", inc.OptionsFP, p.prog.Sym(pid).Name, inc.Hash(f), facts)
	if !ok {
		return false
	}
	body, out, err := p.decodeInterprocRecord(blob)
	if err != nil {
		return false
	}
	nf, err := inc.Decode(pid, body)
	if err != nil {
		return false
	}
	*f = *nf
	p.applyIPOutcome(pid, out)
	p.res.Stats.ReplayHits++
	return true
}

// storeInterprocRecord persists one function's interproc outcome under
// the key computed *before* the stage mutated the body.
func (p *pass) storeInterprocRecord(inc *Incremental, pid il.PID, f *il.Function, preHash, facts string, out *ipOutcome) {
	blob := p.encodeInterprocRecord(inc.Encode(f), out)
	inc.Store("hlo/interproc", blob, inc.OptionsFP, p.prog.Sym(pid).Name, preHash, facts)
	p.res.Stats.ReplayMisses++
}
