package hlo

import (
	"fmt"
	"sort"

	"cmo/internal/il"
	"cmo/internal/ipa"
	"cmo/internal/obs"
	"cmo/internal/profile"
	"cmo/internal/xform"
)

// FuncSource provides function bodies on demand. The returned body is
// owned by the source; HLO mutates it in place. DoneWith hints that
// the body will not be touched again soon and may be compacted or
// offloaded. Implementations must be safe for concurrent use: the
// parallel pipeline phases (codegen, selectivity enumeration,
// verification, out-of-scope summarization) call Function/DoneWith
// from many goroutines at once. The NAIM loader pins a body from
// Function until the matching DoneWith, so a checked-out body is
// never compacted out from under its holder.
type FuncSource interface {
	Function(pid il.PID) *il.Function
	DoneWith(pid il.PID)
}

// MapSource is a trivial FuncSource over a map, for tests and for
// NAIM-less compilation.
type MapSource map[il.PID]*il.Function

// Function returns the mapped body.
func (m MapSource) Function(pid il.PID) *il.Function { return m[pid] }

// DoneWith is a no-op for MapSource.
func (m MapSource) DoneWith(il.PID) {}

// InlineBudget tunes the inliner.
type InlineBudget struct {
	// TinySize: callees at or below this size are always inlined.
	TinySize int
	// HotMaxSize: with profiles, hot sites inline callees up to this size.
	HotMaxSize int
	// HotMin: minimum profiled site count to be considered hot.
	HotMin int64
	// ColdMaxSize: every site with a callee at or below this size is
	// inlined regardless of profile. Without profiles this is the
	// only rule beyond TinySize and is set high ("thorough
	// optimization of all routines" — the non-PBO mode whose cost
	// section 5 laments); with profiles it is a modest static floor
	// under the hot-site rule.
	ColdMaxSize int
	// GrowthFactor and MinCap bound the post-inlining size of a
	// caller: cap = max(origSize*GrowthFactor, MinCap).
	GrowthFactor int
	MinCap       int
}

// DefaultBudget returns the standard budgets; pbo selects the
// profile-aware variant.
func DefaultBudget(pbo bool) InlineBudget {
	if pbo {
		return InlineBudget{
			TinySize:     8,
			HotMaxSize:   200,
			HotMin:       8,
			ColdMaxSize:  40,
			GrowthFactor: 4,
			MinCap:       600,
		}
	}
	return InlineBudget{
		TinySize:     8,
		HotMaxSize:   0,
		HotMin:       0,
		ColdMaxSize:  80,
		GrowthFactor: 8,
		MinCap:       1200,
	}
}

// Options configures an HLO run.
type Options struct {
	// DB supplies profile data (nil for pure CMO).
	DB *profile.DB
	// Scope is the coarse-grained selectivity set: the functions of
	// the modules compiled in CMO mode. HLO scans and may transform
	// only these; everything else bypasses HLO entirely (nil means
	// the whole program is in scope). Callees outside the scope are
	// never inlined — their IL was not routed to the optimizer.
	Scope map[il.PID]bool
	// Selected is the fine-grained selectivity set: only these
	// functions are optimized (nil means all in-scope functions).
	// Unselected in-scope functions are still scanned once for
	// whole-program facts but never transformed (paper section 5).
	Selected map[il.PID]bool
	// ExternallyCalled marks in-scope functions that may be called
	// from outside the scope; IPCP must not specialize them and dead
	// function elimination must keep them. Supplied by the driver,
	// which sees the non-CMO modules.
	ExternallyCalled map[il.PID]bool
	// ExternStored marks globals stored by code outside the scope;
	// they are never promoted to constants.
	ExternStored map[il.PID]bool
	// Volatile marks globals whose values are supplied externally
	// (program inputs); they are never treated as link-time constants.
	Volatile map[il.PID]bool
	// Summaries, when non-nil, supplies the interprocedural MOD/REF
	// and purity summaries (internal/ipa) and enables the fact-gated
	// transforms that consult them: global-load forwarding across
	// calls that provably don't MOD the global ("gforward"), dead
	// global-store elimination across non-REF calls ("gdse"), and CSE
	// of const/pure calls ("purecse"). A callee with no summary is
	// treated as Top — it may do anything — so a partial table is
	// always safe. Clones made mid-run inherit their original's
	// summary (a specialization's effects are a subset).
	Summaries ipa.Summaries
	// Entry is the program entry function name (default "main").
	Entry string
	// AllowNoEntry permits optimizing a program fragment with no
	// entry function — the separate-compilation (+O3 in cmoc) case,
	// where every routine must be treated as externally callable and
	// dead-function elimination is disabled.
	AllowNoEntry bool
	// Budget tunes inlining; zero value means DefaultBudget(DB != nil).
	Budget InlineBudget
	// NoScheduleLocality disables the inliner's cache-friendly
	// candidate ordering (group by callee module, then callee); used
	// only by the ablation experiment that measures how much the
	// paper's section-4.3 schedule buys.
	NoScheduleLocality bool
	// MaxInlines caps the number of inline operations performed
	// (0 = unlimited). This is the paper's section-6.3 "controllable
	// operation limit": because compilation is deterministic, binary
	// searching over this limit pinpoints the single inline that
	// flips a program from working to failing (see internal/isolate).
	MaxInlines int
	// Span is the trace span this HLO run nests under (the driver's
	// "hlo" phase span). The zero Span disables trace emission; the
	// per-transform sub-spans (scan, inline, clone, ipcp, dce) then
	// cost nothing beyond a clock read each.
	Span obs.Span
	// Check, when non-nil, is invoked after each named transform
	// (scan, inline, clone, ipcp, dce) with that transform's name. A
	// non-nil return aborts the run; Optimize wraps it so the failure
	// names the transform that broke the invariant. The driver points
	// this at internal/analyze when Options.Verify is enabled.
	Check func(transform string) error
	// Incremental, when non-nil, lets the per-function inline and
	// interproc stages replay cached transform records instead of
	// re-optimizing functions whose inputs are unchanged (see
	// incremental.go). Replay never changes what the run produces —
	// only how much of it is recomputed. Ignored when MaxInlines > 0.
	Incremental *Incremental
	// Cancel, when non-nil, is polled at per-function granularity
	// inside every transform loop (scan, inline, interproc, dce). A
	// non-nil return aborts the run: Optimize returns that error
	// verbatim, with every FuncSource checkout already returned — a
	// cancelled run never leaves a pinned body behind. The driver
	// points this at the build context (Options.Context in package
	// cmo); the serving daemon uses it to enforce per-request
	// deadlines mid-HLO.
	Cancel func() error
}

// Stats reports what HLO did.
type Stats struct {
	Inlines       int
	Clones        int
	IPCPParams    int
	ConstGlobals  int // LoadG instructions replaced by constants
	DeadFuncs     int
	ScannedFuncs  int
	OptimizedFns  int
	Unrolled      int // functions in which loops were fully unrolled
	CrossModule   int // inlines whose caller and callee differ in module
	InlinedInstrs int
	// Outcome of the ipa-gated transforms (runs with Options.Summaries).
	GLoadsForwarded int // LoadG replaced by a known value ("gforward")
	GStoresKilled   int // dead StoreG removed ("gdse")
	PureCSEs        int // duplicate const/pure calls reused ("purecse")
	// Incremental replay outcome (runs with Options.Incremental): how
	// many per-function transform stages were replayed from cached
	// records versus recomputed live.
	ReplayHits   int
	ReplayMisses int
}

// InlineOp records one performed inline operation, in execution
// order. The log is the diagnostic the paper's section 6.2 calls for
// ("good compiler diagnostics on what the compiler is optimizing are
// essential") and the unit the section-6.3 isolation machinery counts.
type InlineOp struct {
	Caller, Callee il.PID
	SiteFreq       int64
	// Instrs is the callee body size at splice time (the instructions
	// the operation copied into the caller).
	Instrs int
}

// Result is the outcome of an HLO run.
type Result struct {
	Stats Stats
	// Dead lists functions proven unreachable from the entry; the
	// linker omits them from the image.
	Dead []il.PID
	// InlineOps is the ordered log of performed inlines.
	InlineOps []InlineOp
	// Facts publishes the whole-program summary facts this run relied
	// on, for the driver's soundness audit (internal/analyze
	// AuditFacts). Maps are shared with the pass, not copied.
	Facts Facts
}

// Facts records the summary facts HLO acted on: which globals it
// believed were never stored, which functions it believed had no
// outside callers, and the irreversible decisions (promotions, IPCP
// pins) it made on the strength of those beliefs. The selectivity
// design (paper section 5) means some of these facts summarize code
// HLO never re-reads, so the driver can audit them against a full
// rescan.
type Facts struct {
	// Scope mirrors Options.Scope (nil = whole program).
	Scope map[il.PID]bool
	// Stored is the stored-global summary: ExternStored merged with
	// every store the initial scan saw.
	Stored map[il.PID]bool
	// ExternallyCalled mirrors Options.ExternallyCalled.
	ExternallyCalled map[il.PID]bool
	// Volatile mirrors Options.Volatile.
	Volatile map[il.PID]bool
	// Promoted lists globals whose loads were replaced by constants.
	Promoted map[il.PID]bool
	// IPCP lists the parameters pinned to constants.
	IPCP []IPCPFact
	// Dead is Result.Dead as a set.
	Dead map[il.PID]bool
	// Summaries is the MOD/REF table the ipa-gated transforms
	// consulted, including entries copied onto clones made mid-run
	// (nil when the run had no summaries). The audit proves each
	// entry conservative over a full post-HLO rescan.
	Summaries ipa.Summaries
}

// IPCPFact records one interprocedural constant-propagation decision:
// parameter Param (0-based) of Fn was pinned to Val.
type IPCPFact struct {
	Fn    il.PID
	Param int
	Val   int64
}

type argState struct {
	// lattice per parameter: 0 = no call seen, 1 = constant, 2 = varying
	state []uint8
	val   []int64
}

// pass carries the state of one HLO run.
type pass struct {
	prog *il.Program
	src  FuncSource
	opts Options
	res  *Result
	// cancelErr latches the first error Options.Cancel reported; the
	// transform loops drain without further work once it is set.
	cancelErr error

	callees   map[il.PID][]il.PID
	callers   map[il.PID][]il.PID
	sccOf     map[il.PID]int
	stored    map[il.PID]bool // globals that are stored anywhere
	args      map[il.PID]*argState
	size      map[il.PID]int
	scope     map[il.PID]bool
	selected  map[il.PID]bool
	siteFreqs map[profile.SiteKey]int64
	promoted  map[il.PID]bool // globals promoted to constants
	ipcpFacts []IPCPFact

	// ipa-gated transform state (nil/empty when Options.Summaries is
	// nil). summaries is a private copy so clone entries added mid-run
	// never mutate the caller's table.
	summaries   ipa.Summaries
	ipaReplayed map[il.PID]bool      // functions satisfied from a replay record
	ipaKeys     map[il.PID][2]string // preHash, factsFP captured before gforward
	ipaDeltas   map[il.PID]*ipaOutcome
	summaryFPs  map[*ipa.Summary]string // see summaryFP
}

// Optimize runs the full HLO pipeline over the program.
func Optimize(prog *il.Program, src FuncSource, opts Options) (*Result, error) {
	if opts.Entry == "" {
		opts.Entry = "main"
	}
	if opts.Budget == (InlineBudget{}) {
		opts.Budget = DefaultBudget(opts.DB != nil)
	}
	entryPID := il.NoPID
	if entry := prog.Lookup(opts.Entry); entry != nil && entry.Kind == il.SymFunc {
		entryPID = entry.PID
	} else if !opts.AllowNoEntry {
		return nil, fmt.Errorf("hlo: no entry function %q", opts.Entry)
	}
	p := &pass{
		prog: prog,
		src:  src,
		opts: opts,
		res:  &Result{},
	}
	p.scope = opts.Scope
	if p.scope == nil {
		p.scope = make(map[il.PID]bool)
		for _, pid := range prog.FuncPIDs() {
			p.scope[pid] = true
		}
	}
	p.selected = opts.Selected
	if p.selected == nil {
		p.selected = make(map[il.PID]bool)
		for _, pid := range prog.FuncPIDs() {
			if p.scope[pid] {
				p.selected[pid] = true
			}
		}
	} else {
		// The fine-grained set can never exceed the coarse set.
		narrowed := make(map[il.PID]bool, len(p.selected))
		for pid := range p.selected {
			if p.scope[pid] {
				narrowed[pid] = true
			}
		}
		p.selected = narrowed
	}
	p.siteFreqs = make(map[profile.SiteKey]int64)
	if opts.DB != nil {
		for k, v := range opts.DB.Sites {
			p.siteFreqs[k] = v
		}
	}
	if opts.Summaries != nil {
		p.summaries = make(ipa.Summaries, len(opts.Summaries))
		for pid, s := range opts.Summaries {
			p.summaries[pid] = s
		}
	}

	// check re-verifies the program after a named transform; the
	// wrapped error is the paper's section-6.3 dream diagnostic: it
	// says which transform broke which invariant in which function.
	check := func(transform string) error {
		if opts.Check == nil {
			return nil
		}
		if err := opts.Check(transform); err != nil {
			return fmt.Errorf("hlo: verification failed after %s: %w", transform, err)
		}
		return nil
	}

	// Per-transform spans: the phase-level breakdown behind the
	// paper's Figure 5/6 compile-time measurements. After each
	// transform the latched cancellation error (if any) is surfaced
	// before the transform's verification pass runs — a cancelled run
	// must report the deadline, not a half-checked invariant.
	sp := opts.Span.Child("scan")
	p.initialScan()
	sp.End()
	if p.cancelErr != nil {
		return nil, p.cancelErr
	}
	if err := check("scan"); err != nil {
		return nil, err
	}
	sp = opts.Span.Child("inline")
	p.inlineAll()
	sp.End()
	if p.cancelErr != nil {
		return nil, p.cancelErr
	}
	if err := check("inline"); err != nil {
		return nil, err
	}
	sp = opts.Span.Child("clone")
	p.cloneAll()
	sp.End()
	if p.cancelErr != nil {
		return nil, p.cancelErr
	}
	if err := check("clone"); err != nil {
		return nil, err
	}
	sp = opts.Span.Child("ipcp")
	p.interproc()
	sp.End()
	if p.cancelErr != nil {
		return nil, p.cancelErr
	}
	if err := check("ipcp"); err != nil {
		return nil, err
	}
	if p.summaries != nil {
		// The ipa-gated transforms: each is a named transform of its
		// own so a verification failure names the one that broke the
		// invariant. All three share one replay record per function
		// (the first stage replays it, the last stores it), so the
		// loops skip functions already satisfied from the cache.
		for _, stage := range []struct {
			name string
			run  func()
		}{
			{"gforward", p.ipaForwardAll},
			{"gdse", p.ipaDSEAll},
			{"purecse", p.ipaCSEAll},
		} {
			sp = opts.Span.Child(stage.name)
			stage.run()
			sp.End()
			if p.cancelErr != nil {
				return nil, p.cancelErr
			}
			if err := check(stage.name); err != nil {
				return nil, err
			}
		}
	}
	if entryPID != il.NoPID {
		sp = opts.Span.Child("dce")
		p.deadFunctions(entryPID)
		sp.End()
		if p.cancelErr != nil {
			return nil, p.cancelErr
		}
		if err := check("dce"); err != nil {
			return nil, err
		}
	}
	p.res.Facts = Facts{
		Scope:            opts.Scope,
		Stored:           p.stored,
		ExternallyCalled: opts.ExternallyCalled,
		Volatile:         opts.Volatile,
		Promoted:         p.promoted,
		IPCP:             p.ipcpFacts,
		Dead:             make(map[il.PID]bool, len(p.res.Dead)),
		Summaries:        p.summaries,
	}
	for _, pid := range p.res.Dead {
		p.res.Facts.Dead[pid] = true
	}
	return p.res, nil
}

// canceled polls Options.Cancel, latching the first error it reports.
// Transform loops call it between checkouts — never while holding one
// — so an aborted run's pin count is already balanced when Optimize
// returns the latched error.
func (p *pass) canceled() bool {
	if p.cancelErr != nil {
		return true
	}
	if p.opts.Cancel == nil {
		return false
	}
	if err := p.opts.Cancel(); err != nil {
		p.cancelErr = err
		return true
	}
	return false
}

// initialScan reads every module's code once, building the call
// graph, the stored-global set, the constant-argument lattice, and
// function sizes — the whole-program facts that require examining all
// routines, selected or not (paper section 5: "information about
// routines not selected for optimization can influence the
// optimization of selected routines").
func (p *pass) initialScan() {
	p.callees = make(map[il.PID][]il.PID)
	p.callers = make(map[il.PID][]il.PID)
	p.stored = make(map[il.PID]bool)
	p.args = make(map[il.PID]*argState)
	p.size = make(map[il.PID]int)
	for pid := range p.opts.ExternStored {
		p.stored[pid] = true
	}

	for _, pid := range p.prog.FuncPIDs() {
		if !p.scope[pid] {
			continue
		}
		if p.canceled() {
			return
		}
		f := p.src.Function(pid)
		if f == nil {
			continue
		}
		p.res.Stats.ScannedFuncs++
		p.size[pid] = f.NumInstrs()
		seen := make(map[il.PID]bool)
		for _, b := range f.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				switch in.Op {
				case il.StoreG, il.StoreX:
					p.stored[in.Sym] = true
				case il.Call:
					if !seen[in.Sym] {
						seen[in.Sym] = true
						p.callees[pid] = append(p.callees[pid], in.Sym)
						p.callers[in.Sym] = append(p.callers[in.Sym], pid)
					}
					p.meetArgs(in)
				}
			}
		}
		p.src.DoneWith(pid)
	}
	p.computeSCC()
}

// meetArgs folds one call's arguments into the callee's lattice.
func (p *pass) meetArgs(in *il.Instr) {
	st := p.args[in.Sym]
	if st == nil {
		st = &argState{state: make([]uint8, len(in.Args)), val: make([]int64, len(in.Args))}
		p.args[in.Sym] = st
	}
	for i, a := range in.Args {
		if i >= len(st.state) {
			break
		}
		switch {
		case !a.IsConst:
			st.state[i] = 2
		case st.state[i] == 0:
			st.state[i] = 1
			st.val[i] = a.Const
		case st.state[i] == 1 && st.val[i] != a.Const:
			st.state[i] = 2
		}
	}
}

// computeSCC labels mutual-recursion groups (iterative Tarjan).
func (p *pass) computeSCC() {
	p.sccOf = make(map[il.PID]int)
	index := make(map[il.PID]int)
	low := make(map[il.PID]int)
	onStack := make(map[il.PID]bool)
	var stack []il.PID
	next, comp := 0, 0
	type frame struct {
		v  il.PID
		ci int
	}
	for _, root := range p.prog.FuncPIDs() {
		if _, done := index[root]; done {
			continue
		}
		work := []frame{{v: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			f := &work[len(work)-1]
			if f.ci < len(p.callees[f.v]) {
				w := p.callees[f.v][f.ci]
				f.ci++
				if _, seen := index[w]; !seen {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					work = append(work, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			work = work[:len(work)-1]
			if len(work) > 0 {
				pp := work[len(work)-1].v
				if low[v] < low[pp] {
					low[pp] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					p.sccOf[w] = comp
					if w == v {
						break
					}
				}
				comp++
			}
		}
	}
}

// bottomUp returns defined functions callee-first (ascending SCC id,
// which Tarjan emits in reverse topological order), PID tie-break.
func (p *pass) bottomUp() []il.PID {
	out := p.prog.FuncPIDs()
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := p.sccOf[out[i]], p.sccOf[out[j]]
		if si != sj {
			return si < sj
		}
		return out[i] < out[j]
	})
	return out
}

// interproc applies interprocedural constant propagation and
// constant-global promotion to the selected functions, then runs the
// standard local pipeline on each. With replay enabled, a function
// whose post-clone body and facts match a cached record skips the
// whole stage and installs the recorded outcome.
func (p *pass) interproc() {
	entryPID := il.NoPID
	if entry := p.prog.Lookup(p.opts.Entry); entry != nil {
		entryPID = entry.PID
	}
	p.promoted = make(map[il.PID]bool)
	inc := p.incremental()
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
		var preHash, facts string
		if inc != nil {
			if p.replayInterproc(inc, pid, f, entryPID) {
				p.src.DoneWith(pid)
				continue
			}
			// Key material must predate the mutations below.
			preHash = inc.Hash(f)
			facts = p.interprocFactsFP(pid, f, entryPID)
		}
		out := p.interprocOne(pid, f, entryPID)
		if inc != nil {
			p.storeInterprocRecord(inc, pid, f, preHash, facts, out)
		}
		p.src.DoneWith(pid)
	}
}

// interprocOne runs the live interproc stage on one function and
// returns what it did (the replayable outcome).
func (p *pass) interprocOne(pid il.PID, f *il.Function, entryPID il.PID) *ipOutcome {
	out := &ipOutcome{}

	// IPCP: a parameter whose every (pre-inline) caller passes
	// the same constant becomes a constant at entry. The entry
	// function's parameters come from the outside world, and
	// functions callable from outside the CMO scope have unseen
	// callers.
	if st := p.args[pid]; st != nil && pid != entryPID && !p.opts.ExternallyCalled[pid] {
		for i := 0; i < f.NParams && i < len(st.state); i++ {
			if st.state[i] == 1 {
				entryBlock := f.Blocks[0]
				pre := []il.Instr{{Op: il.Const, Dst: il.Reg(i + 1), A: il.ConstVal(st.val[i])}}
				entryBlock.Instrs = append(pre, entryBlock.Instrs...)
				out.ipcpParams = append(out.ipcpParams, i)
				out.ipcpVals = append(out.ipcpVals, st.val[i])
			}
		}
	}

	// Constant-global promotion: loads of globals never stored
	// anywhere in the program (and not marked volatile) become
	// constants.
	promotedHere := make(map[il.PID]bool)
	for _, b := range f.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			if in.Op != il.LoadG || p.stored[in.Sym] || p.opts.Volatile[in.Sym] {
				continue
			}
			sym := p.prog.Sym(in.Sym)
			if !promotedHere[in.Sym] {
				promotedHere[in.Sym] = true
				out.promoted = append(out.promoted, in.Sym)
			}
			*in = il.Instr{Op: il.Const, Dst: in.Dst, A: il.ConstVal(sym.Init)}
			out.constGlobals++
		}
	}

	// Loop transformations: fully unroll small counted loops
	// (often exposed only now, after IPCP and constant-global
	// promotion turned trip counts into constants).
	xform.Optimize(f)
	if xform.UnrollLoops(f, 256) {
		out.unrolled = true
		xform.Optimize(f)
	}
	p.applyIPOutcome(pid, out)
	return out
}

// deadFunctions finds functions unreachable from the entry after all
// transformations. Selected functions are re-scanned (inlining may
// have removed their last reference to a callee); unselected bodies
// kept their initial-scan edges.
func (p *pass) deadFunctions(entry il.PID) {
	adj := make(map[il.PID][]il.PID)
	for _, pid := range p.prog.FuncPIDs() {
		if p.canceled() {
			return
		}
		if !p.scope[pid] {
			// Outside the CMO scope nothing was scanned; such
			// functions are kept and their call edges are unknown
			// here (the driver accounts for them through
			// ExternallyCalled).
			continue
		}
		if !p.selected[pid] {
			adj[pid] = p.callees[pid]
			continue
		}
		f := p.src.Function(pid)
		if f == nil {
			continue
		}
		seen := make(map[il.PID]bool)
		for _, b := range f.Blocks {
			for ii := range b.Instrs {
				if in := &b.Instrs[ii]; in.Op == il.Call && !seen[in.Sym] {
					seen[in.Sym] = true
					adj[pid] = append(adj[pid], in.Sym)
				}
			}
		}
		p.src.DoneWith(pid)
	}
	// Roots: the entry plus everything reachable from outside the
	// scope.
	reach := map[il.PID]bool{entry: true}
	work := []il.PID{entry}
	for _, pid := range p.prog.FuncPIDs() {
		if (!p.scope[pid] || p.opts.ExternallyCalled[pid]) && !reach[pid] {
			reach[pid] = true
			work = append(work, pid)
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, w := range adj[v] {
			if !reach[w] {
				reach[w] = true
				work = append(work, w)
			}
		}
	}
	for _, pid := range p.prog.FuncPIDs() {
		if !reach[pid] {
			p.res.Dead = append(p.res.Dead, pid)
		}
	}
	p.res.Stats.DeadFuncs = len(p.res.Dead)
}
