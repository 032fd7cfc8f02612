package cmo

import (
	"fmt"

	"cmo/internal/cas"
	"cmo/internal/il"
	"cmo/internal/naim"
	"cmo/internal/obs"
	"cmo/internal/profile"
)

// The pipeline coordinator. Each build runs the same named stages in
// order — frontend → select → HLO → LLO → link — with every stage in
// its own stage_*.go file taking the loader, the options, and its obs
// span. The coordinator owns what the stages must agree on: defaults,
// the NAIM loader's lifetime, inter-stage verification, cancellation,
// and the final stats snapshot. A Session threads a persistent
// artifact repository under the stages; without one the pipeline
// behaves exactly as a cold build.
//
// Cancellation (Options.Context) is cooperative: the coordinator
// checks at every stage boundary and each stage checks at its own
// per-module or per-function granularity, always *between* checkouts —
// a stage never abandons a pinned NAIM body, so an aborted build
// unwinds with zero pin leaks (the error path below proves it with
// UnloadAll).

// ctxErr reports the options context's error, nil when no context was
// supplied or it is still live. Stages call this at loop granularity;
// it is one atomic load on the live path.
func (opt *Options) ctxErr() error {
	if opt.Context == nil {
		return nil
	}
	return opt.Context.Err()
}

// BuildSource compiles a set of MinC modules into an executable VPA
// image according to the options.
//
// Phase timing is span-derived: one "build" root span covers the whole
// call; "frontend" covers parse/check/lower, and the optimize/link
// phases nest under the same root inside buildIL. Each BuildStats
// duration is the duration of exactly one span, measured from a single
// captured start timestamp, so FrontendNanos + HLONanos + LLONanos +
// LinkNanos can never exceed TotalNanos (the old subtraction scheme
// read the clock twice and broke that invariant).
func BuildSource(mods []SourceModule, opt Options) (*Build, error) {
	sess := opt.Session
	if sess == nil && opt.CacheDir != "" {
		var err error
		sess, err = OpenSession(opt.CacheDir)
		if err != nil {
			return nil, err
		}
		defer sess.Close()
		if opt.RemoteCache != "" && sess.connected() {
			// The remote third level belongs to sessions this call owns;
			// a caller-provided Session attaches its own client. Close
			// runs before sess.Close (LIFO), draining the write-back
			// backlog so one-shot builds actually warm the shared cache.
			rc := cas.NewClient(opt.RemoteCache, cas.ClientConfig{
				Namespace: opt.RemoteNamespace,
				Timeout:   opt.RemoteCacheTimeout,
				Token:     opt.RemoteCacheToken,
			})
			sess.AttachRemote(rc)
			defer rc.Close()
		}
	}
	// Normalize the defaults the graph plan fingerprints; buildIL
	// re-applies the same normalization, and both are idempotent.
	if opt.Level == 0 {
		opt.Level = O2
	}
	if opt.Entry == "" {
		opt.Entry = "main"
	}
	if err := opt.ctxErr(); err != nil {
		return nil, err
	}
	root := opt.Trace.StartSpan("build")
	rc0 := sess.remoteStats()
	// Graph-scheduled sessions hash only the leaf inputs and push
	// dirtiness through the persisted closure. A clean closure is the
	// warm-noop fast path: the image replays from the repository with
	// zero stage work. Reuse stays gated by content keys — any
	// mismatch falls through to the full pipeline below.
	gp := planGraph(sess, mods, opt)
	if gp != nil {
		if b := gp.tryReplayImage(sess, mods, opt); b != nil {
			b.Stats.setRemote(sess.remoteStats().Sub(rc0))
			b.Stats.TotalNanos = root.End()
			return b, nil
		}
	}
	fe := root.Child("frontend")
	res, feHits, feMisses, err := runFrontend(mods, opt, sess, gp, fe)
	if err != nil {
		return nil, err
	}
	feNanos := fe.End()
	b, err := buildIL(res.Prog, res.Funcs, opt, sess, gp, root)
	if err != nil {
		return nil, err
	}
	b.Stats.FrontendNanos = feNanos
	b.Stats.CacheFrontendHits = feHits
	b.Stats.CacheFrontendMisses = feMisses
	if gp != nil {
		// The build's delta lands in the graph log only on success, so
		// the graph never describes artifacts a failed build left
		// half-made. Durability arrives with the session commit.
		gp.commit(&b.Stats, opt)
	}
	b.Stats.setRemote(sess.remoteStats().Sub(rc0))
	b.Stats.TotalNanos = root.End()
	return b, nil
}

// setRemote folds one build's remote-cache traffic delta into the
// stats block.
func (s *BuildStats) setRemote(d cas.ClientStats) {
	s.CacheRemoteHits = int(d.Hits)
	s.CacheRemoteMisses = int(d.Misses)
	s.CacheRemoteStores = int(d.Stores)
	s.CacheRemoteDrops = int(d.StoreDrops)
	s.CacheRemoteErrors = int(d.Errors)
	s.CacheRemoteShed = int(d.Shed)
}

// BuildIL compiles an already-lowered program (from BuildSource's
// frontend, or from IL-carrying object files merged by the linker —
// the paper's CMO-at-link-time entry point). The frontend artifact
// cache does not apply (there is no source to fingerprint), but a
// Session still provides HLO replay and the shared repository.
func BuildIL(prog *il.Program, fns map[il.PID]*il.Function, opt Options) (*Build, error) {
	sess := opt.Session
	if sess == nil && opt.CacheDir != "" {
		var err error
		sess, err = OpenSession(opt.CacheDir)
		if err != nil {
			return nil, err
		}
		defer sess.Close()
		if opt.RemoteCache != "" && sess.connected() {
			rc := cas.NewClient(opt.RemoteCache, cas.ClientConfig{
				Namespace: opt.RemoteNamespace,
				Timeout:   opt.RemoteCacheTimeout,
				Token:     opt.RemoteCacheToken,
			})
			sess.AttachRemote(rc)
			defer rc.Close()
		}
	}
	if err := opt.ctxErr(); err != nil {
		return nil, err
	}
	root := opt.Trace.StartSpan("build")
	rc0 := sess.remoteStats()
	b, err := buildIL(prog, fns, opt, sess, nil, root)
	if err != nil {
		return nil, err
	}
	b.Stats.setRemote(sess.remoteStats().Sub(rc0))
	b.Stats.TotalNanos = root.End()
	return b, nil
}

// buildIL is the shared optimize-compile-link pipeline; phase spans
// nest under parent, and the loader's trace scope tracks the phase the
// pipeline is in so NAIM activity nests where it happened.
func buildIL(prog *il.Program, fns map[il.PID]*il.Function, opt Options, sess *Session, gp *graphPlan, parent obs.Span) (*Build, error) {
	if opt.Level == 0 {
		opt.Level = O2
	}
	if opt.Entry == "" {
		opt.Entry = "main"
	}
	if opt.PBO && opt.DB == nil {
		return nil, fmt.Errorf("cmo: PBO requested without a profile database")
	}

	b := &Build{Prog: prog, gp: gp, trace: opt.Trace}
	b.Stats.Level = opt.Level
	b.Stats.PBO = opt.PBO
	b.Stats.Modules = len(prog.Modules)
	for _, m := range prog.Modules {
		b.Stats.TotalLines += m.Lines
	}

	if opt.DB != nil {
		opt.DB.Apply(fns)
	}
	var probeMap *profile.Map
	if opt.Instrument {
		fns, probeMap = profile.Instrument(prog, fns)
		b.ProbeMap = probeMap
	}
	if gp != nil {
		// Record the function-level call topology from the pre-HLO
		// bodies: inlining consumes call sites, and a consumed site is
		// exactly a dependency the compiled object keeps.
		gp.noteFuncs(prog, fns)
	}

	// Hand all transitory pools to the NAIM loader. A connected session
	// lends the loader its repository, so spilled pools and cached
	// artifacts share one durable store. A build context's done channel
	// reaches the loader too, so its blocking wait paths (writeback
	// backpressure) unblock on cancellation.
	if sess.connected() && opt.NAIM.Repo == nil {
		opt.NAIM.Repo = sess.Repo()
	}
	if opt.Context != nil && opt.NAIM.Done == nil {
		opt.NAIM.Done = opt.Context.Done()
	}
	loader := naim.NewLoader(prog, opt.NAIM)
	defer loader.Close()
	loader.SetTraceScope(parent)
	for _, pid := range prog.FuncPIDs() {
		loader.InstallFunc(fns[pid])
	}
	b.Stats.Functions = len(prog.FuncPIDs())

	if err := b.runStages(loader, opt, sess, probeMap, parent); err != nil {
		// An aborted build (cancellation, verification failure, any
		// stage error) must not leave checkouts behind: every stage
		// releases its pins before returning an error, and UnloadAll
		// proves it. A nonzero count here is a pipeline bug, surfaced
		// on the error rather than silently dropped.
		if n := loader.UnloadAll(); n > 0 {
			err = fmt.Errorf("%w (and %d NAIM pools left pinned by the aborted stage)", err, n)
		}
		return nil, err
	}
	return b, nil
}

// runStages drives the verified stage sequence — baseline check, HLO,
// LLO, link, post-link check — over an installed loader, filling in
// the build's image and stats. Splitting it from buildIL gives the
// coordinator one place to audit the loader after any failure.
func (b *Build) runStages(loader *naim.Loader, opt Options, sess *Session, probeMap *profile.Map, parent obs.Span) error {
	prog := b.Prog

	// Baseline check: the frontend's IL must be clean before any
	// transform touches it, or every later failure would be blamed on
	// the wrong stage.
	if err := b.verifyStage(loader, opt, "frontend", nil, parent); err != nil {
		return err
	}

	volatile := make(map[il.PID]bool)
	for _, name := range opt.Volatile {
		if s := prog.Lookup(name); s != nil {
			volatile[s.PID] = true
		}
	}

	omit := make(map[il.PID]bool)
	if err := opt.ctxErr(); err != nil {
		return err
	}
	switch {
	case opt.Instrument:
		// Instrumented builds skip HLO: probes measure the program
		// the frontend produced.
	case opt.Level >= O4:
		hsp := parent.Child("hlo")
		loader.SetTraceScope(hsp)
		if err := b.runHLO(loader, opt, sess, volatile, omit, hsp); err != nil {
			return err
		}
		b.Stats.HLONanos = hsp.End()
		loader.SetTraceScope(parent)
	case opt.Level == O3:
		hsp := parent.Child("hlo")
		loader.SetTraceScope(hsp)
		if err := b.runHLOPerModule(loader, opt, volatile, omit, hsp); err != nil {
			return err
		}
		b.Stats.HLONanos = hsp.End()
		loader.SetTraceScope(parent)
	}

	// LLO: compile every surviving function.
	if err := opt.ctxErr(); err != nil {
		return err
	}
	lsp := parent.Child("llo")
	loader.SetTraceScope(lsp)
	code, err := b.runLLO(loader, opt, sess, omit, lsp)
	if err != nil {
		return err
	}
	b.Stats.LLONanos = lsp.End()
	loader.SetTraceScope(parent)

	// Link: assemble the image.
	if err := opt.ctxErr(); err != nil {
		return err
	}
	ksp := parent.Child("link")
	img, err := b.runLink(opt, probeMap, omit, code, ksp)
	if err != nil {
		return err
	}
	b.Stats.LinkNanos = ksp.End()
	// Let queued repository spills land before the final stats
	// snapshot so disk-write figures reflect the repository, not the
	// writeback queue.
	loader.Flush()
	// Post-link consistency: the surviving IL, with the dead set
	// omitted, must still verify — in particular no surviving routine
	// may reference one that dead-code elimination removed.
	if err := b.verifyStage(loader, opt, "link", omit, parent); err != nil {
		return err
	}
	if b.gp != nil {
		// The image verified: record the sink node and store the image
		// blob so the next clean warm open is a single repository read.
		b.gp.noteImage(sess, img, &b.Stats, b.Stats.LinkNanos)
	}
	// Every stage has returned its checkouts by now; a pin that
	// survives UnloadAll is a leak some stage must answer for.
	b.Stats.PinLeaks = loader.UnloadAll()
	if opt.Trace != nil {
		opt.Trace.Counter("naim.pin_leaks").Add(int64(b.Stats.PinLeaks))
	}
	b.Image = img
	b.Stats.CodeBytes = img.CodeBytes()
	b.Stats.NAIM = loader.Stats()
	b.Stats.NAIMLevel = loader.Level()
	b.Stats.CompilerPeakBytes = b.Stats.NAIM.PeakBytes + b.Stats.LLOPeakBytes
	return nil
}
