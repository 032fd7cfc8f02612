package cmo

import (
	"context"
	"fmt"
	"sort"
	"time"

	"cmo/internal/analyze"
	"cmo/internal/hlo"
	"cmo/internal/il"
	"cmo/internal/naim"
	"cmo/internal/obs"
	"cmo/internal/profile"
	"cmo/internal/vpa"
)

// Level is the optimization level.
type Level int

// Optimization levels (paper sections 2-3).
const (
	// O1 optimizes only within basic blocks (the Mcad3 baseline).
	O1 Level = 1
	// O2 is the default: full intraprocedural optimization.
	O2 Level = 2
	// O3 routes the IL through HLO one module at a time:
	// interprocedural optimization within module boundaries.
	O3 Level = 3
	// O4 adds cross-module optimization at link time.
	O4 Level = 4
)

func (l Level) String() string {
	switch l {
	case O1:
		return "+O1"
	case O2:
		return "+O2"
	case O3:
		return "+O3"
	case O4:
		return "+O4"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// SourceModule is one MinC translation unit.
type SourceModule struct {
	Name string
	Text string
}

// Options configures one build.
type Options struct {
	// Level selects O1, O2, or O4. Zero means O2.
	Level Level
	// PBO enables profile-based optimization; requires DB.
	PBO bool
	// DB is the profile database from training runs.
	DB *profile.DB
	// Instrument produces a +I build with counting probes (compiled
	// at the given level without HLO).
	Instrument bool
	// SelectPercent is the selectivity parameter: the percentage of
	// ranked call sites retained (paper section 5). Negative disables
	// selectivity (all modules enter CMO). Only meaningful at O4.
	SelectPercent float64
	// NAIM configures the loader (budget, levels, cache).
	NAIM naim.Config
	// Volatile names globals whose values are external inputs and
	// must never be treated as link-time constants.
	Volatile []string
	// Entry is the program entry function (default "main").
	Entry string
	// Budget overrides the inliner budget (zero value = defaults).
	Budget hlo.InlineBudget
	// MultiLayer enables the paper's section-8 layered strategy
	// (requires O4 + PBO): selected routines get full CMO+PBO, warm
	// routines (executed in training but not selected) get the
	// default level, and routines that never executed are compiled at
	// O1 — "code that is executed little or not at all may not be
	// optimized at all".
	MultiLayer bool
	// ScopeModules, when non-nil, overrides selectivity with an
	// explicit coarse CMO module set (indexes into the program's
	// modules). This is the section-6.3 isolation knob: reducing "the
	// amount of code exposed to the optimizer" module by module.
	ScopeModules []int
	// MaxInlines caps the number of inline operations (0 =
	// unlimited); with deterministic builds, binary search over this
	// limit isolates a miscompiling inline (internal/isolate).
	MaxInlines int
	// NoIPA disables the interprocedural MOD/REF summary stage
	// (internal/ipa) and the fact-gated HLO transforms it feeds
	// (gforward, gdse, purecse). O4 only; the ablation knob for
	// measuring what the summaries buy.
	NoIPA bool
	// NoDepGraph disables the persisted artifact dependency graph
	// (internal/depgraph): no image replay, no LLO object cache, no
	// critical-path scheduling — every session build rediscovers
	// staleness per artifact, the pre-graph behavior. Generated code
	// is byte-identical either way (the graph only changes speed);
	// the knob exists for the differential tests that prove it, and
	// is fingerprinted like NoIPA so the two paths never share cached
	// records in those tests.
	NoDepGraph bool
	// Jobs parallelizes the read-mostly pipeline phases across
	// goroutines: frontend parsing/checking, selectivity's site
	// enumeration, out-of-scope fact summaries, per-function
	// verification, and per-routine code generation (the LLO stage's
	// local worker pool is Jobs wide) — the paper's section-8 future
	// work on parallelizing the optimizer. Workers share the
	// concurrency-safe NAIM loader directly. 0 or 1 means
	// sequential. Generated code and diagnostics are byte-identical
	// regardless of Jobs; only wall time and the scheduling-dependent
	// loader counters (cache hits/misses, lock wait, writeback queue)
	// change. HLO itself stays sequential: its transformation order is
	// part of the deterministic contract.
	Jobs int
	// Verify selects pipeline verification (internal/analyze): at
	// VerifyStructural and above the whole program is re-checked
	// after the frontend, after each named HLO transform (so a
	// failure names the transform that broke the invariant), after
	// each routine's local optimization, and after link. The zero
	// value is VerifyOff: no checking, no cost (see
	// TestVerifyOffZeroAlloc).
	Verify analyze.Level
	// Trace, when non-nil, collects hierarchical spans and counters
	// for the whole pipeline (frontend/HLO/LLO/link phases, NAIM
	// loader activity, per-routine codegen) — exportable as Chrome
	// trace-event JSON, a diffable phase tree, or a metrics snapshot
	// (see internal/obs). A nil Trace is a cheap no-op: the hot path
	// pays only the monotonic clock reads the phase statistics always
	// paid, and allocates nothing.
	Trace *obs.Trace
	// CacheDir, when non-empty, names a directory holding the durable
	// build repository. BuildSource opens a Session over it for the
	// duration of the call: modules whose source, options fingerprint,
	// and toolchain version match a stored artifact skip the frontend
	// (parse/check/lower) and are replayed from the repository, and
	// HLO per-function work is replayed for functions whose inputs are
	// unchanged. Warm rebuilds are byte-identical to cold builds at
	// every optimization level. Ignored when Session is set.
	CacheDir string
	// Session, when non-nil, is an already-open build session to use
	// (and keep open) instead of opening CacheDir per build. Callers
	// doing repeated in-process builds share one Session so each build
	// warms the next.
	Session *Session
	// RemoteCache, when non-empty, is the base URL of a shared CAS
	// service ("http://host:port"; a cmod daemon with a cache store
	// mounts it at /cas/). It gives the session opened from CacheDir a
	// third cache level: artifact lookups go memory → local repository
	// → remote CAS, local misses fill from the remote, and committed
	// artifacts write back asynchronously with a bounded backlog. The
	// remote is strictly advisory — any failure (unreachable service,
	// timeout, eviction, mid-build death) degrades to local-only and
	// the image bytes are identical with the cache on, off, cold, or
	// gone. Ignored when Session is set (attach a cas.Client to the
	// session yourself) or when CacheDir is empty (there is no local
	// level to fill).
	RemoteCache string
	// RemoteNamespace is the tenant namespace RemoteCache requests use
	// (default "default"). Namespaces isolate tenants sharing one
	// service: a key stored under one is invisible to every other.
	RemoteNamespace string
	// RemoteCacheTimeout bounds one remote cache request (0 = the
	// cas client default, 5s).
	RemoteCacheTimeout time.Duration
	// RemoteCacheToken is the shared secret sent as a bearer token on
	// every RemoteCache request, for services that require one (cmod
	// -cas-token). Like every remote knob it cannot affect bytes: a
	// wrong token just degrades the build to local-only.
	RemoteCacheToken string
	// Partitions sets the backend partition count (the WHOPR-style
	// ltrans split; see internal/partition). 0 picks a size-based
	// default (partition.Auto); the value never affects generated
	// bytes, only grouping granularity — images are byte-identical
	// across partition counts.
	Partitions int
	// RemoteWorkers lists cmod daemon base URLs ("http://host:port")
	// to farm backend partitions to (POST /backend). The Jobs-wide
	// local pool and the remote workers pull from one queue; any
	// remote failure falls back to local compilation, so listing an
	// unreachable worker costs time, never correctness. Byte-identical
	// to a purely local build.
	RemoteWorkers []string
	// RemoteTimeout bounds one remote partition attempt (0 =
	// backend.DefaultTimeout). A deadline that fires moves the
	// partition back to the local pool.
	RemoteTimeout time.Duration
	// Context, when non-nil, bounds the build: cancellation (or a
	// deadline) aborts the pipeline at the next per-module or
	// per-function checkpoint and BuildSource returns the context's
	// error. An aborted build releases every NAIM checkout it took —
	// cancellation never leaks pinned pools — but makes no promise
	// about session artifacts written so far (they are keyed by
	// content, so a partial warm-up is simply a smaller head start).
	// nil means the build cannot be cancelled (the historical CLI
	// behavior). The serving layer (internal/serve) sets this from the
	// per-request deadline.
	Context context.Context
}

// BuildStats records what a build did and what it cost. Memory
// figures use the NAIM size model (see internal/naim); times are wall
// clock.
type BuildStats struct {
	Level      Level
	PBO        bool
	Modules    int
	Functions  int
	TotalLines int

	// Selectivity outcome (O4 with a profile).
	TotalSites    int
	SelectedSites int
	CMOModules    int
	CMOFunctions  int // fine-grained selected set
	SelectedLines int

	HLO  hlo.Stats
	NAIM naim.Stats
	// NAIMLevel is the highest NAIM level engaged during the build.
	NAIMLevel naim.Level

	// Incremental-build outcome (builds with a Session / CacheDir).
	// A frontend hit is a module replayed from the repository without
	// parsing or lowering; a miss was lowered from source (and its
	// artifact stored for next time).
	CacheFrontendHits   int
	CacheFrontendMisses int
	// HLO replay hits/misses (per-function records; see hlo.Stats
	// ReplayHits/ReplayMisses for the same figures).
	CacheHLOHits   int
	CacheHLOMisses int
	// LLO object hits/misses (graph-scheduled builds only): a hit is
	// a function whose compiled object was decoded from the
	// repository; a miss was compiled and stored.
	CacheLLOHits   int
	CacheLLOMisses int
	// Remote-cache outcome (builds with Options.RemoteCache, or a
	// session the caller attached a cas.Client to). A hit is a local
	// miss filled from the shared cache; a miss went to the remote and
	// came back empty; stores are artifacts written back; drops are
	// write-backs shed by the bounded backlog or an open breaker;
	// errors count failed requests (each one degraded to a local
	// miss); shed counts requests a service at capacity refused with
	// 429 (misses that never feed the breaker). When one session
	// serves concurrent builds the figures are attributed by
	// before/after snapshots, so overlapping builds may split each
	// other's traffic — totals across builds stay exact.
	CacheRemoteHits   int
	CacheRemoteMisses int
	CacheRemoteStores int
	CacheRemoteDrops  int
	CacheRemoteErrors int
	CacheRemoteShed   int

	// Dependency-graph outcome (graph-scheduled session builds).
	// GraphNodes/GraphEdges snapshot the loaded graph after this
	// build's delta; GraphDirtyClosure is the number of artifacts the
	// edited leaves invalidated (0 on a clean warm rebuild);
	// GraphCriticalPathNanos is the heaviest dependency chain by
	// recorded costs; GraphFrontierDepth is the number of work items
	// the LLO scheduler ordered. GraphImageReplay marks the warm-noop
	// fast path: the whole image was replayed from the repository with
	// zero stage work.
	GraphNodes             int
	GraphEdges             int
	GraphDirtyClosure      int
	GraphCriticalPathNanos int64
	GraphFrontierDepth     int
	GraphImageReplay       bool
	// Partitioned-backend outcome (zero when the build never reached
	// LLO). Partitions is the partition count this build used;
	// PartitionsClean were replayed whole from the repository;
	// PartitionsLocal/PartitionsRemote count dirty partitions by what
	// executed them; PartitionRetries counts remote failures that fell
	// back to local compilation (each such partition is counted local,
	// not remote).
	Partitions       int
	PartitionsClean  int
	PartitionsLocal  int
	PartitionsRemote int
	PartitionRetries int

	// PinLeaks counts loader handles still pinned when the pipeline
	// finished — each one is a checkout some stage never returned
	// (see Loader.UnloadAll). Always zero in a correct build.
	PinLeaks int

	// QueueNanos is the time the request spent waiting for a worker
	// before the build started. It is set by the serving layer
	// (internal/serve) and is always zero for direct in-process builds;
	// it is *not* part of TotalNanos, so server-side latency decomposes
	// as queue wait + build time.
	QueueNanos int64

	FrontendNanos int64
	// SelectNanos is the select stage's share of HLONanos (CMO scope
	// computation plus out-of-scope summarization). It is measured by
	// the "select" span inside the hlo phase, so it is informational:
	// already counted within HLONanos, never added to the phase sum.
	SelectNanos int64
	// IPANanos is the interprocedural MOD/REF summary stage's share
	// of HLONanos (the "ipa" span inside the hlo phase) — like
	// SelectNanos, informational: already counted within HLONanos.
	IPANanos   int64
	HLONanos   int64
	LLONanos   int64
	LinkNanos  int64
	TotalNanos int64
	// VerifyNanos is the total time spent in whole-program
	// verification passes (Options.Verify): the post-frontend,
	// per-HLO-transform, facts-audit, and post-link checks. Passes
	// that run inside a phase (the per-transform checks) also count
	// toward that phase's time; the per-routine checks inside LLO
	// are visible only in LLONanos. Each pass is also an obs "verify"
	// span, so the trace shows where the time went.
	VerifyNanos int64
	// VerifyDiags counts all diagnostics (errors and warnings) the
	// verifier produced across the build.
	VerifyDiags int

	// CodeBytes is the final image code size.
	CodeBytes int64
	// Multi-layer tier sizes (MultiLayer builds only).
	TierHot  int // full CMO+PBO
	TierWarm int // default level
	TierCold int // O1 (never executed in training)

	// LLOPeakBytes models the low-level optimizer's peak working
	// memory: quadratic in the largest routine it compiled (the
	// paper's Figure 4 caption notes exactly this growth).
	LLOPeakBytes int64
	// CompilerPeakBytes approximates the whole compiler process:
	// HLO/NAIM peak plus LLO peak.
	CompilerPeakBytes int64
}

// Build is a completed compilation.
type Build struct {
	Image *vpa.Image
	Prog  *il.Program
	// ProbeMap is non-nil for instrumented builds.
	ProbeMap *profile.Map
	Stats    BuildStats
	// InlineOps is HLO's ordered inline log (O4 builds), the
	// diagnostic trail the paper's sections 6.2-6.3 call for.
	InlineOps []hlo.InlineOp
	// Partitions describes the backend partitions of this build in
	// index order: deterministic fingerprints, membership, and how
	// each was satisfied.
	Partitions []PartitionInfo

	selectedFns map[il.PID]bool
	gp          *graphPlan
	trace       *obs.Trace
}

// Trace returns the trace the build recorded into (nil when tracing
// was not requested).
func (b *Build) Trace() *obs.Trace { return b.trace }

// RunResult is the outcome of executing a build.
type RunResult struct {
	Value  int64
	Stats  vpa.Stats
	Probes []int64
}

// Run executes the image once on a fresh machine with the given
// scalar global inputs.
func (b *Build) Run(inputs map[string]int64, maxSteps int64) (*RunResult, error) {
	m := vpa.NewMachine(b.Image, vpa.DefaultConfig())
	// Deterministic input application order.
	names := make([]string, 0, len(inputs))
	for n := range inputs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := m.SetGlobal(n, inputs[n]); err != nil {
			return nil, err
		}
	}
	v, err := m.Run(nil, maxSteps)
	if err != nil {
		return nil, err
	}
	return &RunResult{Value: v, Stats: m.Stats, Probes: m.Probes}, nil
}

// Train builds an instrumented (+I) version of the program at O2,
// runs it on each training input set, and returns the merged profile
// database (paper section 3: the database is "generated, or added
// to" across runs).
func Train(mods []SourceModule, runs []map[string]int64, opt Options) (*profile.DB, error) {
	opt.Instrument = true
	opt.PBO = false
	opt.DB = nil
	if opt.Level == 0 || opt.Level >= O4 {
		opt.Level = O2
	}
	b, err := BuildSource(mods, opt)
	if err != nil {
		return nil, err
	}
	db := profile.NewDB()
	if len(runs) == 0 {
		runs = []map[string]int64{nil}
	}
	for _, inputs := range runs {
		rr, err := b.Run(inputs, 0)
		if err != nil {
			return nil, fmt.Errorf("cmo: training run: %w", err)
		}
		db.Merge(profile.FromCounters(b.ProbeMap, rr.Probes))
	}
	return db, nil
}
