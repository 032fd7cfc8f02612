package main

import (
	"runtime"

	"cmo/internal/workload"
)

// cacheMode is what persists between the builds of one round.
type cacheMode int

const (
	// cacheNone: every build is cache-less (no session, no remote).
	cacheNone cacheMode = iota
	// cacheLocal: builds share a durable session directory.
	cacheLocal
	// cacheRemote: each client has its own session directory, and all
	// clients share one namespace of a cmod cache service.
	cacheRemote
)

// stepKind names what a timed build stands for; each kind feeds one
// end-to-end metric.
type stepKind int

const (
	stepScratch stepKind = iota // from-scratch build: build_s
	stepEdit                    // rebuild after a one-module edit: rebuild_edit_s
	stepNoop                    // rebuild with nothing changed: rebuild_noop_s
	stepFill                    // second client, empty local dir: fill_s
)

func (k stepKind) String() string {
	return [...]string{"scratch", "edit", "noop", "fill"}[k]
}

// step is one timed build of a round: which program version, built by
// which client (index into the round's local cache directories).
type step struct {
	kind    stepKind
	version int
	client  int
}

// workloadDef is one workload: the generated program's shape, the
// build options, and the fixed sequence of builds one round makes.
// Rounds are identical, so every run attempts whole rounds of the same
// operations and the failed share does not depend on the run length.
type workloadDef struct {
	name string
	why  string
	// spec is the generator shape; Seed is replaced by the run's seed.
	spec workload.Spec
	// selectPct is Options.SelectPercent (-1: every call site in CMO).
	selectPct float64
	// budget is the NAIM budget in bytes (0: NAIM off).
	budget int64
	cache  cacheMode
	// round is the build sequence; its largest version index fixes how
	// many edited versions the set-up derives.
	round []step
}

// mcad is the Mcad1 shape of cmd/cmogen's preset, with n modules.
func mcad(n int) workload.Spec {
	return workload.Spec{
		Name: "mcad", Modules: n, HotPerModule: 3, ColdPerModule: 14, ColdStmts: 26,
		ArrayElems: 128, TrainIters: 130, RefIters: 400, TrainMode: 2, RefMode: 4,
	}
}

// A cache-less, every-call-site build of mcad(48) (the paper's CMO
// build) is not a workload of its own: edit-loop's first build does
// the same work into an empty cache and produces the same image, and
// three workloads leave each run long enough to be steady (README.md).
var workloads = []workloadDef{
	{
		name:      "selective-budget",
		why:       "the shipped configuration, 10% selectivity under an adaptive 4 MB NAIM budget on a 192-module program; LLO, frontend and NAIM work",
		spec:      mcad(192),
		selectPct: 10,
		budget:    4 << 20,
		cache:     cacheNone,
		round:     []step{{stepScratch, 0, 0}},
	},
	{
		name:      "edit-loop",
		why:       "edit-compile loop over a durable cache dir on an Mcad1-sized program: empty-cache build, then one-module edits and no-change rebuilds",
		spec:      mcad(48),
		selectPct: -1,
		cache:     cacheLocal,
		round: []step{
			{stepScratch, 0, 0},
			{stepEdit, 1, 0}, {stepNoop, 1, 0}, {stepNoop, 1, 0},
			{stepEdit, 2, 0}, {stepNoop, 2, 0}, {stepNoop, 2, 0},
		},
	},
	{
		name:      "remote-fill",
		why:       "two clients share a cmod cache on a 24-module program: A builds remote-cold, B fills from A's namespace, then edits and rebuilds",
		spec:      mcad(24),
		selectPct: -1,
		cache:     cacheRemote,
		round: []step{
			{stepScratch, 0, 0},
			{stepFill, 0, 1},
			{stepEdit, 1, 1}, {stepNoop, 1, 1}, {stepNoop, 1, 1},
			{stepEdit, 2, 1}, {stepNoop, 2, 1}, {stepNoop, 2, 1},
		},
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// versions is how many program versions a round builds (the base
// program plus one per edit).
func (w workloadDef) versions() int {
	n := 0
	for _, s := range w.round {
		n = max(n, s.version+1)
	}
	return n
}

// jobs is Options.Jobs for every build: parallel, but never more
// workers than the machine has cores.
func jobs() int { return min(2, runtime.NumCPU()) }
