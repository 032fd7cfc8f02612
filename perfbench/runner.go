package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cmo/internal/obs"
)

// runner runs one workload: set-up, then whole rounds of timed builds
// until the measurement time is used, then the metrics.
type runner struct {
	def     workloadDef
	seed    int64
	measure time.Duration
	traced  bool
	outDir  string
	// exe is the command that runs one build process; the request file
	// is appended.
	exe  []string
	cmod string
	log  io.Writer

	// fault, when non-nil, corrupts what one build reported (its
	// result, its image, or the answers it is checked against) before
	// the checks run. Tests use it to show that every check can fail.
	fault func(res *buildResult, img []byte, want *answers)

	tr   *obs.Trace
	runs map[[32]byte]imageRun
}

// buildOutcome is one timed build and its verdict.
type buildOutcome struct {
	step  step
	usage procUsage
	res   buildResult
	// reported is set once the build process returned its result.
	reported bool
	run      imageRun
	// err is set when the build failed or an output failed a check.
	err error
}

type roundOutcome struct {
	builds []buildOutcome
	// proxy is the round's CAS traffic (traced remote runs only).
	proxy proxyStats
}

// result is the benchmark's one-line JSON report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runner) run(ctx context.Context) (*result, error) {
	r.tr = obs.NewTrace()
	tmp := filepath.Join(r.outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(tmp, r.def.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	set, err := r.setup(ctx, work)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var remote string
	var d *daemon
	var px *proxy
	if r.def.cache == cacheRemote {
		if d, err = startDaemon(ctx, r.cmod, filepath.Join(work, "cas"), r.log); err != nil {
			return nil, fmt.Errorf("starting cmod: %w", err)
		}
		defer d.stop()
		remote = d.url
		if r.traced {
			if px, err = startProxy(d.url); err != nil {
				return nil, fmt.Errorf("starting the CAS proxy: %w", err)
			}
			defer px.stop()
			remote = px.url
		}
	}
	setupS := time.Since(processStart).Seconds()
	setupSpans := selfTimes(r.tr.Spans())

	start := time.Now()
	var rounds []roundOutcome
	for i := 0; i == 0 || time.Since(start) < r.measure; i++ {
		var before proxyStats
		if px != nil {
			before = px.stats()
		}
		rd, err := r.round(ctx, set, work, i, remote)
		if err != nil {
			return nil, err
		}
		if px != nil {
			rd.proxy = px.stats().sub(before)
		}
		rounds = append(rounds, rd)
	}

	res := &result{}
	for _, rd := range rounds {
		for _, b := range rd.builds {
			res.Attempted++
			if b.err != nil {
				res.Failed++
				fmt.Fprintf(r.log, "perfbench: %s build failed: %v\n", b.step.kind, b.err)
			}
		}
	}
	if r.traced {
		res.Metrics = perLayer(rounds, setupSpans)
		if px != nil {
			// The CAS cross-check is one more operation of the traced run.
			res.Attempted++
			if err := r.crossCheck(rounds, px.stats(), d); err != nil {
				res.Failed++
				fmt.Fprintf(r.log, "perfbench: CAS counts disagree: %v\n", err)
			}
		}
		if err := r.writeLedger(res, len(rounds), setupS); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = endToEnd(rounds, setupS)
	}
	res.Correct = res.Failed == 0
	r.summary(res, rounds)
	return res, nil
}

// round runs one round's builds in a fresh directory, removed after.
func (r *runner) round(ctx context.Context, set *programSet, work string, idx int, remote string) (roundOutcome, error) {
	var rd roundOutcome
	dir, err := os.MkdirTemp(work, fmt.Sprintf("round%d-", idx))
	if err != nil {
		return rd, err
	}
	defer os.RemoveAll(dir)
	for k, st := range r.def.round {
		b := r.build(ctx, set, dir, fmt.Sprintf("r%d", idx), k, st, remote)
		if err := ctx.Err(); err != nil {
			return rd, err
		}
		rd.builds = append(rd.builds, b)
	}
	return rd, nil
}

// build runs one timed build process and checks what it produced.
func (r *runner) build(ctx context.Context, set *programSet, dir, ns string, k int, st step, remote string) buildOutcome {
	v := set.versions[st.version]
	b := buildOutcome{step: st}
	file := func(suffix string) string { return filepath.Join(dir, fmt.Sprintf("b%d.%s", k, suffix)) }
	req := buildRequest{
		SrcDir: v.dir, Files: v.files, Profile: set.profile,
		Select: r.def.selectPct, Jobs: jobs(), Budget: r.def.budget,
		Trace: r.traced, Image: file("vx"), Result: file("json"),
	}
	if r.def.budget > 0 {
		req.NAIMDir = file("naim")
		if b.err = os.Mkdir(req.NAIMDir, 0o755); b.err != nil {
			return b
		}
		defer os.RemoveAll(req.NAIMDir)
	}
	if r.def.cache != cacheNone {
		req.CacheDir = filepath.Join(dir, fmt.Sprintf("client%d", st.client))
	}
	if r.def.cache == cacheRemote {
		req.Remote, req.Namespace = remote, ns
	}
	if b.err = writeJSON(file("req"), &req); b.err != nil {
		return b
	}
	b.usage, b.err = runProcess(ctx, append(append([]string(nil), r.exe...), file("req")), r.log)
	if b.err != nil {
		b.err = fmt.Errorf("build process: %w", b.err)
		return b
	}
	if b.err = readJSON(req.Result, &b.res); b.err != nil {
		return b
	}
	b.reported = true
	img, err := os.ReadFile(req.Image)
	if err != nil {
		b.err = err
		return b
	}
	want := v.oracle
	if r.fault != nil {
		r.fault(&b.res, img, &want)
	}
	b.err = r.check(&b, v, img, want)
	return b
}

// check verifies one build's outputs: no leaked pins, a budget that
// engaged, an image byte-identical to the cache-less unbudgeted build
// of the same sources (the paper's section 6.2 claim), and answers
// equal to the oracle's on both input sets.
func (r *runner) check(b *buildOutcome, v *version, img []byte, want answers) error {
	st := &b.res.Stats
	if st.PinLeaks != 0 {
		return fmt.Errorf("%d NAIM pins leaked", st.PinLeaks)
	}
	if r.def.budget > 0 && !st.GraphImageReplay && !budgetEngaged(st) {
		return fmt.Errorf("the %d-byte NAIM budget did not engage", r.def.budget)
	}
	if !bytes.Equal(img, v.image) {
		return fmt.Errorf("image differs from the cache-less build at byte %d", firstDiff(img, v.image))
	}
	run, err := r.runImage(img)
	if err != nil {
		return fmt.Errorf("running the image: %w", err)
	}
	b.run = run
	if run.got != want {
		return fmt.Errorf("image answers %+v, the oracle %+v", run.got, want)
	}
	if l := b.res.Ledger; l != nil && l.BuildNanos > b.res.BuildWallNanos {
		return fmt.Errorf("traced build span (%d ns) is longer than the wall clock around the call (%d ns)",
			l.BuildNanos, b.res.BuildWallNanos)
	}
	return nil
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// endToEnd computes the end-to-end metrics from the successful builds.
// A workload whose rounds have no step of some kind (no edit, no
// no-change rebuild, no second client) reports its from-scratch
// samples under that name: with its cache set-up, that step is a
// from-scratch build.
func endToEnd(rounds []roundOutcome, setupS float64) map[string]metric {
	walls := make(map[stepKind][]float64)
	rss := make(map[stepKind][]float64)
	var alloc, cpu, cycles, code []float64
	for _, rd := range rounds {
		for _, b := range rd.builds {
			if b.err != nil {
				continue
			}
			walls[b.step.kind] = append(walls[b.step.kind], b.usage.wall.Seconds())
			rss[b.step.kind] = append(rss[b.step.kind], float64(b.res.PeakRSSKB)/1024)
			if b.step.kind == stepScratch {
				alloc = append(alloc, float64(b.res.AllocBytes)/mb)
				cpu = append(cpu, b.usage.cpu.Seconds())
				cycles = append(cycles, float64(b.run.refCycles)/1e6)
				code = append(code, float64(b.res.Stats.CodeBytes)/1024)
			}
		}
	}
	// The peak RSS of the heaviest kind of build, as the median over
	// rounds: the maximum of single processes moves with GC timing.
	var peak float64
	for _, xs := range rss {
		peak = max(peak, median(xs))
	}
	kind := func(k stepKind) float64 {
		if len(walls[k]) > 0 {
			return median(walls[k])
		}
		return median(walls[stepScratch])
	}
	return map[string]metric{
		"setup_s":        {setupS, "s"},
		"build_s":        {median(walls[stepScratch]), "s"},
		"rebuild_edit_s": {kind(stepEdit), "s"},
		"rebuild_noop_s": {kind(stepNoop), "s"},
		"fill_s":         {kind(stepFill), "s"},
		"peak_rss_mb":    {peak, "MB"},
		"alloc_mb":       {median(alloc), "MB"},
		"cpu_s":          {median(cpu), "s"},
		"sim_mcycles":    {median(cycles), "Mcycles"},
		"code_kb":        {median(code), "KB"},
	}
}

// crossCheck compares three independent counts of the traced run's
// CAS traffic: the proxy's, the clients' (BuildStats for lookups, the
// drained client for stores) and the daemon's cmod_cas_* series.
func (r *runner) crossCheck(rounds []roundOutcome, p proxyStats, d *daemon) error {
	var hits, misses, stores int64
	for _, rd := range rounds {
		for _, b := range rd.builds {
			if b.reported {
				hits += int64(b.res.Stats.CacheRemoteHits)
				misses += int64(b.res.Stats.CacheRemoteMisses)
				stores += b.res.Remote.Stores
			}
		}
	}
	dc, err := d.casCounters()
	if err != nil {
		return err
	}
	var errs []error
	agree := func(what string, a, b int64) {
		if a != b {
			errs = append(errs, fmt.Errorf("%s: %d vs %d", what, a, b))
		}
	}
	agree("GET hits, proxy vs client", p.GetHits, hits)
	agree("GET hits, proxy vs cmod", p.GetHits, int64(dc["cmod_cas_hits_total"]))
	agree("GET misses, proxy vs client", p.GetMisses, misses)
	agree("GET+HEAD misses, proxy vs cmod", p.GetMisses+p.HeadMisses, int64(dc["cmod_cas_misses_total"]))
	agree("PUTs stored, proxy vs client", p.PutsCreated+p.PutsOK, stores)
	agree("PUTs created, proxy vs cmod", p.PutsCreated, int64(dc["cmod_cas_puts_total"]))
	return errors.Join(errs...)
}

// writeLedger writes the traced run's per-layer metrics to
// <out>/ledger-<workload>.json.
func (r *runner) writeLedger(res *result, rounds int, setupS float64) error {
	rec := struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Rounds   int               `json:"rounds"`
		SetupS   float64           `json:"setup_s"`
		Metrics  map[string]metric `json:"metrics"`
	}{r.def.name, r.seed, rounds, setupS, res.Metrics}
	return writeJSON(filepath.Join(r.outDir, "ledger-"+r.def.name+".json"), &rec)
}

// summary prints the build times and the metrics readably to the log.
func (r *runner) summary(res *result, rounds []roundOutcome) {
	fmt.Fprintf(r.log, "perfbench: %s seed %d: %d rounds, %d operations, %d failed\n",
		r.def.name, r.seed, len(rounds), res.Attempted, res.Failed)
	walls := make(map[stepKind][]string)
	for _, rd := range rounds {
		for _, b := range rd.builds {
			if b.err == nil {
				walls[b.step.kind] = append(walls[b.step.kind],
					fmt.Sprintf("%.3fs/%.0fMB", b.usage.wall.Seconds(), float64(b.res.PeakRSSKB)/1024))
			}
		}
	}
	for k := stepScratch; k <= stepFill; k++ {
		if w := walls[k]; len(w) > 0 {
			fmt.Fprintf(r.log, "  %-8s builds %s\n", k, strings.Join(w, " "))
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(r.log, "  %-26s %12.4f %s\n", n, m.Value, m.Unit)
	}
}
