package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	cmo "cmo"
	"cmo/internal/cas"
	"cmo/internal/naim"
	"cmo/internal/objfile"
	"cmo/internal/obs"
	"cmo/internal/profile"
	"cmo/internal/workload"
)

// buildRequest is what one build process is told: where the generated
// sources are, the options, and where to leave its outputs. The
// process sees only the sources and the profile, never the generator.
type buildRequest struct {
	SrcDir  string   `json:"src_dir"`
	Files   []string `json:"files"`
	Profile string   `json:"profile"`
	Select  float64  `json:"select"`
	Jobs    int      `json:"jobs"`
	// Budget and NAIMDir configure an adaptive NAIM budget (0: off).
	Budget  int64  `json:"budget"`
	NAIMDir string `json:"naim_dir"`
	// CacheDir opens a session over a durable repository; Remote and
	// Namespace add a shared cmod cache as its third level.
	CacheDir  string `json:"cache_dir"`
	Remote    string `json:"remote"`
	Namespace string `json:"namespace"`
	Trace     bool   `json:"trace"`
	Image     string `json:"image"`
	Result    string `json:"result"`
}

// buildResult is what the build process reports back.
type buildResult struct {
	Stats cmo.BuildStats `json:"stats"`
	// Remote is the cas client's final counters, read after Close has
	// drained the write-back backlog (BuildStats stops counting when
	// BuildSource returns, before the drain).
	Remote cas.ClientStats `json:"remote"`
	// Runtime figures from runtime/metrics at the end of the process.
	AllocBytes   uint64  `json:"alloc_bytes"`
	GCCPUSeconds float64 `json:"gc_cpu_seconds"`
	GCCycles     uint64  `json:"gc_cycles"`
	// PeakRSSKB is the process's VmHWM at exit. The kernel's rusage
	// maxrss is no use here: a child started by vfork+exec inherits the
	// parent's high-water mark into it.
	PeakRSSKB int64 `json:"peak_rss_kb"`
	// BuildWallNanos is the process's own clock around BuildSource.
	BuildWallNanos int64 `json:"build_wall_nanos"`
	// Ledger is filled only for traced builds.
	Ledger *spanLedger `json:"ledger,omitempty"`
}

// childMain is the build process: one build, as cmoc would run it.
func childMain(args []string, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: perfbench child request.json")
		return 2
	}
	if err := childBuild(args[0]); err != nil {
		fmt.Fprintf(stderr, "perfbench child: %v\n", err)
		return 1
	}
	return 0
}

func childBuild(reqPath string) error {
	var req buildRequest
	if err := readJSON(reqPath, &req); err != nil {
		return err
	}
	mods := make([]cmo.SourceModule, len(req.Files))
	for i, name := range req.Files {
		text, err := os.ReadFile(filepath.Join(req.SrcDir, name))
		if err != nil {
			return err
		}
		mods[i] = cmo.SourceModule{Name: name, Text: string(text)}
	}
	pf, err := os.Open(req.Profile)
	if err != nil {
		return err
	}
	db, err := profile.Load(pf)
	pf.Close()
	if err != nil {
		return fmt.Errorf("loading the profile: %w", err)
	}

	var tr *obs.Trace
	if req.Trace {
		tr = obs.NewTrace()
	}
	opt := cmo.Options{
		Level: cmo.O4, PBO: true, DB: db,
		SelectPercent: req.Select,
		Volatile:      workload.InputGlobals(),
		Jobs:          req.Jobs,
		Trace:         tr,
	}
	if req.Budget > 0 {
		// ForceLevel must say Adaptive: its zero value pins NAIM off and
		// the budget would be ignored.
		opt.NAIM = naim.Config{BudgetBytes: req.Budget, ForceLevel: naim.Adaptive, Dir: req.NAIMDir}
	}
	var res buildResult
	var sess *cmo.Session
	var rc *cas.Client
	if req.CacheDir != "" {
		sp := tr.StartSpan("session open")
		sess, err = cmo.OpenSession(req.CacheDir)
		sp.End()
		if err != nil {
			return err
		}
		if req.Remote != "" {
			rc = cas.NewClient(req.Remote, cas.ClientConfig{Namespace: req.Namespace})
			sess.AttachRemote(rc)
		}
		opt.Session = sess
	}
	t0 := time.Now()
	b, err := cmo.BuildSource(mods, opt)
	res.BuildWallNanos = time.Since(t0).Nanoseconds()
	if sess != nil {
		// The order BuildSource uses for a session it opens itself:
		// drain the remote write-backs, then commit and close.
		if rc != nil {
			sp := tr.StartSpan("cas drain")
			rc.Close()
			sp.End()
			res.Remote = rc.Stats()
		}
		sp := tr.StartSpan("session close")
		cerr := sess.Close()
		sp.End()
		if err == nil && cerr != nil {
			err = fmt.Errorf("closing the session: %w", cerr)
		}
	}
	if err != nil {
		return err
	}
	res.Stats = b.Stats

	f, err := os.Create(req.Image)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := objfile.EncodeImage(w, b.Image); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	if tr != nil {
		res.Ledger = ledgerOf(tr)
	}
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	res.AllocBytes = sampleUint(samples[0])
	res.GCCPUSeconds = sampleFloat(samples[1])
	res.GCCycles = sampleUint(samples[2])
	if res.PeakRSSKB, err = peakRSSKB(); err != nil {
		return err
	}
	return writeJSON(req.Result, &res)
}

// peakRSSKB reads this process's resident-set high-water mark.
func peakRSSKB() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func sampleUint(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

func sampleFloat(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("decoding %s: %w", filepath.Base(path), err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
