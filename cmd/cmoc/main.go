// Command cmoc is the MinC compiler driver.
//
// Object mode (one source file — the classic separate-compilation
// flow) compiles a module to a relocatable object file:
//
//	cmoc [-O level] [-o out.o] file.minc
//
// Levels: 1 = basic blocks only; 2 = full intraprocedural (default);
// 3 = interprocedural within the module (HLO in the compiler);
// 4 = embed IL for link-time cross-module optimization.
//
// At -O4 the object additionally embeds the module's IL in
// relocatable (NAIM) form, making it eligible for cross-module
// optimization when the linker sees it — the paper's "frontends dump
// the IL directly to object files" flow (section 3). The object also
// always carries ordinary machine code, so -O4 objects still link
// fine without CMO.
//
// Driver mode (more than one source file, or any of -trace/-timing)
// runs the whole pipeline — frontend, HLO, LLO, link — in one process
// and writes an executable VPA image:
//
//	cmoc [-O level] [-trace out.json] [-timing] [-budget n] [-naim cfg]
//	     [-j jobs] [-cache-dir dir] [-o out.vx] a.minc b.minc ...
//
// Driver mode defaults to -O4 (multi-module compilation is exactly the
// cross-module scenario). -trace captures the build as Chrome
// trace-event JSON, loadable in chrome://tracing or
// https://ui.perfetto.dev; -timing prints the phase timing report to
// stderr. Tracing never changes the build it traces: the NAIM loader
// runs exactly as -budget and -naim configure it, so a small program
// traced with the defaults shows little loader activity. Pass
// -naim ir with a small -budget (say 4096) to watch compactions and
// expansions; generated code is identical either way (NAIM affects
// memory, never output).
//
// -cache-dir names a durable build repository: rebuilds replay the
// frontend for unchanged modules and HLO records for functions whose
// inputs are unchanged. A warm rebuild writes the same image bytes a
// cold one would — the cache changes build time, never output.
//
// -remote-cache names a shared CAS service (a cmod daemon started
// with -cas-dir) and makes the -cache-dir session three-level: local
// misses fill from the remote cache and stored artifacts write back
// asynchronously, so a machine that never built a module still gets
// warm-build speed from blobs the fleet already computed.
// -remote-namespace isolates tenants sharing one service. The remote
// is advisory: an unreachable, evicting, or dying cache service costs
// time, never bytes — images are identical with it on, off, or gone.
//
// Server mode (-server addr) sends the build to a running cmod daemon
// instead of compiling in-process:
//
//	cmoc -server 127.0.0.1:7777 [-O level] [-j jobs] [-cache-dir dir]
//	     [-timing] [-o out.vx] a.minc b.minc ...
//
// The daemon holds build sessions open across requests, so repeated
// builds against the same -cache-dir warm each other without paying a
// session open/commit per invocation. -cache-dir here names a
// directory on the *daemon's* filesystem. The image written is
// byte-identical to what the in-process driver would produce.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"

	cmo "cmo"
	"cmo/internal/naim"
	"cmo/internal/objfile"
	"cmo/internal/obs"
	"cmo/internal/serve"
)

func main() {
	level := flag.Int("O", 2, "optimization level 1..4 (driver mode defaults to 4)")
	out := flag.String("o", "", "output file (default: source name with .o, or a.vx in driver mode)")
	tracePath := flag.String("trace", "", "driver mode: write a Chrome trace-event JSON file")
	timing := flag.Bool("timing", false, "driver mode: print the phase timing report to stderr")
	budget := flag.Int64("budget", 0, "driver mode: NAIM memory budget in modeled bytes (0 = unlimited)")
	naimLevel := flag.String("naim", "", "driver mode: pin the NAIM level (off|ir|st|disk|adaptive)")
	jobs := flag.Int("j", 1, "driver mode: parallel frontend/codegen jobs (output is identical)")
	cacheDir := flag.String("cache-dir", "", "driver mode: durable build repository for incremental rebuilds (warm builds are byte-identical)")
	server := flag.String("server", "", "send the build to a cmod daemon at this address instead of compiling in-process")
	partitions := flag.Int("partitions", 0, "driver mode: backend partition count (0 = size-based default; output is identical)")
	remoteWorkers := flag.String("remote-workers", "", "driver mode: comma-separated cmod daemon URLs to farm backend partitions to (failures fall back locally; output is identical)")
	remoteCache := flag.String("remote-cache", "", "driver mode: shared CAS service URL (cmod -cas-dir) to fill -cache-dir misses from (failures degrade to local-only; output is identical)")
	remoteNamespace := flag.String("remote-namespace", "", "tenant namespace for -remote-cache requests (default \"default\")")
	remoteToken := flag.String("remote-cache-token", "", "bearer token for -remote-cache requests (services started with cmod -cas-token)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cmoc [-O level] [-o out.o] file.minc\n")
		fmt.Fprintf(os.Stderr, "       cmoc [-O level] [-trace out.json] [-timing] [-o out.vx] a.minc b.minc ...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	levelSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "O" {
			levelSet = true
		}
	})
	if *level < 1 || *level > 4 {
		fatalf("invalid -O %d (want 1..4)", *level)
	}

	be := backendFlags{partitions: *partitions}
	if *remoteWorkers != "" {
		for _, addr := range strings.Split(*remoteWorkers, ",") {
			if addr = strings.TrimSpace(addr); addr == "" {
				continue
			}
			if !strings.Contains(addr, "://") {
				addr = "http://" + addr
			}
			be.remote = append(be.remote, addr)
		}
	}
	rc := remoteCacheFlags{namespace: *remoteNamespace, token: *remoteToken}
	if *remoteCache != "" {
		if *cacheDir == "" {
			fatalf("-remote-cache requires -cache-dir (the remote fills the local repository)")
		}
		rc.url = *remoteCache
		if !strings.Contains(rc.url, "://") {
			rc.url = "http://" + rc.url
		}
	}

	if *server != "" {
		if !levelSet {
			*level = 4
		}
		if rc.url != "" {
			fatalf("-remote-cache is a driver-mode flag (a cmod daemon attaches its own cache; see cmod -cas-dir)")
		}
		runRemote(*server, flag.Args(), *level, *out, *timing, *jobs, *cacheDir, be)
		return
	}

	driver := flag.NArg() > 1 || *tracePath != "" || *timing || *cacheDir != "" ||
		be.partitions != 0 || len(be.remote) > 0
	if driver {
		if !levelSet {
			*level = 4
		}
		runDriver(flag.Args(), *level, *out, *tracePath, *timing, *budget, *naimLevel, *jobs, *cacheDir, be, rc)
		return
	}

	// Object mode: one module, one relocatable object.
	src := flag.Arg(0)
	text, err := os.ReadFile(src)
	if err != nil {
		fatalf("%v", err)
	}
	lloLevel := 2
	if *level == 1 {
		lloLevel = 1
	}
	obj, err := objfile.CompileSource(src, string(text), lloLevel, *level >= 4, *level == 3)
	if err != nil {
		fatalf("%v", err)
	}
	dst := *out
	if dst == "" {
		dst = strings.TrimSuffix(src, ".minc") + ".o"
	}
	f, err := os.Create(dst)
	if err != nil {
		fatalf("%v", err)
	}
	if err := obj.Encode(f); err != nil {
		f.Close()
		fatalf("writing %s: %v", dst, err)
	}
	if err := f.Close(); err != nil {
		fatalf("writing %s: %v", dst, err)
	}
}

// backendFlags carries the partitioned-backend knobs; none of them
// change output bytes, only how the LLO stage is executed.
type backendFlags struct {
	partitions int
	remote     []string
}

// remoteCacheFlags carries the shared-cache knobs; like the backend
// knobs they change build time only, never output bytes.
type remoteCacheFlags struct {
	url       string
	namespace string
	token     string
}

// runDriver compiles and links a whole program in one process.
func runDriver(paths []string, level int, out, tracePath string, timing bool, budget int64, naimLevel string, jobs int, cacheDir string, be backendFlags, rc remoteCacheFlags) {
	var mods []cmo.SourceModule
	for _, path := range paths {
		text, err := os.ReadFile(path)
		if err != nil {
			fatalf("%v", err)
		}
		mods = append(mods, cmo.SourceModule{Name: path, Text: string(text)})
	}

	ncfg := naim.Config{BudgetBytes: budget, ForceLevel: naim.Adaptive}
	switch naimLevel {
	case "", "adaptive":
	case "off":
		ncfg.ForceLevel = naim.LevelOff
	case "ir":
		ncfg.ForceLevel = naim.LevelIR
	case "st":
		ncfg.ForceLevel = naim.LevelST
	case "disk":
		ncfg.ForceLevel = naim.LevelDisk
	default:
		fatalf("invalid -naim %q (want off|ir|st|disk|adaptive)", naimLevel)
	}
	var tr *obs.Trace
	if tracePath != "" || timing {
		tr = obs.NewTrace()
	}

	opt := cmo.Options{
		Level:         cmo.Level(level),
		SelectPercent: -1,
		NAIM:          ncfg,
		Jobs:          jobs,
		Partitions:    be.partitions,
		RemoteWorkers: be.remote,
		Trace:         tr,
		CacheDir:      cacheDir,
	}
	if rc.url != "" {
		opt.RemoteCache = rc.url
		opt.RemoteNamespace = rc.namespace
		opt.RemoteCacheToken = rc.token
	}
	b, err := cmo.BuildSource(mods, opt)
	if err != nil {
		fatalf("%v", err)
	}
	// A pin leak means some pipeline stage kept a loader checkout past
	// the end of the build — a lifecycle bug, not a user error, and one
	// that must not pass silently in scripted builds.
	if b.Stats.PinLeaks > 0 {
		fatalf("internal: %d NAIM pools still pinned after the pipeline finished", b.Stats.PinLeaks)
	}

	dst := out
	if dst == "" {
		dst = "a.vx"
	}
	f, err := os.Create(dst)
	if err != nil {
		fatalf("%v", err)
	}
	if err := objfile.EncodeImage(f, b.Image); err != nil {
		f.Close()
		fatalf("writing %s: %v", dst, err)
	}
	if err := f.Close(); err != nil {
		fatalf("writing %s: %v", dst, err)
	}

	if tracePath != "" {
		tf, err := os.Create(tracePath)
		if err != nil {
			fatalf("%v", err)
		}
		if err := tr.WriteChromeTrace(tf); err != nil {
			tf.Close()
			fatalf("writing %s: %v", tracePath, err)
		}
		if err := tf.Close(); err != nil {
			fatalf("writing %s: %v", tracePath, err)
		}
	}
	if timing {
		fmt.Fprint(os.Stderr, b.TimingReport())
	}
}

// runRemote is server mode: ship the sources to a cmod daemon and
// write the image it returns. The daemon compiles with the same
// pipeline this binary embeds, so the output bytes are identical.
func runRemote(addr string, paths []string, level int, out string, timing bool, jobs int, cacheDir string, be backendFlags) {
	req := serve.BuildRequest{
		Level: level, Jobs: jobs, CacheDir: cacheDir,
		Partitions: be.partitions, RemoteWorkers: be.remote,
	}
	for _, path := range paths {
		text, err := os.ReadFile(path)
		if err != nil {
			fatalf("%v", err)
		}
		req.Modules = append(req.Modules, serve.Module{Name: path, Text: string(text)})
	}
	body, err := json.Marshal(req)
	if err != nil {
		fatalf("%v", err)
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	resp, err := http.Post(addr+"/build", "application/json", bytes.NewReader(body))
	if err != nil {
		fatalf("contacting daemon: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er struct {
			Error string `json:"error"`
		}
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&er) == nil && er.Error != "" {
			msg = er.Error
		}
		fatalf("daemon: %s", msg)
	}
	var br serve.BuildResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		fatalf("decoding daemon response: %v", err)
	}

	dst := out
	if dst == "" {
		dst = "a.vx"
	}
	if err := os.WriteFile(dst, br.Image, 0o644); err != nil {
		fatalf("%v", err)
	}
	if timing {
		fmt.Fprint(os.Stderr, br.Timing)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cmoc: "+format+"\n", args...)
	os.Exit(1)
}
