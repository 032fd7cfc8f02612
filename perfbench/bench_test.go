package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"cmo/internal/cas"
	"cmo/internal/naim"
	"cmo/internal/obs"
	"cmo/internal/workload"
)

// The test binary doubles as the build process (the runner re-executes
// it with "child" as its first argument) and, with stubbornEnv set, as
// a process that ignores SIGTERM: a sleeper, or a daemon answering
// /healthz on the -addr it is given.
func TestMain(m *testing.M) {
	if os.Getenv(stubbornEnv) != "" {
		signal.Ignore(syscall.SIGTERM)
		if len(os.Args) > 2 && os.Args[1] == "-addr" {
			http.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ok") })
			_ = http.ListenAndServe(os.Args[2], nil)
		}
		time.Sleep(time.Minute)
		os.Exit(0)
	}
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:], os.Stderr))
	}
	os.Exit(m.Run())
}

const stubbornEnv = "PERFBENCH_TEST_IGNORE_SIGTERM"

// A build process that ignores SIGTERM is killed after the grace
// period, and runProcess returns only once it has been reaped.
func TestRunProcessKillsStubbornChild(t *testing.T) {
	t.Setenv(stubbornEnv, "1")
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := runProcess(ctx, []string{os.Args[0]}, io.Discard)
	if err == nil {
		t.Fatal("a cancelled process reported success")
	}
	if d := time.Since(t0); d < termGrace || d > termGrace+10*time.Second {
		t.Errorf("returned after %v, want about %v (SIGTERM ignored, then SIGKILL)", d, termGrace)
	}
}

// stop kills a daemon that does not drain on SIGTERM and waits for it.
func TestDaemonStopKillsStubbornDaemon(t *testing.T) {
	t.Setenv(stubbornEnv, "1")
	d, err := startDaemon(context.Background(), os.Args[0], t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	d.stop()
	select {
	case <-d.done:
	default:
		t.Fatal("stop returned before the daemon exited")
	}
	if st := d.cmd.ProcessState; st == nil || st.Success() {
		t.Errorf("daemon state %v, want killed", st)
	}
}

// tiny is a small session workload: a build into an empty cache, an
// edit and a no-change rebuild.
func tiny(budget int64) workloadDef {
	return workloadDef{
		name: "tiny",
		spec: workload.Spec{
			Name: "tiny", Modules: 4, HotPerModule: 2, ColdPerModule: 4, ColdStmts: 10,
			TrainIters: 30, RefIters: 90, TrainMode: 2, RefMode: 4,
		},
		selectPct: -1,
		budget:    budget,
		cache:     cacheLocal,
		round:     []step{{stepScratch, 0, 0}, {stepEdit, 1, 0}, {stepNoop, 1, 0}},
	}
}

func tinyRunner(t *testing.T, def workloadDef, traced bool) *runner {
	t.Helper()
	return &runner{
		def: def, seed: 7, traced: traced,
		outDir: t.TempDir(),
		exe:    []string{os.Args[0], "child"},
		log:    io.Discard,
	}
}

// leftovers lists what a run left in its temporary directory.
func leftovers(t *testing.T, r *runner) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(r.outDir, "tmp"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestCleanRunPasses(t *testing.T) {
	r := tinyRunner(t, tiny(0), false)
	res, err := r.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 3 {
		t.Fatalf("clean run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, name := range []string{"setup_s", "build_s", "rebuild_edit_s", "rebuild_noop_s", "fill_s",
		"peak_rss_mb", "alloc_mb", "cpu_s", "sim_mcycles", "code_kb"} {
		if m, ok := res.Metrics[name]; !ok || m.Value <= 0 || m.Unit == "" {
			t.Errorf("metric %s = %+v, want a positive value with a unit", name, m)
		}
	}
	if left := leftovers(t, r); len(left) != 0 {
		t.Errorf("run left %v behind", left)
	}
}

// Each check must be able to fail: a corrupted report makes the run
// count every build it touched as failed.
func TestChecksCanFail(t *testing.T) {
	// A cache-less budgeted build: a no-change session rebuild replays
	// the whole image and has no budget to engage.
	budgeted := tiny(16 << 10)
	budgeted.cache = cacheNone
	budgeted.round = []step{{stepScratch, 0, 0}}
	cases := []struct {
		name  string
		def   workloadDef
		fault func(res *buildResult, img []byte, want *answers)
		msg   string
	}{
		{"wrong oracle", tiny(0), func(_ *buildResult, _ []byte, want *answers) { want.Ref++ }, "oracle"},
		{"flipped image byte", tiny(0), func(_ *buildResult, img []byte, _ *answers) { img[len(img)/2] ^= 1 }, "image differs"},
		{"pin leak", tiny(0), func(res *buildResult, _ []byte, _ *answers) { res.Stats.PinLeaks = 1 }, "pins leaked"},
		{"budget ignored", budgeted, func(res *buildResult, _ []byte, _ *answers) { res.Stats.NAIMLevel = naim.LevelOff }, "did not engage"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := tinyRunner(t, tc.def, false)
			var log strings.Builder
			r.log = &log
			r.fault = tc.fault
			res, err := r.run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed != res.Attempted {
				t.Fatalf("correct=%v attempted=%d failed=%d, want every build failed", res.Correct, res.Attempted, res.Failed)
			}
			if !strings.Contains(log.String(), tc.msg) {
				t.Errorf("log does not name the failed check %q:\n%s", tc.msg, log.String())
			}
			if left := leftovers(t, r); len(left) != 0 {
				t.Errorf("failed run left %v behind", left)
			}
		})
	}
}

// A budgeted traced run reports every per-layer metric and shows the
// loader working.
func TestTracedRunReportsLayers(t *testing.T) {
	r := tinyRunner(t, tiny(16<<10), true)
	var log strings.Builder
	r.log = &log
	res, err := r.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run failed:\n%s", log.String())
	}
	var want []string
	for _, l := range buildLayers {
		want = append(want, l.name)
	}
	for _, l := range proxyLayers {
		want = append(want, l.name)
	}
	for _, l := range setupLayers {
		want = append(want, l.name)
	}
	want = append(want, "trace.build_s")
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, name := range want {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("missing per-layer metric %s", name)
		}
	}
	for _, name := range []string{"naim.compactions", "hlo.replay_hits", "frontend.parse_s", "profile.train_s", "trace.build_s"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	if _, err := os.Stat(filepath.Join(r.outDir, "ledger-tiny.json")); err != nil {
		t.Errorf("ledger file: %v", err)
	}
}

// A cancelled run stops its build process, removes its directories and
// reports an error instead of a result.
func TestCancelledRunCleansUp(t *testing.T) {
	r := tinyRunner(t, tiny(0), false)
	r.measure = time.Minute
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	r.fault = func(*buildResult, []byte, *answers) {
		if n++; n == 2 {
			cancel()
		}
	}
	if _, err := r.run(ctx); err == nil {
		t.Fatal("cancelled run returned a result")
	}
	if left := leftovers(t, r); len(left) != 0 {
		t.Errorf("cancelled run left %v behind", left)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []obs.SpanRecord{
		{ID: 1, Name: "build", Start: 0, Dur: 100},
		{ID: 2, Parent: 1, Name: "frontend", Start: 10, Dur: 20},
		{ID: 3, Parent: 1, Name: "hlo", Start: 30, Dur: 50},
		{ID: 4, Parent: 3, Name: "scan", Start: 30, Dur: 10},
		// Two concurrent children: their union [40,75) counts once.
		{ID: 5, Parent: 3, Name: "codegen", Start: 40, Dur: 30},
		{ID: 6, Parent: 3, Name: "codegen", Start: 50, Dur: 25},
		{ID: 7, Name: "session open", Start: 200, Dur: 7},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"build":        100 - 20 - 50,
		"frontend":     20,
		"hlo":          50 - 10 - 35,
		"scan":         10,
		"codegen":      30 + 25,
		"session open": 7,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d names, want %d: %v", len(got), len(want), got)
	}
}

func TestEditConstant(t *testing.T) {
	src := "module m_m3;\nvar g3 int = 41;\nvar acc3 int;\n"
	got, ok := editConstant(src, 3, 5)
	if !ok || got != "module m_m3;\nvar g3 int = 46;\nvar acc3 int;\n" {
		t.Fatalf("editConstant = %q, %v", got, ok)
	}
	if _, ok := editConstant(src, 4, 5); ok {
		t.Fatal("edited a constant the module does not define")
	}
}

// The proxy's counts must agree with what the cas client saw.
func TestProxyCounts(t *testing.T) {
	store, err := cas.OpenStore(t.TempDir(), cas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cas.Handler(store))
	defer srv.Close()
	px, err := startProxy(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer px.stop()

	key := strings.Repeat("ab", 32)
	c := cas.NewClient(px.url, cas.ClientConfig{Namespace: "t"})
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on an empty store")
	}
	c.PutAsync(key, []byte("payload"))
	c.Close()
	if b, ok := c.Get(key); !ok || string(b) != "payload" {
		t.Fatalf("Get after store = %q, %v", b, ok)
	}
	cs, ps := c.Stats(), px.stats()
	if ps.GetHits != cs.Hits || ps.GetMisses != cs.Misses || ps.PutsCreated != cs.Stores {
		t.Errorf("proxy %+v disagrees with client %+v", ps, cs)
	}
	if ps.Gets != 2 || ps.Heads != 1 || ps.Puts != 1 || ps.HeadMisses != 1 {
		t.Errorf("proxy counted %+v, want 2 GETs, 1 HEAD miss, 1 PUT", ps)
	}
	if ps.BytesStored == 0 || ps.BytesFetched == 0 {
		t.Errorf("proxy counted no bytes: %+v", ps)
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the
// benchmark prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d defined", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	same := func(kind string, listed []struct{ Name, Unit string }, printed map[string]metric) {
		if len(listed) != len(printed) {
			t.Errorf("%s: %d listed, %d printed", kind, len(listed), len(printed))
		}
		for _, m := range listed {
			if p, ok := printed[m.Name]; !ok || p.Unit != m.Unit {
				t.Errorf("%s metric %s (%s): printed as %+v", kind, m.Name, m.Unit, p)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd(nil, 1))
	same("per_layer", spec.PerLayer, perLayer(nil, nil))
}
