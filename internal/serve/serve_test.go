package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	cmo "cmo"
	"cmo/internal/objfile"
	"cmo/internal/workload"
)

func testSpec(seed int64) workload.Spec {
	return workload.Spec{
		Name: "serve", Seed: seed,
		Modules: 4, HotPerModule: 1, ColdPerModule: 2, ColdStmts: 6,
		ArrayElems: 16,
		TrainIters: 20, RefIters: 50, TrainMode: 2, RefMode: 4,
	}
}

func testModules(spec workload.Spec) []Module {
	var mods []Module
	for _, m := range spec.Generate() {
		mods = append(mods, Module{Name: m.Name + ".minc", Text: m.Text})
	}
	return mods
}

// oneShotImage builds the same program directly through the facade —
// the reference bytes every daemon reply must match.
func oneShotImage(t *testing.T, mods []Module) []byte {
	t.Helper()
	src := make([]cmo.SourceModule, len(mods))
	for i, m := range mods {
		src[i] = cmo.SourceModule{Name: m.Name, Text: m.Text}
	}
	b, err := cmo.BuildSource(src, cmo.Options{
		Level:         cmo.O4,
		SelectPercent: -1,
		Volatile:      workload.InputGlobals(),
	})
	if err != nil {
		t.Fatalf("one-shot build: %v", err)
	}
	var buf bytes.Buffer
	if err := objfile.EncodeImage(&buf, b.Image); err != nil {
		t.Fatalf("encoding one-shot image: %v", err)
	}
	return buf.Bytes()
}

func postBuild(t *testing.T, url string, req BuildRequest) (*BuildResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/build", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /build: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return nil, &http.Response{StatusCode: resp.StatusCode, Header: resp.Header.Clone(),
			Body: http.NoBody, Status: er.Error}
	}
	var br BuildResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return &br, nil
}

// TestDaemonConcurrentBuildsByteIdentical is the tentpole's acceptance
// test: several concurrent builds against one cache directory, every
// reply byte-identical to a one-shot in-process build, and the
// follow-up request fully warm.
func TestDaemonConcurrentBuildsByteIdentical(t *testing.T) {
	spec := testSpec(41)
	mods := testModules(spec)
	want := oneShotImage(t, mods)
	dir := t.TempDir()

	srv := New(Config{MaxBuilds: 2, JobBudget: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	req := BuildRequest{Modules: mods, CacheDir: dir, Jobs: 2,
		Volatile: workload.InputGlobals()}

	const n = 3
	var wg sync.WaitGroup
	replies := make([]*BuildResponse, n)
	errs := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			br, failResp := postBuild(t, ts.URL, req)
			if failResp != nil {
				errs[i] = fmt.Sprintf("status %d: %s", failResp.StatusCode, failResp.Status)
				return
			}
			replies[i] = br
		}(i)
	}
	wg.Wait()

	ids := map[string]bool{}
	for i := 0; i < n; i++ {
		if errs[i] != "" {
			t.Fatalf("request %d failed: %s", i, errs[i])
		}
		if !bytes.Equal(replies[i].Image, want) {
			t.Errorf("request %d image differs from one-shot build (%d vs %d bytes)",
				i, len(replies[i].Image), len(want))
		}
		if replies[i].RequestID == "" {
			t.Errorf("request %d has no request id", i)
		}
		ids[replies[i].RequestID] = true
	}
	if len(ids) != n {
		t.Errorf("request ids not distinct: %v", ids)
	}

	// The follow-up build must be fully warm: the dependency graph the
	// earlier requests persisted sees a clean closure and replays the
	// whole image without any stage work.
	br, failResp := postBuild(t, ts.URL, req)
	if failResp != nil {
		t.Fatalf("warm request failed: status %d: %s", failResp.StatusCode, failResp.Status)
	}
	if !bytes.Equal(br.Image, want) {
		t.Errorf("warm image differs from one-shot build")
	}
	if !br.Stats.GraphImageReplay {
		t.Errorf("warm build did not replay the image (frontend %d hits, %d misses, dirty closure %d)",
			br.Stats.CacheFrontendHits, br.Stats.CacheFrontendMisses, br.Stats.GraphDirtyClosure)
	}
	if br.Stats.CacheFrontendMisses != 0 {
		t.Errorf("warm build lowered %d modules, want 0", br.Stats.CacheFrontendMisses)
	}
	if br.Stats.QueueNanos < 0 {
		t.Errorf("negative queue wait %d", br.Stats.QueueNanos)
	}
	if !strings.Contains(br.Timing, "timing:") {
		t.Errorf("reply timing report missing: %q", br.Timing)
	}
}

// TestDaemonDeadline proves a request deadline aborts the build with a
// gateway-timeout status and leaves the server healthy for later work.
func TestDaemonDeadline(t *testing.T) {
	// A deliberately heavyweight program so the 1ms deadline below is
	// guaranteed to expire mid-build rather than racing completion.
	spec := workload.Spec{
		Name: "deadline", Seed: 43,
		Modules: 24, HotPerModule: 3, ColdPerModule: 8, ColdStmts: 40,
		ArrayElems: 64,
		TrainIters: 20, RefIters: 50, TrainMode: 2, RefMode: 4,
	}
	mods := testModules(spec)

	srv := New(Config{MaxBuilds: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	req := BuildRequest{Modules: mods, TimeoutMillis: 1,
		Volatile: workload.InputGlobals()}
	br, failResp := postBuild(t, ts.URL, req)
	if failResp == nil {
		t.Fatalf("1ms deadline request succeeded (%d image bytes)", len(br.Image))
	}
	if failResp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline status = %d, want %d (%s)",
			failResp.StatusCode, http.StatusGatewayTimeout, failResp.Status)
	}
	if failResp.Header.Get(requestIDHeader) == "" {
		t.Errorf("failure reply carries no request id header")
	}

	// The slot and job tokens must have been released: a normal build
	// right after succeeds.
	ok, failResp := postBuild(t, ts.URL, BuildRequest{Modules: mods,
		Volatile: workload.InputGlobals()})
	if failResp != nil {
		t.Fatalf("build after deadline failed: status %d: %s", failResp.StatusCode, failResp.Status)
	}
	if len(ok.Image) == 0 {
		t.Errorf("build after deadline returned empty image")
	}
}

// TestDaemonDrainCommitsSessions proves drain is durable: artifacts
// written by daemon builds survive into a fresh process-level session.
func TestDaemonDrainCommitsSessions(t *testing.T) {
	spec := testSpec(47)
	mods := testModules(spec)
	dir := t.TempDir()

	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, failResp := postBuild(t, ts.URL, BuildRequest{Modules: mods, CacheDir: dir,
		Volatile: workload.InputGlobals()}); failResp != nil {
		t.Fatalf("build: status %d: %s", failResp.StatusCode, failResp.Status)
	}
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Draining twice is safe, and a drained server refuses work.
	if err := srv.Drain(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	hc, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	hc.Body.Close()
	if hc.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", hc.StatusCode)
	}
	if _, failResp := postBuild(t, ts.URL, BuildRequest{Modules: mods,
		Volatile: workload.InputGlobals()}); failResp == nil ||
		failResp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining server accepted a build")
	}

	// A direct in-process build over the same directory must start
	// warm: the drain committed the repository.
	src := make([]cmo.SourceModule, len(mods))
	for i, m := range mods {
		src[i] = cmo.SourceModule{Name: m.Name, Text: m.Text}
	}
	b, err := cmo.BuildSource(src, cmo.Options{Level: cmo.O4, SelectPercent: -1,
		Volatile: workload.InputGlobals(), CacheDir: dir})
	if err != nil {
		t.Fatalf("post-drain build: %v", err)
	}
	if !b.Stats.GraphImageReplay && b.Stats.CacheFrontendHits != len(mods) {
		t.Errorf("post-drain build was cold: image replay %v, frontend hits = %d, want %d (drain did not commit)",
			b.Stats.GraphImageReplay, b.Stats.CacheFrontendHits, len(mods))
	}
}

// TestDaemonEndpoints covers the small read-only surface.
func TestDaemonEndpoints(t *testing.T) {
	spec := testSpec(53)
	mods := testModules(spec)
	dir := t.TempDir()

	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	if _, failResp := postBuild(t, ts.URL, BuildRequest{Modules: mods, CacheDir: dir,
		Volatile: workload.InputGlobals()}); failResp != nil {
		t.Fatalf("build: status %d: %s", failResp.StatusCode, failResp.Status)
	}

	var st StatusResponse
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	resp.Body.Close()
	if len(st.Sessions) != 1 || st.Sessions[0].Builds != 1 || st.Sessions[0].Commits != 1 {
		t.Errorf("status sessions = %+v, want one with 1 build, 1 commit", st.Sessions)
	}
	if st.Draining {
		t.Errorf("status claims draining")
	}
	if st.Daemon.GoVersion == "" || st.Daemon.Version == "" || st.Daemon.PID == 0 {
		t.Errorf("status daemon info incomplete: %+v", st.Daemon)
	}
	if st.Daemon.UptimeSec < 0 {
		t.Errorf("negative uptime %v", st.Daemon.UptimeSec)
	}

	mResp, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	var metrics struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(mResp.Body).Decode(&metrics); err != nil {
		t.Fatalf("metrics is not JSON: %v", err)
	}
	mResp.Body.Close()
	byName := metrics.Counters
	if byName["serve.completed"] != 1 {
		t.Errorf("serve.completed = %d, want 1", byName["serve.completed"])
	}
	if byName["serve.active_builds"] != 0 {
		t.Errorf("serve.active_builds = %d, want 0 at rest", byName["serve.active_builds"])
	}
	if _, ok := byName["session.frontend_misses"]; !ok {
		t.Errorf("metrics lack the build's session counters: %v", byName)
	}

	// Healthz keeps its first line a bare "ok" for probes, with the
	// identity block after it.
	hResp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var hbuf bytes.Buffer
	_, _ = hbuf.ReadFrom(hResp.Body)
	hResp.Body.Close()
	lines := strings.Split(hbuf.String(), "\n")
	if lines[0] != "ok" {
		t.Errorf("healthz first line = %q, want \"ok\"", lines[0])
	}
	if !strings.Contains(hbuf.String(), "version:") || !strings.Contains(hbuf.String(), "uptime_sec:") {
		t.Errorf("healthz lacks identity block:\n%s", hbuf.String())
	}

	// Remote shutdown request closes the channel the daemon owner
	// waits on (without tearing this test's server down: Drain is the
	// owner's job).
	sResp, err := http.Post(ts.URL+"/shutdown", "application/json", nil)
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	sResp.Body.Close()
	select {
	case <-srv.ShutdownRequested():
	case <-time.After(time.Second):
		t.Errorf("shutdown request did not signal")
	}
}

// TestAdmissionControl exercises the queue bookkeeping without builds.
func TestAdmissionControl(t *testing.T) {
	s := New(Config{MaxBuilds: 1, QueueDepth: -1}) // queue cap 1
	rel1, ok := s.admit()
	if !ok {
		t.Fatalf("first admit refused")
	}
	if _, ok := s.admit(); ok {
		t.Fatalf("admit beyond queue cap accepted")
	}
	rel1()
	rel1() // releasing twice is harmless
	rel2, ok := s.admit()
	if !ok {
		t.Fatalf("admit after release refused")
	}
	rel2()
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, ok := s.admit(); ok {
		t.Fatalf("draining server admitted a request")
	}
}

// TestJobBudgetBoundsBackendPool: the LLO stage's local pool is the
// granted Jobs and nothing else, so a request cannot widen it past the
// daemon's job budget. The "workers" field is not part of the request
// any more; an old client that still sends it builds as if it had not,
// byte-identically, and on a JobBudget-1 daemon no two local partitions
// of its build ever run at once.
func TestJobBudgetBoundsBackendPool(t *testing.T) {
	mods := testModules(testSpec(43))
	want := oneShotImage(t, mods)

	srv := New(Config{MaxBuilds: 1, JobBudget: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	// Marshal the request, then add the retired field by hand.
	body, err := json.Marshal(BuildRequest{Modules: mods, Jobs: 64, Partitions: 64,
		Volatile: workload.InputGlobals()})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	raw["workers"] = 64
	if body, err = json.Marshal(raw); err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(ts.URL+"/build", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /build: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /build: %s", resp.Status)
	}
	var br BuildResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if br.Jobs != 1 {
		t.Errorf("granted %d jobs on a JobBudget-1 daemon, want 1", br.Jobs)
	}
	if !bytes.Equal(br.Image, want) {
		t.Errorf("image differs from a one-shot build (%d vs %d bytes)", len(br.Image), len(want))
	}
	if br.Stats.PartitionsLocal < 2 {
		t.Fatalf("build ran %d local partitions; the overlap check needs at least 2", br.Stats.PartitionsLocal)
	}

	var events []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Args struct {
			Detail string `json:"detail"`
		} `json:"args"`
	}
	if err := json.Unmarshal(scrape(t, ts.URL+"/builds/"+br.RequestID+"/trace"), &events); err != nil {
		t.Fatalf("trace is not a JSON event array: %v", err)
	}
	type span struct{ start, end float64 }
	var local []span
	for _, e := range events {
		if e.Ph == "X" && e.Name == "partition" && strings.Contains(e.Args.Detail, "via local") {
			local = append(local, span{e.Ts, e.Ts + e.Dur})
		}
	}
	if len(local) != br.Stats.PartitionsLocal {
		t.Fatalf("trace holds %d local partition spans, stats count %d", len(local), br.Stats.PartitionsLocal)
	}
	sort.Slice(local, func(i, j int) bool { return local[i].start < local[j].start })
	for i := 1; i < len(local); i++ {
		if local[i].start < local[i-1].end {
			t.Fatalf("local partitions overlap: [%.3f, %.3f) and [%.3f, %.3f) µs",
				local[i-1].start, local[i-1].end, local[i].start, local[i].end)
		}
	}
}

// TestJobBudget exercises the shared worker pool: one guaranteed
// worker per build, extras only while the pool has them.
func TestJobBudget(t *testing.T) {
	s := New(Config{MaxBuilds: 2, JobBudget: 4}) // 2 extra tokens
	j1, rel1 := s.acquireJobs(4)
	if j1 != 3 {
		t.Errorf("first acquire got %d jobs, want 3 (1 + both extras)", j1)
	}
	j2, rel2 := s.acquireJobs(2)
	if j2 != 1 {
		t.Errorf("second acquire got %d jobs, want the guaranteed 1", j2)
	}
	rel1()
	j3, rel3 := s.acquireJobs(2)
	if j3 != 2 {
		t.Errorf("acquire after release got %d jobs, want 2", j3)
	}
	rel2()
	rel3()

	noPool := New(Config{MaxBuilds: 2}) // budget == builds: no extras
	if j, rel := noPool.acquireJobs(8); j != 1 {
		t.Errorf("no-pool acquire got %d jobs, want 1", j)
	} else {
		rel()
	}
}
