package cmo_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	cmo "cmo"
	"cmo/internal/objfile"
	"cmo/internal/serve"
	"cmo/internal/workload"
)

// The partitioned backend's load-bearing invariant, tested from
// outside: partitioning, worker pools, and remote dispatch change how
// fast (and where) an answer is computed, never the answer. The
// matrix below demands byte identity across job counts, partition
// counts, and local vs remote execution, against a one-partition,
// one-job build;
// the fault-injection tests then prove every remote failure mode
// degrades to a local compile of the same bytes with no pin leaks.
//
// This file is an external test package (cmo_test) because it spins
// up real daemon handlers: internal/serve imports cmo, so an
// in-package test would be an import cycle.

func distSpec(seed int64) workload.Spec {
	return workload.Spec{
		Name: "dist", Seed: seed,
		Modules: 6, HotPerModule: 2, ColdPerModule: 3, ColdStmts: 8,
		ArrayElems: 16,
		TrainIters: 30, RefIters: 80, TrainMode: 2, RefMode: 4,
	}
}

func distSources(spec workload.Spec) []cmo.SourceModule {
	var mods []cmo.SourceModule
	for _, m := range spec.Generate() {
		mods = append(mods, cmo.SourceModule{Name: m.Name + ".minc", Text: m.Text})
	}
	return mods
}

func distBuild(t *testing.T, mods []cmo.SourceModule, opt cmo.Options) *cmo.Build {
	t.Helper()
	opt.Level = cmo.O4
	opt.SelectPercent = -1
	opt.Volatile = workload.InputGlobals()
	b, err := cmo.BuildSource(mods, opt)
	if err != nil {
		t.Fatalf("build (partitions=%d jobs=%d remote=%d): %v",
			opt.Partitions, opt.Jobs, len(opt.RemoteWorkers), err)
	}
	if b.Stats.PinLeaks > 0 {
		t.Fatalf("build leaked %d loader pins (partitions=%d jobs=%d remote=%d)",
			b.Stats.PinLeaks, opt.Partitions, opt.Jobs, len(opt.RemoteWorkers))
	}
	return b
}

// distBaseline is the reference image every distributed configuration
// must reproduce: one partition compiled by one local job, the LLO
// stage at its most sequential.
func distBaseline(t *testing.T, mods []cmo.SourceModule) string {
	t.Helper()
	b := distBuild(t, mods, cmo.Options{Partitions: 1, Jobs: 1})
	if b.Stats.Partitions != 1 || b.Stats.PartitionsLocal != 1 {
		t.Fatalf("baseline build used %d partitions, %d local", b.Stats.Partitions, b.Stats.PartitionsLocal)
	}
	return b.Image.Disasm()
}

// checkPartitionStats enforces the accounting identity every build
// must satisfy: each partition was replayed clean, compiled locally,
// or compiled remotely — exactly one of the three.
func checkPartitionStats(t *testing.T, b *cmo.Build) {
	t.Helper()
	s := b.Stats
	if got := s.PartitionsClean + s.PartitionsLocal + s.PartitionsRemote; got != s.Partitions {
		t.Errorf("partition accounting: clean %d + local %d + remote %d = %d, want %d",
			s.PartitionsClean, s.PartitionsLocal, s.PartitionsRemote, got, s.Partitions)
	}
	if len(b.Partitions) != s.Partitions {
		t.Errorf("len(Partitions) = %d, Stats.Partitions = %d", len(b.Partitions), s.Partitions)
	}
}

// newWorkerDaemon starts a real cmod-shaped daemon (the serve
// handler) whose /backend endpoint this build farms partitions to.
func newWorkerDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	srv := serve.New(serve.Config{MaxBuilds: 1, BackendSlots: 8})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain()
	})
	return ts
}

// TestDistributedByteIdentityMatrix is the tentpole's acceptance
// matrix: {1,2,4} jobs x {1,2,4} partitions x local/remote, every
// cell byte-identical to a one-partition, one-job build.
func TestDistributedByteIdentityMatrix(t *testing.T) {
	spec := distSpec(101)
	mods := distSources(spec)
	want := distBaseline(t, mods)

	worker := newWorkerDaemon(t)
	remoteTotal := 0
	for _, jobs := range []int{1, 2, 4} {
		for _, parts := range []int{1, 2, 4} {
			for _, remote := range []bool{false, true} {
				name := fmt.Sprintf("j%d-p%d-remote%v", jobs, parts, remote)
				opt := cmo.Options{Partitions: parts, Jobs: jobs}
				if remote {
					opt.RemoteWorkers = []string{worker.URL}
				}
				b := distBuild(t, mods, opt)
				if got := b.Image.Disasm(); got != want {
					t.Errorf("%s: image differs from the one-partition baseline", name)
				}
				checkPartitionStats(t, b)
				if b.Stats.Partitions != parts {
					t.Errorf("%s: used %d partitions, want %d", name, b.Stats.Partitions, parts)
				}
				// A healthy worker never forces a retry; a retry here
				// means the remote path failed and was papered over.
				if b.Stats.PartitionRetries != 0 {
					t.Errorf("%s: %d partition retries against a healthy worker",
						name, b.Stats.PartitionRetries)
				}
				if !remote && b.Stats.PartitionsRemote != 0 {
					t.Errorf("%s: %d partitions remote with no remote workers",
						name, b.Stats.PartitionsRemote)
				}
				remoteTotal += b.Stats.PartitionsRemote
			}
		}
	}
	// Local workers race the remote dispatcher for partitions, so no
	// single build guarantees remote execution — but across 9 remote
	// builds the daemon must have won some.
	if remoteTotal == 0 {
		t.Errorf("no partition executed remotely across the whole matrix")
	}
}

// TestDistributedWarmDispatchesOnlyDirty: a warm rebuild after a
// one-module edit schedules only the partitions whose members
// changed; everything else replays from the repository. Same bytes
// as a cold build of the edited sources.
func TestDistributedWarmDispatchesOnlyDirty(t *testing.T) {
	spec := distSpec(103)
	mods := distSources(spec)
	dir := t.TempDir()
	opt := cmo.Options{Partitions: 4, CacheDir: dir}

	cold := distBuild(t, mods, opt)
	checkPartitionStats(t, cold)
	if cold.Stats.PartitionsClean != 0 {
		t.Errorf("cold build replayed %d partitions from an empty repository",
			cold.Stats.PartitionsClean)
	}

	// Warm no-op: the dependency graph replays the image, or — if the
	// backend runs at all — every partition must be clean.
	noop := distBuild(t, mods, opt)
	if noop.Image.Disasm() != cold.Image.Disasm() {
		t.Fatalf("warm-noop image differs from cold image")
	}
	if noop.Stats.Partitions > 0 && noop.Stats.PartitionsClean != noop.Stats.Partitions {
		t.Errorf("warm-noop: %d of %d partitions dirty",
			noop.Stats.Partitions-noop.Stats.PartitionsClean, noop.Stats.Partitions)
	}

	// Edit one module: change the first statement of a statically
	// reachable cold function (the workload's cold spine guarantees
	// it is live code, not DCE fodder). Membership is
	// content-addressed per function, so only partitions holding
	// changed bodies go dirty.
	edited := append([]cmo.SourceModule(nil), mods...)
	edited[2].Text = strings.Replace(edited[2].Text,
		"\tvar acc int = a + ", "\tvar acc int = 1 + a + ", 1)
	if edited[2].Text == mods[2].Text {
		t.Fatal("edit did not apply — workload text shape changed")
	}
	ref := distBuild(t, edited, cmo.Options{Partitions: 4})

	warm := distBuild(t, edited, opt)
	checkPartitionStats(t, warm)
	if warm.Image.Disasm() != ref.Image.Disasm() {
		t.Fatalf("warm-edit image differs from a cold build of the edited sources")
	}
	if warm.Stats.Partitions != 4 {
		t.Fatalf("warm-edit used %d partitions, want 4", warm.Stats.Partitions)
	}
	dispatched := warm.Stats.PartitionsLocal + warm.Stats.PartitionsRemote
	if dispatched == 0 {
		t.Errorf("warm-edit compiled nothing after a real edit")
	}
	if warm.Stats.PartitionsClean == 0 {
		t.Errorf("warm-edit replayed no partitions: a one-function edit dirtied all %d",
			warm.Stats.Partitions)
	}
	if warm.Stats.CacheLLOHits == 0 {
		t.Errorf("warm-edit claims zero LLO cache hits")
	}
}

// TestPartitionAssignmentDeterministic: membership and fingerprints
// are pure functions of build content — never of Jobs, worker count,
// or timing. Fingerprints move if and only if content moves.
func TestPartitionAssignmentDeterministic(t *testing.T) {
	spec := distSpec(107)
	mods := distSources(spec)

	var runs []*cmo.Build
	for _, opt := range []cmo.Options{
		{Partitions: 3, Jobs: 1},
		{Partitions: 3, Jobs: 4},
		{Partitions: 3, Jobs: 2},
	} {
		runs = append(runs, distBuild(t, mods, opt))
	}
	for i, b := range runs[1:] {
		if !reflect.DeepEqual(b.Partitions, runs[0].Partitions) {
			t.Errorf("run %d: partition assignment differs from run 0:\n%v\nvs\n%v",
				i+1, b.Partitions, runs[0].Partitions)
		}
	}

	// Fingerprint sensitivity: an edit must move at least one
	// fingerprint (the dirty partition) — silence here would mean warm
	// builds could replay stale objects.
	edited := append([]cmo.SourceModule(nil), mods...)
	edited[0].Text = strings.Replace(edited[0].Text,
		"\tvar acc int = a + ", "\tvar acc int = 1 + a + ", 1)
	if edited[0].Text == mods[0].Text {
		t.Fatal("edit did not apply — workload text shape changed")
	}
	eb := distBuild(t, edited, cmo.Options{Partitions: 3})
	fps := func(b *cmo.Build) map[string]bool {
		m := make(map[string]bool)
		for _, p := range b.Partitions {
			m[p.FP] = true
		}
		return m
	}
	if reflect.DeepEqual(fps(eb), fps(runs[0])) {
		t.Errorf("editing a module left every partition fingerprint unchanged")
	}
}

// TestRemoteWorkerFaultInjection: a dead, hung, killed, or lying
// remote worker never changes output bytes and never leaks a pin —
// each failed partition falls back to a local compile.
func TestRemoteWorkerFaultInjection(t *testing.T) {
	spec := distSpec(109)
	mods := distSources(spec)
	want := distBaseline(t, mods)

	cases := []struct {
		name   string
		server func(t *testing.T) string // returns the worker URL
	}{
		{"dead", func(t *testing.T) string {
			// A worker that was up once and is gone now: connection
			// refused on every partition.
			ts := httptest.NewServer(http.NotFoundHandler())
			url := ts.URL
			ts.Close()
			return url
		}},
		{"hung", func(t *testing.T) string {
			// A worker that accepts the partition and never answers;
			// Options.RemoteTimeout bounds the wait.
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				// Drain the body first: with it unread, net/http cannot
				// watch the connection, and the dispatcher's timeout
				// abort would go unnoticed until this handler returned.
				io.Copy(io.Discard, r.Body)
				select {
				case <-time.After(30 * time.Second):
				case <-r.Context().Done():
				}
			}))
			t.Cleanup(ts.Close)
			return ts.URL
		}},
		{"killed-mid-partition", func(t *testing.T) string {
			// A worker whose process dies while compiling: the
			// connection drops with no reply at all.
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				conn, _, err := w.(http.Hijacker).Hijack()
				if err != nil {
					t.Errorf("hijack: %v", err)
					return
				}
				conn.Close()
			}))
			t.Cleanup(ts.Close)
			return ts.URL
		}},
		{"malformed-reply", func(t *testing.T) string {
			// A worker that replies 200 with bytes that are not a
			// result: the dispatcher must reject and recompile, not
			// trust them.
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Write([]byte("these are not the objects you are looking for"))
			}))
			t.Cleanup(ts.Close)
			return ts.URL
		}},
		{"wrong-status", func(t *testing.T) string {
			// A worker that refuses every partition (always busy).
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "all backend slots busy", http.StatusServiceUnavailable)
			}))
			t.Cleanup(ts.Close)
			return ts.URL
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := distBuild(t, mods, cmo.Options{
				Partitions:    4,
				RemoteWorkers: []string{tc.server(t)},
				RemoteTimeout: 100 * time.Millisecond,
			})
			if got := b.Image.Disasm(); got != want {
				t.Errorf("image differs from baseline after %s worker", tc.name)
			}
			checkPartitionStats(t, b)
			// A worker in this state can never successfully deliver a
			// partition: everything it touched must have fallen back.
			if b.Stats.PartitionsRemote != 0 {
				t.Errorf("%d partitions counted remote against a %s worker",
					b.Stats.PartitionsRemote, tc.name)
			}
			if b.Stats.PartitionsLocal+b.Stats.PartitionsClean != b.Stats.Partitions {
				t.Errorf("not every partition was satisfied locally (%+v)", b.Stats)
			}
			t.Logf("%s: %d retries fell back locally", tc.name, b.Stats.PartitionRetries)
		})
	}
}

// TestRemoteWorkerFallbackRetries pins the retry counter and the
// fallback worker label. The remote dispatcher races the local pool
// for partitions, so one build cannot guarantee the dead worker was
// ever tried — but across repeated builds it must be, and every
// build must come out byte-identical regardless.
func TestRemoteWorkerFallbackRetries(t *testing.T) {
	spec := distSpec(113)
	mods := distSources(spec)
	want := distBaseline(t, mods)
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()

	for attempt := 0; attempt < 20; attempt++ {
		b := distBuild(t, mods, cmo.Options{
			Partitions:    8,
			RemoteWorkers: []string{url},
			RemoteTimeout: 100 * time.Millisecond,
		})
		if b.Image.Disasm() != want {
			t.Fatalf("attempt %d: image differs from baseline", attempt)
		}
		if b.Stats.PartitionRetries == 0 {
			continue
		}
		// The fallback happened: its partitions must be labeled.
		var fallbacks int
		for _, p := range b.Partitions {
			if p.Worker == "local (fallback)" {
				fallbacks++
			} else if !p.Clean && p.Worker != "local" {
				t.Errorf("partition %d worker = %q, want local or fallback", p.Index, p.Worker)
			}
		}
		if fallbacks != b.Stats.PartitionRetries {
			t.Errorf("%d partitions labeled fallback, %d retries counted",
				fallbacks, b.Stats.PartitionRetries)
		}
		return
	}
	t.Errorf("dead remote worker was never tried across 20 builds")
}

// TestDistributedBuildThroughDaemon closes the loop end to end: a
// build submitted to one daemon farms partitions to a second daemon,
// and the reply is byte-identical to a one-shot in-process build.
func TestDistributedBuildThroughDaemon(t *testing.T) {
	spec := distSpec(127)
	mods := distSources(spec)
	base := distBuild(t, mods, cmo.Options{Partitions: 1, Jobs: 1})
	var wantImg bytes.Buffer
	if err := objfile.EncodeImage(&wantImg, base.Image); err != nil {
		t.Fatalf("encoding reference image: %v", err)
	}

	worker := newWorkerDaemon(t)
	front := serve.New(serve.Config{MaxBuilds: 1})
	fts := httptest.NewServer(front.Handler())
	t.Cleanup(func() {
		fts.Close()
		front.Drain()
	})

	req := serve.BuildRequest{
		Level: 4, Partitions: 4,
		RemoteWorkers: []string{worker.URL},
		Volatile:      workload.InputGlobals(),
	}
	for _, m := range mods {
		req.Modules = append(req.Modules, serve.Module{Name: m.Name, Text: m.Text})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(fts.URL+"/build", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /build: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /build: %s", resp.Status)
	}
	var br serve.BuildResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if !bytes.Equal(br.Image, wantImg.Bytes()) {
		t.Errorf("daemon-built image differs from one-shot in-process build")
	}
}
