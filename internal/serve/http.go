package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	cmo "cmo"
	"cmo/internal/objfile"
	"cmo/internal/obs"
)

// The HTTP/JSON surface. One request = one build; the daemon's value
// is what persists between requests (open sessions, warm repository),
// not a richer per-request protocol.

// Module is one source module in a build request.
type Module struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// BuildRequest is the POST /build body. Zero values mean the driver
// defaults: O4, whole-program selectivity, entry "main", one job, no
// cache directory (a cold, ephemeral build).
type BuildRequest struct {
	Modules []Module `json:"modules"`
	// Level is the optimization level 1..4 (0 = 4, the cross-module
	// default — a daemon exists to serve CMO builds).
	Level int `json:"level,omitempty"`
	// Entry is the entry function (default "main").
	Entry string `json:"entry,omitempty"`
	// CacheDir selects the shared session the build warms and is
	// warmed by. Builds naming the same directory share one session;
	// empty means no cache at all.
	CacheDir string `json:"cache_dir,omitempty"`
	// Jobs is the worker-parallelism ask; the server may grant fewer
	// (down to 1) when the shared budget is spent. Output does not
	// depend on the grant.
	Jobs int `json:"jobs,omitempty"`
	// TimeoutMillis bounds the build (0 = server default; asks above
	// the server's MaxTimeout are clamped). Queue wait counts against
	// the deadline: a deadline is a promise about the response, not
	// about CPU time.
	TimeoutMillis int64 `json:"timeout_millis,omitempty"`
	// SelectPercent, when non-nil, enables profile-free selectivity
	// plumbing exactly as the CLI's flag would; nil means -1 (all
	// modules enter CMO).
	SelectPercent *float64 `json:"select_percent,omitempty"`
	// Volatile names globals that must never become link-time
	// constants.
	Volatile []string `json:"volatile,omitempty"`
	// Partitions sets the backend partition count (0 = size-based
	// default). Never changes output bytes.
	Partitions int `json:"partitions,omitempty"`
	// RemoteWorkers lists other cmod daemons ("http://host:port") to
	// farm backend partitions to. Failures fall back to local compiles.
	RemoteWorkers []string `json:"remote_workers,omitempty"`
}

// BuildResponse is the POST /build reply on success.
type BuildResponse struct {
	RequestID string `json:"request_id"`
	// Image is the linked VPA image in objfile encoding —
	// byte-identical to what a one-shot cmoc driver build writes.
	Image []byte `json:"image"`
	// Stats is the build's full stats block; QueueNanos is the time
	// this request waited for a build slot (not part of TotalNanos).
	Stats cmo.BuildStats `json:"stats"`
	// Jobs is the worker count actually granted.
	Jobs int `json:"jobs"`
	// Timing is the human-readable phase report (the -timing text).
	Timing string `json:"timing"`
}

// errorResponse is any non-2xx reply body.
type errorResponse struct {
	RequestID string `json:"request_id,omitempty"`
	Error     string `json:"error"`
}

// StatusResponse is the GET /status reply.
type StatusResponse struct {
	Daemon    buildInfo       `json:"daemon"`
	Active    int64           `json:"active_builds"`
	Queued    int64           `json:"queued"`
	MaxBuilds int             `json:"max_builds"`
	QueueCap  int             `json:"queue_cap"`
	JobBudget int             `json:"job_budget"`
	Draining  bool            `json:"draining"`
	UptimeSec float64         `json:"uptime_sec"`
	Sessions  []SessionStatus `json:"sessions"`
}

// SessionStatus describes one open cache-dir session.
type SessionStatus struct {
	CacheDir string `json:"cache_dir"`
	Builds   int64  `json:"builds"`
	Commits  int64  `json:"commits"`
}

// BuildsResponse is the GET /builds reply: the in-memory tail of the
// ledger, most recent first.
type BuildsResponse struct {
	Count  int           `json:"count"`
	Builds []BuildRecord `json:"builds"`
}

// requestIDHeader carries the server-assigned id on every reply.
const requestIDHeader = "X-Cmod-Request"

func (s *Server) routes() {
	s.mux.HandleFunc("POST /build", s.handleBuild)
	if s.backendSlots != nil {
		s.mux.HandleFunc("POST /backend", s.handleBackend)
	}
	s.mux.HandleFunc("GET /status", s.handleStatus)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics.json", s.handleMetricsJSON)
	s.mux.HandleFunc("GET /builds", s.handleBuilds)
	s.mux.HandleFunc("GET /builds/{id}", s.handleBuildByID)
	s.mux.HandleFunc("GET /builds/{id}/trace", s.handleBuildTrace)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /shutdown", s.handleShutdown)
	if s.cfg.EnablePprof {
		// Index serves /debug/pprof/{heap,goroutine,...} itself; only
		// the four special handlers need explicit routes.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// nextRequestID mints "bootid-rNNNNNN". The boot prefix keeps ids from
// different daemon lifetimes distinct inside a ledger that outlives
// any one process.
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("%s-r%06d", s.bootID, s.reqSeq.Add(1))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func (s *Server) fail(w http.ResponseWriter, id string, status int, format string, args ...any) {
	if status == http.StatusServiceUnavailable || status == http.StatusGatewayTimeout {
		s.ctr.rejected.Add(1)
	}
	writeJSON(w, status, errorResponse{RequestID: id, Error: fmt.Sprintf(format, args...)})
}

// handleBuild is the daemon's reason to exist: admission, queue,
// deadline, build, commit, reply — and one ledger record no matter
// how it ends.
func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	id := s.nextRequestID()
	w.Header().Set(requestIDHeader, id)

	release, ok := s.admit()
	if !ok {
		s.fail(w, id, http.StatusServiceUnavailable, "server is %s", s.busyWord())
		return
	}
	defer release()

	var req BuildRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, id, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if len(req.Modules) == 0 {
		s.fail(w, id, http.StatusBadRequest, "no modules in request")
		return
	}
	if req.Level < 0 || req.Level > 4 {
		s.fail(w, id, http.StatusBadRequest, "invalid level %d (want 1..4)", req.Level)
		return
	}
	fp := optionsFingerprint(&req)

	// The deadline starts before the queue wait: a request the server
	// cannot schedule in time fails like one it cannot build in time.
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Wait for a build slot; the wait is the queue component of
	// latency, reported separately from build time.
	qt0 := time.Now()
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		s.ctr.canceled.Add(1)
		s.recordBuild(nil, newBuildRecord(id, "", fp, outcomeCanceled,
			ctx.Err(), len(req.Modules), 0, time.Since(qt0).Nanoseconds(), nil), nil)
		s.fail(w, id, http.StatusGatewayTimeout, "timed out waiting for a build slot: %v", ctx.Err())
		return
	}
	defer func() { <-s.slots }()
	queueNanos := time.Since(qt0).Nanoseconds()
	s.ctr.queueNanos.Add(queueNanos)

	jobs, releaseJobs := s.acquireJobs(req.Jobs)
	defer releaseJobs()

	var entry *sessionEntry
	cacheDir := ""
	if req.CacheDir != "" {
		var err error
		entry, err = s.session(req.CacheDir)
		if err != nil {
			s.fail(w, id, http.StatusInternalServerError, "%v", err)
			return
		}
		entry.builds.Add(1)
		cacheDir = entry.dir
	}

	// Each build gets its own trace: the span tree stays bounded to
	// one build (retained in the trace ring for /builds/{id}/trace)
	// and its counters fold into the server-lifetime trace afterward.
	btr := obs.NewTrace()
	opt := cmo.Options{
		Level:         cmo.Level(req.Level),
		SelectPercent: -1,
		Entry:         req.Entry,
		Volatile:      req.Volatile,
		Jobs:          jobs,
		Partitions:    req.Partitions,
		RemoteWorkers: req.RemoteWorkers,
		Trace:         btr,
		Context:       ctx,
	}
	if req.Level == 0 {
		opt.Level = cmo.O4
	}
	if req.SelectPercent != nil {
		opt.SelectPercent = *req.SelectPercent
	}
	if entry != nil {
		opt.Session = entry.sess
	}
	mods := make([]cmo.SourceModule, len(req.Modules))
	for i, m := range req.Modules {
		mods[i] = cmo.SourceModule{Name: m.Name, Text: m.Text}
	}

	s.ctr.active.Add(1)
	b, err := cmo.BuildSource(mods, opt)
	s.ctr.active.Add(-1)

	if err != nil {
		outcome := outcomeFailed
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			outcome = outcomeCanceled
			s.ctr.canceled.Add(1)
			s.fail(w, id, http.StatusGatewayTimeout, "build deadline exceeded: %v", err)
		case errors.Is(err, context.Canceled):
			outcome = outcomeCanceled
			s.ctr.canceled.Add(1)
			s.fail(w, id, http.StatusServiceUnavailable, "build canceled: %v", err)
		default:
			s.ctr.failed.Add(1)
			s.fail(w, id, http.StatusUnprocessableEntity, "build failed: %v", err)
		}
		s.recordBuild(entry, newBuildRecord(id, cacheDir, fp, outcome,
			err, len(req.Modules), jobs, queueNanos, nil), btr)
		return
	}

	// Single-writer durability: each completed build commits the
	// session exactly once — repository blob log, manifest, and the
	// dependency graph's log — serialized per cache directory, so two
	// concurrent builds never interleave a manifest write. Reads never
	// take this lock.
	if entry != nil && entry.sess.Repo() != nil {
		entry.commitMu.Lock()
		cerr := entry.sess.Commit()
		entry.commitMu.Unlock()
		if cerr != nil {
			s.ctr.failed.Add(1)
			s.recordBuild(entry, newBuildRecord(id, cacheDir, fp, outcomeFailed,
				cerr, len(req.Modules), jobs, queueNanos, &b.Stats), btr)
			s.fail(w, id, http.StatusInternalServerError, "committing session: %v", cerr)
			return
		}
		entry.commits.Add(1)
		s.ctr.commitsCtr.Add(1)
	}

	b.Stats.QueueNanos = queueNanos
	var img bytes.Buffer
	if err := objfile.EncodeImage(&img, b.Image); err != nil {
		s.ctr.failed.Add(1)
		s.recordBuild(entry, newBuildRecord(id, cacheDir, fp, outcomeFailed,
			err, len(req.Modules), jobs, queueNanos, &b.Stats), btr)
		s.fail(w, id, http.StatusInternalServerError, "encoding image: %v", err)
		return
	}
	s.ctr.completed.Add(1)
	s.recordBuild(entry, newBuildRecord(id, cacheDir, fp, outcomeOK,
		nil, len(req.Modules), jobs, queueNanos, &b.Stats), btr)
	writeJSON(w, http.StatusOK, BuildResponse{
		RequestID: id,
		Image:     img.Bytes(),
		Stats:     b.Stats,
		Jobs:      jobs,
		Timing:    b.TimingReport(),
	})
}

// busyWord distinguishes the two 503 causes in the error text.
func (s *Server) busyWord() string {
	if s.Draining() {
		return "draining"
	}
	return "at capacity (queue full)"
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sessions := make([]SessionStatus, 0, len(s.sessions))
	for _, e := range s.sessions {
		sessions = append(sessions, SessionStatus{
			CacheDir: e.dir,
			Builds:   e.builds.Load(),
			Commits:  e.commits.Load(),
		})
	}
	draining := s.draining
	s.mu.Unlock()
	info := s.buildInfo()
	writeJSON(w, http.StatusOK, StatusResponse{
		Daemon:    info,
		Active:    s.ctr.active.Value(),
		Queued:    s.ctr.queueDepth.Value() - s.ctr.active.Value(),
		MaxBuilds: s.cfg.MaxBuilds,
		QueueCap:  s.cfg.MaxBuilds + s.cfg.QueueDepth,
		JobBudget: s.cfg.JobBudget,
		Draining:  draining,
		UptimeSec: info.UptimeSec,
		Sessions:  sessions,
	})
}

// handleMetrics renders the registry in Prometheus text exposition
// format. The legacy trace counters ride along as sanitized untyped
// series (naim.cache_hits -> cmod_naim_cache_hits), so one scrape
// carries both the histogram fleet view and the raw counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	_ = s.registry.WritePrometheus(w, "cmod", s.trace.CounterSnapshot())
}

// handleMetricsJSON is the original JSON counter snapshot, kept for
// scripts that predate the Prometheus endpoint.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.trace.WriteMetrics(w)
}

// handleBuilds serves the in-memory ledger tail, most recent first.
// ?limit=N caps the reply (default: everything retained).
func (s *Server) handleBuilds(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			s.fail(w, "", http.StatusBadRequest, "bad limit %q", q)
			return
		}
		limit = n
	}
	recs := s.buildRecords(limit)
	writeJSON(w, http.StatusOK, BuildsResponse{Count: len(recs), Builds: recs})
}

func (s *Server) handleBuildByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.buildRecord(id)
	if !ok {
		s.fail(w, id, http.StatusNotFound, "no build record %q", id)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleBuildTrace streams a retained build's full trace as Chrome
// trace-event JSON (load it in about:tracing or Perfetto). Only the
// last TraceRing builds of this process have one; replayed ledger
// records answer 404 here while still appearing in /builds.
func (s *Server) handleBuildTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.buildTrace(id)
	if !ok {
		s.fail(w, id, http.StatusNotFound, "no retained trace for build %q (ring holds the last %d)", id, s.cfg.TraceRing)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = tr.WriteChromeTrace(w)
}

// handleHealthz keeps its first line a bare "ok" (probes match on
// that), then appends the identity block for humans.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	info := s.buildInfo()
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
	fmt.Fprintf(w, "version: %s (%s)\n", info.Version, info.GoVersion)
	fmt.Fprintf(w, "pid: %d\n", info.PID)
	fmt.Fprintf(w, "uptime_sec: %.1f\n", info.UptimeSec)
}

// handleShutdown asks the owning process to drain and exit — the
// remote equivalent of SIGTERM. The reply goes out before the drain
// begins so the client is not racing the listener teardown.
func (s *Server) handleShutdown(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "shutting down"})
	s.shutOnce.Do(func() { close(s.shutdown) })
}
