// Package serve is the build-daemon core behind cmd/cmod: an HTTP/JSON
// front end over the cmo facade that keeps one build Session per cache
// directory open across requests, so every request after the first
// starts warm (frontend replay, HLO replay, shared NAIM repository).
//
// The server is deliberately a thin coordination layer; compilation
// semantics live entirely in the cmo package. What serve adds:
//
//   - Admission control: at most MaxBuilds builds run concurrently and
//     at most QueueDepth more wait; beyond that POST /build answers 503
//     immediately rather than stacking latency.
//   - A server-wide Jobs budget: each build gets one worker for free
//     and claims extra workers from a shared pool only when they are
//     idle, so a loaded server degrades toward Jobs=1 per build instead
//     of oversubscribing the machine. Generated code is Jobs-invariant,
//     so degradation affects latency only, never output.
//   - Per-request deadlines wired into Options.Context: a request that
//     times out (or whose client disconnects) aborts at the pipeline's
//     next cancellation checkpoint with no pinned NAIM handles left.
//   - Single-writer session discipline: builds sharing a cache
//     directory share one Session (replay reads are concurrent; the
//     repository is internally locked) and serialize only the durable
//     Commit that runs after each build.
//   - A shared artifact cache (Config.CAS, cmd/cmod -cas-dir): the
//     internal/cas blob store mounted at /cas/{namespace}/{hash}
//     behind the drain check and a dedicated slot pool, so a fleet of
//     cmoc clients (-remote-cache) fills local misses from blobs some
//     other machine already built. See cas.go.
//   - Observability: every build runs under its own obs.Trace whose
//     counters fold into a server-lifetime trace, so serve.* counters
//     (queue depth, active builds, outcomes) sit next to cumulative
//     naim.* and session.* counters; a telemetry registry aggregates
//     latency/stage/memory histograms across builds (GET /metrics,
//     Prometheus text; GET /metrics.json, the legacy counter JSON);
//     and each cache directory keeps a persistent build ledger that
//     replays on reopen (GET /builds, GET /builds/{id},
//     GET /builds/{id}/trace). See telemetry.go and ledger.go.
//
// Graceful drain: Drain marks the server draining (healthz goes 503,
// new builds are refused), waits for queued and in-flight builds to
// finish, then commits and closes every session so the on-disk
// repositories are fsynced. cmd/cmod calls it on SIGTERM.
package serve

import (
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	cmo "cmo"
	"cmo/internal/cas"
	"cmo/internal/obs"
)

// Config sizes the daemon. The zero value is usable: two concurrent
// builds, a short queue, one worker per build, five-minute default
// deadline.
type Config struct {
	// MaxBuilds is the number of builds that may run concurrently
	// (default 2).
	MaxBuilds int
	// QueueDepth is how many admitted requests may wait for a build
	// slot (default 8). A request beyond MaxBuilds+QueueDepth is
	// refused with 503 instead of queued.
	QueueDepth int
	// JobBudget is the server-wide worker-goroutine budget shared by
	// all concurrent builds (default MaxBuilds: one worker each).
	// Each build always gets one worker; a request asking for more
	// (Options.Jobs) claims the extras from the shared pool only if
	// they are free right now.
	JobBudget int
	// DefaultTimeout bounds a build whose request names no deadline
	// (default 5 minutes).
	DefaultTimeout time.Duration
	// MaxTimeout caps the deadline a request may ask for (default:
	// DefaultTimeout). Requests asking for more are clamped.
	MaxTimeout time.Duration
	// Trace, when non-nil, is the trace the server records into;
	// nil means the server makes its own (exposed at /metrics).
	Trace *obs.Trace
	// TraceRing is how many recent builds keep their full trace in
	// memory for GET /builds/{id}/trace (default 32; traces are not
	// persisted — a restart forgets them, the ledger remembers the
	// numbers).
	TraceRing int
	// RecordRing is how many build ledger records the server holds in
	// memory for GET /builds, and how many each on-disk ledger retains
	// after compaction (default 512).
	RecordRing int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — opt-in
	// because profiling endpoints on a build daemon are a deliberate
	// operational decision, not a default.
	EnablePprof bool
	// BackendSlots bounds concurrent POST /backend partition compiles
	// (default 2*MaxBuilds; negative disables the endpoint). Backend
	// work is deliberately admitted outside the build queue: a daemon
	// that is both building and serving as a worker must never deadlock
	// on its own farm-out, and a refused partition just compiles on the
	// dispatcher instead.
	BackendSlots int
	// CAS, when non-nil, is the shared artifact cache store this
	// daemon serves at GET/PUT/HEAD /cas/{namespace}/{hash} (see
	// internal/cas; cmd/cmod opens one from -cas-dir). nil leaves the
	// endpoint unmounted. The server owns the store from here: Drain
	// closes it after the sessions.
	CAS *cas.Store
	// CASSlots bounds concurrent /cas requests (default 4*MaxBuilds).
	// Like BackendSlots, cache traffic is admitted outside the build
	// queue — a daemon building for one tenant while serving another
	// tenant's cache must never deadlock itself — and a refused
	// request is just a client-side miss, absorbed like every other
	// remote failure.
	CASSlots int
	// CASToken, when non-empty, is the shared secret every /cas
	// request must present as "Authorization: Bearer <token>"; requests
	// without it answer 401. Namespaces alone are cooperative
	// visibility, not a security boundary — the token is the daemon's
	// only defense against an untrusted peer reading or poisoning a
	// tenant's cache. Empty leaves /cas open (trusted networks only).
	CASToken string
}

// sessionEntry is one cache directory's shared state: the open
// Session every build against that directory uses, and the mutex that
// makes the post-build repository Commit single-writer. Replay reads
// during a build take no entry-level lock at all — the repository is
// internally synchronized — so concurrent builds warm from the same
// session freely.
type sessionEntry struct {
	dir      string
	sess     *cmo.Session
	ledger   *Ledger
	commitMu sync.Mutex
	builds   atomic.Int64
	commits  atomic.Int64
}

// Server is the daemon core. Create with New, mount Handler on an
// http.Server, and call Drain before exit.
type Server struct {
	cfg   Config
	trace *obs.Trace
	mux   *http.ServeMux

	// slots is the build-concurrency semaphore (cap MaxBuilds);
	// queue is the admission semaphore (cap MaxBuilds+QueueDepth);
	// extraJobs holds the shared worker tokens beyond the one each
	// build owns (cap JobBudget-MaxBuilds, possibly 0); backendSlots
	// bounds /backend partition compiles (nil = endpoint disabled),
	// independent of build admission so a daemon can be dispatcher and
	// worker at once without deadlock.
	slots        chan struct{}
	queue        chan struct{}
	extraJobs    chan struct{}
	backendSlots chan struct{}
	casSlots     chan struct{}
	casShed      atomic.Int64 // /cas requests refused at capacity

	mu       sync.Mutex
	sessions map[string]*sessionEntry
	draining bool
	closed   bool
	inflight sync.WaitGroup

	reqSeq   atomic.Uint64
	shutdown chan struct{} // closed once by POST /shutdown
	shutOnce sync.Once

	start time.Time
	// bootID prefixes request ids so records from different daemon
	// lifetimes never collide in a ledger that outlives the process.
	bootID string

	// Telemetry (see telemetry.go): the registry of histograms and
	// gauges behind GET /metrics, plus the bounded in-memory rings of
	// ledger records (GET /builds) and per-build traces
	// (GET /builds/{id}/trace).
	registry *obs.Registry
	inst     *instruments
	obsMu    sync.Mutex
	records  []BuildRecord
	traces   map[string]*obs.Trace
	traceIDs []string

	ctr struct {
		accepted, rejected     *obs.Counter
		completed, failed      *obs.Counter
		canceled               *obs.Counter
		queueDepth, active     *obs.Counter
		queueNanos, commitsCtr *obs.Counter
	}
}

// New builds a Server from cfg, applying defaults.
func New(cfg Config) *Server {
	if cfg.MaxBuilds <= 0 {
		cfg.MaxBuilds = 2
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	} else if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 8
	}
	if cfg.JobBudget <= 0 {
		cfg.JobBudget = cfg.MaxBuilds
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 5 * time.Minute
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = cfg.DefaultTimeout
	}
	if cfg.TraceRing <= 0 {
		cfg.TraceRing = 32
	}
	if cfg.RecordRing <= 0 {
		cfg.RecordRing = 512
	}
	tr := cfg.Trace
	if tr == nil {
		tr = obs.NewTrace()
	}
	now := time.Now()
	s := &Server{
		cfg:      cfg,
		trace:    tr,
		mux:      http.NewServeMux(),
		slots:    make(chan struct{}, cfg.MaxBuilds),
		queue:    make(chan struct{}, cfg.MaxBuilds+cfg.QueueDepth),
		sessions: make(map[string]*sessionEntry),
		shutdown: make(chan struct{}),
		start:    now,
		bootID:   fmt.Sprintf("%06x", uint64(now.UnixNano())&0xffffff),
	}
	if extra := cfg.JobBudget - cfg.MaxBuilds; extra > 0 {
		s.extraJobs = make(chan struct{}, extra)
		for i := 0; i < extra; i++ {
			s.extraJobs <- struct{}{}
		}
	}
	if cfg.BackendSlots == 0 {
		cfg.BackendSlots = 2 * cfg.MaxBuilds
		s.cfg.BackendSlots = cfg.BackendSlots
	}
	if cfg.BackendSlots > 0 {
		s.backendSlots = make(chan struct{}, cfg.BackendSlots)
	}
	if cfg.CAS != nil {
		if cfg.CASSlots <= 0 {
			cfg.CASSlots = 4 * cfg.MaxBuilds
			s.cfg.CASSlots = cfg.CASSlots
		}
		s.casSlots = make(chan struct{}, cfg.CASSlots)
	}
	s.ctr.accepted = tr.Counter("serve.accepted")
	s.ctr.rejected = tr.Counter("serve.rejected")
	s.ctr.completed = tr.Counter("serve.completed")
	s.ctr.failed = tr.Counter("serve.failed")
	s.ctr.canceled = tr.Counter("serve.canceled")
	s.ctr.queueDepth = tr.Counter("serve.queue_depth")
	s.ctr.active = tr.Counter("serve.active_builds")
	s.ctr.queueNanos = tr.Counter("serve.queue_wait_nanos")
	s.ctr.commitsCtr = tr.Counter("serve.commits")
	s.initTelemetry()
	s.routes()
	if cfg.CAS != nil {
		s.mountCAS(cfg.CAS)
		s.initCASTelemetry(cfg.CAS)
	}
	return s
}

// Handler is the daemon's HTTP surface: mount it on any listener.
func (s *Server) Handler() http.Handler { return s.mux }

// Trace exposes the server-wide trace (the /metrics source).
func (s *Server) Trace() *obs.Trace { return s.trace }

// ShutdownRequested is closed when a client POSTs /shutdown; the
// owning process (cmd/cmod) treats it exactly like SIGTERM.
func (s *Server) ShutdownRequested() <-chan struct{} { return s.shutdown }

// session returns (opening if needed) the shared entry for a cache
// directory. The key is the absolute path, so "./cache" and "cache"
// reach the same Session and therefore the same commit lock.
func (s *Server) session(dir string) (*sessionEntry, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: resolving cache dir %q: %w", dir, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("serve: server is shut down")
	}
	if e, ok := s.sessions[abs]; ok {
		return e, nil
	}
	sess, err := cmo.OpenSession(abs)
	if err != nil {
		return nil, fmt.Errorf("serve: opening session for %s: %w", abs, err)
	}
	// The cache directory's ledger opens with its session; records a
	// previous daemon wrote replay into the registry so fleet totals
	// survive restarts. A ledger that cannot open degrades to no
	// history — the session (and its builds) still work.
	ledger, prior, lerr := OpenLedger(abs, s.cfg.RecordRing)
	if lerr != nil {
		s.inst.ledgerErr.Add(1)
		ledger = nil
	}
	e := &sessionEntry{dir: abs, sess: sess, ledger: ledger}
	s.sessions[abs] = e
	if len(prior) > 0 {
		s.replayLedger(prior)
	}
	return e, nil
}

// admit reserves a queue slot for one request, refusing immediately
// when the server is draining or the queue is full. The caller must
// call the returned release exactly once.
func (s *Server) admit() (release func(), ok bool) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, false
	}
	select {
	case s.queue <- struct{}{}:
	default:
		s.mu.Unlock()
		return nil, false
	}
	// The waitgroup add happens under mu so Drain's wait cannot start
	// between our draining check and the add.
	s.inflight.Add(1)
	s.mu.Unlock()
	s.ctr.accepted.Add(1)
	s.ctr.queueDepth.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			<-s.queue
			s.ctr.queueDepth.Add(-1)
			s.inflight.Done()
		})
	}, true
}

// acquireJobs turns a request's Jobs ask into the worker count this
// build actually gets: one guaranteed worker plus as many extras as
// are free in the shared pool right now. Never blocks — under load
// builds degrade toward sequential instead of queueing on each other.
func (s *Server) acquireJobs(want int) (jobs int, release func()) {
	if want < 1 {
		want = 1
	}
	extras := 0
	if s.extraJobs != nil {
	claim:
		for extras < want-1 {
			select {
			case <-s.extraJobs:
				extras++
			default:
				break claim // pool empty; run with what we have
			}
		}
	}
	n := extras
	return 1 + extras, func() {
		for i := 0; i < n; i++ {
			s.extraJobs <- struct{}{}
		}
	}
}

// Drain refuses new work, waits for every admitted build to finish,
// then commits and closes all sessions. Idempotent; safe to call from
// the signal handler while requests are in flight. The error is the
// first session-close failure (the drain still closes the rest).
func (s *Server) Drain() error {
	s.mu.Lock()
	if s.draining {
		// A second drainer waits for the first's builds too, then
		// falls through to the (idempotent) session close.
		s.mu.Unlock()
		s.inflight.Wait()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	s.inflight.Wait()

	s.mu.Lock()
	s.closed = true
	entries := make([]*sessionEntry, 0, len(s.sessions))
	for _, e := range s.sessions {
		entries = append(entries, e)
	}
	s.sessions = make(map[string]*sessionEntry)
	s.mu.Unlock()

	var firstErr error
	for _, e := range entries {
		// Close commits (fsync + manifest) before releasing the files.
		if err := e.sess.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		// The ledger syncs at drain so the history of a cleanly
		// stopped daemon is complete on disk.
		if err := e.ledger.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// The cache store closes last: its blobs were durable at each Put
	// (temp-file + rename), so this only refuses further writes.
	if s.cfg.CAS != nil {
		if err := s.cfg.CAS.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}
