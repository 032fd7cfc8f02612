package serve

import (
	"crypto/subtle"
	"net/http"
	"strings"

	"cmo/internal/cas"
)

// The daemon's shared-cache surface: internal/cas owns the blob
// protocol (GET/PUT/HEAD /cas/{namespace}/{hash}, ETag/If-None-Match,
// gzip); this file owns its admission — the draining check and a
// dedicated slot pool, mirroring /backend's discipline — and its
// cmod_cas_* telemetry.

// mountCAS wires the /cas/ subtree behind the server's admission:
// a draining daemon answers 503 (clients degrade to local-only,
// exactly as if the service died), and at most CASSlots requests are
// served concurrently — the pool is separate from build admission so
// a daemon building for one tenant while serving another tenant's
// cache can never deadlock itself. A full pool answers 429 with
// Retry-After and counts the shed (cmod_cas_shed_total): overload is
// not a fault, so for the client it is a miss that leaves its breaker
// alone, and refusing is how the daemon keeps cache traffic from
// starving builds.
func (s *Server) mountCAS(store *cas.Store) {
	inner := cas.Handler(store)
	s.mux.Handle("/cas/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.casAuthorized(r) {
			// 401 is a terminal client error, not a flaky service: the
			// cas client breaker still absorbs it (local-only build),
			// and the operator sees the misconfiguration in the error
			// counters rather than in wrong bytes.
			http.Error(w, "cas: missing or wrong bearer token", http.StatusUnauthorized)
			return
		}
		if s.Draining() {
			http.Error(w, "cas: server is draining", http.StatusServiceUnavailable)
			return
		}
		select {
		case s.casSlots <- struct{}{}:
		default:
			s.casShed.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "cas: server is at capacity", http.StatusTooManyRequests)
			return
		}
		defer func() { <-s.casSlots }()
		inner.ServeHTTP(w, r)
	}))
}

// casAuthorized checks the shared-secret bearer token configured with
// Config.CASToken (cmod -cas-token). No token configured means an
// open endpoint: namespaces are then cooperative visibility for
// tenants that trust each other, not an isolation boundary — anyone
// who can reach the daemon can read or fill any namespace.
func (s *Server) casAuthorized(r *http.Request) bool {
	want := s.cfg.CASToken
	if want == "" {
		return true
	}
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	// Constant-time compare: a shared cache daemon must not leak its
	// secret byte by byte through response timing.
	return ok && subtle.ConstantTimeCompare([]byte(got), []byte(want)) == 1
}

// initCASTelemetry registers the cmod_cas_* series: scrape-time
// samples of the store's own counters, so the numbers are exact even
// though no request path touches the registry.
func (s *Server) initCASTelemetry(store *cas.Store) {
	r := s.registry
	sample := func(f func(cas.Stats) float64) func() float64 {
		return func() float64 { return f(store.Stats()) }
	}
	r.SetHelp("cmod_cas_hits_total", "CAS gets answered with bytes.")
	r.Gauge("cmod_cas_hits_total", sample(func(st cas.Stats) float64 { return float64(st.Hits) }))
	r.SetHelp("cmod_cas_misses_total", "CAS gets for absent or expired entries.")
	r.Gauge("cmod_cas_misses_total", sample(func(st cas.Stats) float64 { return float64(st.Misses) }))
	r.SetHelp("cmod_cas_puts_total", "CAS blobs accepted and written (duplicate puts excluded).")
	r.Gauge("cmod_cas_puts_total", sample(func(st cas.Stats) float64 { return float64(st.Puts) }))
	r.SetHelp("cmod_cas_evictions_total", "CAS entries removed by the LRU cap or the TTL.")
	r.Gauge("cmod_cas_evictions_total", sample(func(st cas.Stats) float64 { return float64(st.Evictions + st.Expirations) }))
	r.SetHelp("cmod_cas_bytes", "CAS bytes currently on disk, payload plus checksum trailers (bounded by the configured cap).")
	r.Gauge("cmod_cas_bytes", sample(func(st cas.Stats) float64 { return float64(st.LiveBytes) }))
	r.SetHelp("cmod_cas_blobs", "CAS blobs currently held.")
	r.Gauge("cmod_cas_blobs", sample(func(st cas.Stats) float64 { return float64(st.Blobs) }))
	r.SetHelp("cmod_cas_shed_total", "CAS requests refused with 429 because every CAS slot was busy.")
	r.Gauge("cmod_cas_shed_total", func() float64 { return float64(s.casShed.Load()) })
	r.SetHelp("cmod_cas_max_bytes", "Configured CAS disk cap.")
	r.Gauge("cmod_cas_max_bytes", func() float64 { return float64(store.MaxBytes()) })
}
