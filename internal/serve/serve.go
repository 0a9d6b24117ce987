// Package serve is the long-running campaign service: the HEALERS
// pipeline behind an HTTP/JSON API instead of a one-shot CLI process.
// Clients submit prototype-set campaigns (POST /v1/campaigns), follow
// per-function progress over SSE (GET /v1/campaigns/{id}/events), and
// fetch robust-type vectors that are byte-identical to the CLI path
// (GET /v1/campaigns/{id}/vectors). Results are memoized at two
// levels: identical submissions content-address to the same campaign
// record (a burst of duplicates runs once), and per-function results
// live in a shared injector.ResultCache — persistent across restarts when
// the server is opened over a disk cache — which also deduplicates
// concurrent computations of one function. The obs registry backs GET
// /metrics in the Prometheus text exposition.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"

	"healers/internal/clib"
	"healers/internal/cmem"
	"healers/internal/corpus"
	"healers/internal/extract"
	"healers/internal/injector"
	"healers/internal/obs"
)

// Options configures a Server.
type Options struct {
	// CachePath backs the per-function result cache with a persistent
	// JSONL file (injector.OpenDiskCache); empty uses a process-lifetime
	// in-memory cache.
	CachePath string
	// Workers is the default campaign parallelism for submissions that
	// do not set their own (injector.ResolveWorkers convention: 0 = one
	// worker per CPU, negative = sequential).
	Workers int
	// Registry receives every metric — request counters, in-flight
	// gauges, and all injector campaign counters. Nil creates one.
	Registry *obs.Registry
	// Pprof mounts net/http/pprof under /debug/pprof/ on the service
	// handler and switches on mutex/block contention sampling, so the
	// cache-shard lock profiles are capturable live.
	// Off by default: the profiler exposes goroutine dumps and CPU
	// samples, which only an operator who asked for them should see.
	Pprof bool
}

// Server owns the extraction products, the shared result cache, and
// the set of submitted campaigns. Its Handler is safe for concurrent
// use; campaigns run on background goroutines drained by Close.
type Server struct {
	lib     *clib.Library
	ext     *extract.Result
	cache   *injector.ResultCache // persistent iff CachePath was set
	reg     *obs.Registry
	workers int
	pprof   bool
	started time.Time

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string // submission order, for stable listings
	draining  bool

	wg sync.WaitGroup

	gInflight  *obs.Gauge
	mSubmitted *obs.Counter
	mDeduped   *obs.Counter
	mDone      *obs.Counter
	mFailed    *obs.Counter
	mCommits   *obs.Counter
	hRequestMS *obs.Histogram
}

// requestMSBuckets bound the request-duration histogram: sub-ms cache
// answers through multi-second cold campaigns.
var requestMSBuckets = []int64{1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 60000}

// New builds the simulated library, runs extraction, and opens the
// result cache. The returned server is ready to serve; call Close to
// drain campaigns and release the cache file.
func New(opts Options) (*Server, error) {
	lib := clib.New()
	ext, err := extract.Run(corpus.Build(lib))
	if err != nil {
		return nil, fmt.Errorf("serve: extraction: %w", err)
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		lib:       lib,
		ext:       ext,
		reg:       reg,
		workers:   opts.Workers,
		pprof:     opts.Pprof,
		started:   time.Now(),
		campaigns: make(map[string]*campaign),
	}
	if opts.CachePath != "" {
		if s.cache, err = injector.OpenDiskCache(opts.CachePath); err != nil {
			return nil, err
		}
	} else {
		s.cache = injector.NewResultCache()
	}
	if s.pprof {
		// Contention profiling is only useful when an operator asked for
		// the profiler, and it is not free: sample every mutex hand-off
		// (fraction 1) and block events ≥ ~1µs, enough to see page-pool
		// and cache-shard contention without drowning the scheduler.
		runtime.SetMutexProfileFraction(1)
		runtime.SetBlockProfileRate(int(time.Microsecond))
	}
	s.gInflight = reg.Gauge("healers_serve_inflight_campaigns")
	s.mSubmitted = reg.Counter("healers_serve_campaigns_submitted_total")
	s.mDeduped = reg.Counter("healers_serve_campaigns_deduped_total")
	s.mDone = reg.Counter("healers_serve_campaigns_done_total")
	s.mFailed = reg.Counter("healers_serve_campaigns_failed_total")
	s.mCommits = reg.Counter("healers_serve_commits_total")
	s.hRequestMS = reg.Histogram("healers_http_request_ms", requestMSBuckets)
	return s, nil
}

// Handler returns the service's routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.instrument("/v1/campaigns", s.handleSubmit))
	mux.HandleFunc("GET /v1/campaigns", s.instrument("/v1/campaigns", s.handleList))
	mux.HandleFunc("GET /v1/campaigns/{id}", s.instrument("/v1/campaigns/{id}", s.handleStatus))
	mux.HandleFunc("GET /v1/campaigns/{id}/vectors", s.instrument("/v1/campaigns/{id}/vectors", s.handleVectors))
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.instrument("/v1/campaigns/{id}/events", s.handleEvents))
	mux.HandleFunc("GET /v1/campaigns/{id}/trace", s.instrument("/v1/campaigns/{id}/trace", s.handleTrace))
	mux.HandleFunc("GET /v1/campaigns/{id}/profile", s.instrument("/v1/campaigns/{id}/profile", s.handleProfile))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// BeginDrain stops the server accepting new campaign submissions
// (they get 503) while existing campaigns keep running. Status,
// vector, event, and metrics reads stay available throughout.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Close gracefully shuts the campaign engine down: no new submissions,
// every running campaign drains to completion (bounded by ctx), and
// the disk cache is synced and closed. Safe to call once alongside
// http.Server.Shutdown.
func (s *Server) Close(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
	return s.cache.Close()
}

// statusRecorder captures the response code for the request counter
// while passing Flush through for SSE streams.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the request-level metrics: one
// counter per (method, route pattern, status code) — patterns, not raw
// paths, so cardinality stays bounded — and the duration histogram.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(sr, r)
		s.reg.Counter(fmt.Sprintf(
			"healers_http_requests_total{method=%q,path=%q,code=\"%d\"}",
			r.Method, pattern, sr.code)).Inc()
		s.hRequestMS.Observe(time.Since(start).Milliseconds())
	}
}

// apiError is the uniform JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing to do about a dead client
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) lookup(id string) (*campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.campaigns)
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_s":  int64(time.Since(s.started).Seconds()),
		"campaigns": n,
		"draining":  draining,
	})
}

// handleMetrics renders the Prometheus exposition. Cache and flight
// gauges are refreshed at scrape time from the cache's per-shard
// consistent Stats snapshot, so a scrape mid-campaign sees a
// consistent view (entries can never run ahead of misses+loaded).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.cache.Stats()
	s.reg.Gauge("healers_cache_entries").Set(st.Entries)
	s.reg.Gauge("healers_cache_hits").Set(st.Hits)
	s.reg.Gauge("healers_cache_misses").Set(st.Misses)
	s.reg.Gauge("healers_cache_loaded").Set(st.Loaded)
	s.reg.Gauge("healers_cache_dropped").Set(st.Dropped)
	// Truncated is the crash-loop counter: how many times this cache
	// generation found the partial final line a mid-append kill leaves.
	s.reg.Gauge("healers_cache_truncated").Set(st.Truncated)
	s.reg.Gauge("healers_flight_leads").Set(st.Leads)
	s.reg.Gauge("healers_flight_joins").Set(st.Joins)
	s.reg.Gauge("healers_flight_inflight").Set(st.InFlight)
	s.mu.Lock()
	s.reg.Gauge("healers_serve_campaigns").Set(int64(len(s.campaigns)))
	s.mu.Unlock()

	// Page-pool traffic: misses growing faster than gets means the pool
	// stopped recycling, and puts falling behind gets means pages leak.
	pc := cmem.PoolCounts()
	s.reg.Gauge("healers_cmem_pool_gets").Set(pc.Gets)
	s.reg.Gauge("healers_cmem_pool_puts").Set(pc.Puts)
	s.reg.Gauge("healers_cmem_pool_misses").Set(pc.Misses)

	// Quantile gauges are materialized at scrape time from the histogram
	// state, so /metrics carries ready-to-alert p50/p95/p99 series
	// without a streaming quantile estimator on the hot paths.
	snap := s.reg.Snapshot()
	for name, h := range snap.Histograms {
		if h.Count == 0 {
			continue
		}
		s.reg.Gauge(name + "_p50").Set(h.P50)
		s.reg.Gauge(name + "_p95").Set(h.P95)
		s.reg.Gauge(name + "_p99").Set(h.P99)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, s.reg.Exposition())
}
