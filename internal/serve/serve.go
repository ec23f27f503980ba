// Package serve exposes a fused-KB store over HTTP — the read path of
// the ROADMAP's "serve heavy traffic" goal. The API is versioned under
// /v1 and multi-truth aware: attribute lookups return every accepted
// value with its fused confidence and hierarchy ancestors, not a single
// "the" answer.
//
// Routes:
//
//	GET  /v1/entity/{id}              all fused knowledge about one entity
//	GET  /v1/triples/{entity}/{attr}  accepted values for one attribute
//	GET  /v1/query?class=&attr=&value=[&entity=&limit=]  filtered fact search
//	POST /v1/datalog                  conjunctive queries with joins (see API.md)
//	POST /v1/admin/reload             hot-swap to a freshly loaded snapshot
//	GET  /healthz                     liveness + health state machine + version
//	GET  /readyz                      readiness (503 while starting/draining)
//	GET  /metrics                     metric registry: JSON by default, Prometheus
//	                                  text exposition via ?format=prom or an
//	                                  Accept header naming openmetrics/text-plain
//
// Production hygiene: per-request timeouts, a bounded in-flight request
// count with 429 load shedding above it, a generation-keyed response
// cache, panic isolation (a handler panic becomes a 500 and a counter,
// never a dead process), zero-downtime hot reload (SIGHUP wiring in cmd/
// akb plus the admin endpoint swap the store atomically and keep serving
// the old one if the new snapshot is bad), graceful shutdown draining
// in-flight requests, and akb_serve_* counters/histograms in the shared
// obs registry.
//
// Observability: every response carries an X-Request-ID (adopted from
// the client or generated), the optional Config.AccessLog emits one
// structured JSON line per request, and Config.Obs opens a span per
// request so traces, logs and metrics correlate on the request ID.
// AdminHandler exposes net/http/pprof for a separate, opt-in admin
// listener (`akb serve -pprof`).
//
// The server does not serve one store; it serves a *generation*: an
// atomically swappable handle bundling the store, the querier the
// handlers actually read through (possibly chaos-wrapped), the
// generation number and that generation's own response cache. A request
// loads the handle once and sees one generation end to end; a reload
// builds a fresh handle and swaps the pointer, so concurrent requests
// are torn-read-free by construction and the old cache can never leak
// stale bodies into the new generation.
//
// Every error response — 400, 404, 429, 500, 503 — uses the same JSON
// envelope: {"error": "...", "status": N}.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"akb/internal/obs"
	"akb/internal/store"
)

// Config tunes the server. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Addr is the listen address, e.g. ":8080".
	Addr string
	// MaxInFlight bounds concurrently served requests; requests beyond
	// the bound are shed with 429 Too Many Requests.
	MaxInFlight int
	// RequestTimeout bounds one request's handling time; requests that
	// exceed it receive 503.
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: how long in-flight requests
	// may keep running after the shutdown signal.
	DrainTimeout time.Duration
	// CacheSize bounds the response cache (entries per store generation);
	// 0 disables caching.
	CacheSize int
	// MaxResults caps /v1/query results when the request sends no
	// explicit smaller limit.
	MaxResults int
	// Reloader loads a fresh store for hot reload (SIGHUP or
	// POST /v1/admin/reload) — typically a closure re-reading the
	// snapshot file, off the serving path. One successful reload swaps the
	// whole serving surface — every shard included — behind a single
	// generation pointer. Nil disables reloading.
	Reloader func() (store.Querier, error)
	// WrapQuerier, when set, wraps the querier of every store generation
	// the server adopts (initial store and each reload). The chaos
	// harness injects faults here; it is also the seam for remote
	// queriers.
	WrapQuerier func(store.Querier) store.Querier
	// AccessLog, when set, receives one "request" record per request
	// (request ID, method, path, status, bytes, duration, generation), at
	// ERROR for a 5xx and INFO otherwise. Nil disables access logging with
	// zero per-request cost.
	AccessLog *slog.Logger
	// Obs, when set, is the telemetry run the server traces requests
	// into: one span per request, correlated by request ID with reload
	// and chaos events in the same trace. Callers should cap the run's
	// trace (Trace().SetLimit) — a production server otherwise retains a
	// span per request forever.
	Obs *obs.Run
}

// DefaultConfig returns production-leaning defaults.
func DefaultConfig() Config {
	return Config{
		Addr:           ":8080",
		MaxInFlight:    64,
		RequestTimeout: 5 * time.Second,
		DrainTimeout:   10 * time.Second,
		CacheSize:      4096,
		MaxResults:     1000,
	}
}

// Health is the server's lifecycle state machine:
//
//	starting ──load──▶ serving ◀──reload ok──┐
//	                      │                  │
//	                      └──reload failed──▶ degraded
//	   any state ──shutdown──▶ draining
//
// Liveness (/healthz) is 200 in every state — the process is up.
// Readiness (/readyz) is 200 only in serving and degraded: a degraded
// server failed its last reload but still serves the previous good
// generation, so it keeps taking traffic while operators see the state.
type Health int32

const (
	// HealthStarting: constructed without a store; query routes 503
	// until the first successful reload installs one.
	HealthStarting Health = iota
	// HealthServing: a good store generation is installed.
	HealthServing
	// HealthDegraded: the last reload failed; the previous generation
	// is still serving.
	HealthDegraded
	// HealthDraining: shutdown began; in-flight requests are finishing.
	HealthDraining
)

func (h Health) String() string {
	switch h {
	case HealthStarting:
		return "starting"
	case HealthServing:
		return "serving"
	case HealthDegraded:
		return "degraded"
	case HealthDraining:
		return "draining"
	}
	return fmt.Sprintf("health(%d)", int32(h))
}

// ready reports whether the state accepts query traffic.
func (h Health) ready() bool { return h == HealthServing || h == HealthDegraded }

// generation is the atomically swappable serving handle: one immutable
// store, the querier handlers read through, and a response cache scoped to
// exactly this generation. Swapping the pointer retires store, every shard
// and cache together, which is what makes reload sound for cached bodies
// and shard routing alike.
type generation struct {
	st    store.Querier
	q     store.Querier
	num   uint64
	cache *respCache
}

// Server serves atomically swappable store generations. Create with New.
type Server struct {
	reg     *obs.Registry
	m       metrics
	cfg     Config
	started time.Time
	version string

	cur    atomic.Pointer[generation]
	genSeq atomic.Uint64
	health atomic.Int32

	// reloadMu serialises reloads; lastReloadErr carries the most recent
	// failure for /healthz (empty string pointer = none).
	reloadMu      sync.Mutex
	lastReloadErr atomic.Pointer[string]

	inflight chan struct{}
	handler  http.Handler
}

// metrics are the server's series, resolved from the registry once in New:
// a request touches six to nine of them, and a lookup by name is a lock and
// a key build each. A nil registry resolves them all to nil, whose methods
// are no-ops.
type metrics struct {
	requests, shed, cacheHits, cacheMisses *obs.Counter
	errors, panics                         *obs.Counter
	reloads, reloadFailures                *obs.Counter
	inflight, health, generation, uptime   *obs.Gauge
	latency                                *obs.Histogram

	datalogQueries, datalogRows, datalogProbes *obs.Counter
	datalogLatency                             *obs.Histogram
}

func resolveMetrics(reg *obs.Registry) metrics {
	// Route latencies are tens of microseconds off the indexed store, so
	// the histograms use the sub-millisecond serve bounds, not the coarser
	// pipeline-stage defaults.
	buckets := obs.ServeLatencyBuckets()
	return metrics{
		requests:       reg.Counter("akb_serve_requests_total"),
		shed:           reg.Counter("akb_serve_shed_total"),
		cacheHits:      reg.Counter("akb_serve_cache_hits_total"),
		cacheMisses:    reg.Counter("akb_serve_cache_misses_total"),
		errors:         reg.Counter("akb_serve_errors_total"),
		panics:         reg.Counter("akb_serve_panics"),
		reloads:        reg.Counter("akb_serve_reloads_total"),
		reloadFailures: reg.Counter("akb_serve_reload_failures_total"),
		inflight:       reg.Gauge("akb_serve_inflight"),
		health:         reg.Gauge("akb_serve_health_state"),
		generation:     reg.Gauge("akb_serve_store_generation"),
		uptime:         reg.Gauge("akb_serve_uptime_seconds"),
		latency:        reg.Histogram("akb_serve_latency_seconds", buckets),
		datalogQueries: reg.Counter("akb_datalog_queries_total"),
		datalogRows:    reg.Counter("akb_datalog_rows_total"),
		datalogProbes:  reg.Counter("akb_datalog_probes_total"),
		datalogLatency: reg.Histogram("akb_datalog_latency_seconds", buckets),
	}
}

// New builds a server over the store; the handlers read it through
// store.Querier alone. The registry may be nil (metrics become no-ops and
// /metrics returns an empty snapshot). A nil store is allowed: the server
// starts in the "starting" state, answers health probes, and begins
// serving after the first successful Reload — the boot sequence `akb
// serve` uses so a bad snapshot is a clean error, not a half-started
// process.
func New(st store.Querier, reg *obs.Registry, cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultConfig().MaxInFlight
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultConfig().RequestTimeout
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultConfig().DrainTimeout
	}
	if cfg.MaxResults <= 0 {
		cfg.MaxResults = DefaultConfig().MaxResults
	}
	version, commit := obs.BuildInfo()
	s := &Server{
		reg:      reg,
		m:        resolveMetrics(reg),
		cfg:      cfg,
		started:  time.Now(),
		version:  version,
		inflight: make(chan struct{}, cfg.MaxInFlight),
	}
	// akb_build_info is the Prometheus idiom for exposing identity:
	// constant 1, the facts ride in the labels.
	reg.GaugeWith("akb_build_info", map[string]string{
		"version": version, "commit": commit, "goversion": obs.GoVersion(),
	}).Set(1)
	s.setHealth(HealthStarting)
	if st != nil {
		s.install(st)
		s.setHealth(HealthServing)
	}
	s.handler = s.buildHandler()
	return s
}

// install adopts a store as the next generation.
func (s *Server) install(st store.Querier) *generation {
	q := st
	if s.cfg.WrapQuerier != nil {
		q = s.cfg.WrapQuerier(q)
	}
	g := &generation{st: st, q: q, num: s.genSeq.Add(1), cache: newRespCache(s.cfg.CacheSize)}
	s.cur.Store(g)
	s.m.generation.Set(float64(g.num))
	return g
}

func (s *Server) setHealth(h Health) {
	s.health.Store(int32(h))
	s.m.health.Set(float64(h))
}

// Health returns the current lifecycle state.
func (s *Server) Health() Health { return Health(s.health.Load()) }

// Generation returns the serving generation number (0 before any store
// is installed).
func (s *Server) Generation() uint64 {
	if g := s.cur.Load(); g != nil {
		return g.num
	}
	return 0
}

// ReloadInfo describes the generation a successful Reload installed.
type ReloadInfo struct {
	Generation uint64 `json:"generation"`
	Facts      int    `json:"facts"`
	Entities   int    `json:"entities"`
}

// Reload loads a fresh store through Config.Reloader and swaps it in
// atomically. The load runs off the serving path: concurrent requests
// keep reading the old generation until the successful swap, and on any
// failure — no reloader, load error, empty store — the old generation
// keeps serving, the server enters the degraded state and the error is
// both returned and surfaced on /healthz. A later successful reload
// clears the degradation.
func (s *Server) Reload() (ReloadInfo, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	// A reload is a trace-worthy event: when the server carries a
	// telemetry run, the swap appears as a span alongside the request
	// spans it raced with.
	var span *obs.Span
	if s.cfg.Obs != nil {
		_, span = obs.StartSpan(obs.Into(context.Background(), s.cfg.Obs), "reload")
		defer span.End()
	}
	fail := func(err error) (ReloadInfo, error) {
		span.RecordError(err)
		s.m.reloadFailures.Inc()
		msg := err.Error()
		s.lastReloadErr.Store(&msg)
		// Only a server that ever served can be degraded; a failed first
		// load keeps it starting.
		if s.Health() == HealthServing {
			s.setHealth(HealthDegraded)
		}
		return ReloadInfo{}, err
	}
	if s.cfg.Reloader == nil {
		return fail(errors.New("serve: no reloader configured (start with a snapshot to enable hot reload)"))
	}
	st, err := s.cfg.Reloader()
	if err != nil {
		return fail(fmt.Errorf("serve: reload: %w", err))
	}
	if st == nil || st.Len() == 0 {
		return fail(errors.New("serve: reload: refusing to swap in an empty store"))
	}
	g := s.install(st)
	span.AnnotateInt("generation", int64(g.num))
	s.lastReloadErr.Store(nil)
	if h := s.Health(); h == HealthStarting || h == HealthDegraded {
		s.setHealth(HealthServing)
	}
	s.m.reloads.Inc()
	return ReloadInfo{Generation: g.num, Facts: st.Len(), Entities: st.EntityCount()}, nil
}

// Handler returns the fully wrapped HTTP handler (recovery, shedding,
// timeout, metrics, routing). Tests drive it through httptest.
func (s *Server) Handler() http.Handler { return s.handler }

// ListenAndServe runs the server until ctx is cancelled (SIGTERM wiring
// is the caller's job), then shuts down gracefully: the listener closes
// immediately, in-flight requests get up to DrainTimeout to finish.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve runs the server on an existing listener; see ListenAndServe.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		s.setHealth(HealthDraining)
		dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			return fmt.Errorf("serve: shutdown: %w", err)
		}
		<-errc // Serve has returned ErrServerClosed
		return nil
	}
}

// buildHandler assembles the middleware chain, outermost first: request
// identity + access log + tracing (observe), panic recovery, metrics +
// load shedding, the request deadline, then cache + routes (each route
// handler carries its own recovery too, so a panic inside a handler
// yields a JSON 500 with the route's headers).
func (s *Server) buildHandler() http.Handler {
	// Routes register without a method in the pattern and enforce it via
	// methodGuard instead: the Go 1.22 mux answers a method mismatch with
	// a text/plain 405, and every /v1 response — errors included — must
	// wear the JSON envelope.
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", methodGuard(http.MethodGet, s.jsonRoute(s.handleHealthz, controlRoute)))
	mux.HandleFunc("/readyz", methodGuard(http.MethodGet, s.jsonRoute(s.handleReadyz, controlRoute)))
	mux.HandleFunc("/metrics", methodGuard(http.MethodGet, s.handleMetricsNegotiated(s.jsonRoute(s.handleMetrics, controlRoute))))
	mux.HandleFunc("/v1/entity/{id}", methodGuard(http.MethodGet, s.jsonRoute(s.handleEntity, cachedRoute)))
	mux.HandleFunc("/v1/triples/{entity}/{attr}", methodGuard(http.MethodGet, s.jsonRoute(s.handleTriples, cachedRoute)))
	mux.HandleFunc("/v1/query", methodGuard(http.MethodGet, s.jsonRoute(s.handleQuery, cachedRoute)))
	mux.HandleFunc("/v1/datalog", methodGuard(http.MethodPost, s.jsonRoute(s.handleDatalog, dataRoute)))
	mux.HandleFunc("/v1/admin/reload", methodGuard(http.MethodPost, s.jsonRoute(s.handleReload, controlRoute)))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusNotFound, errBody(http.StatusNotFound, "unknown route"))
	})

	inner := s.deadline(mux)

	shed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.m.requests.Inc()
		select {
		case s.inflight <- struct{}{}:
		default:
			// At capacity: shed instead of queueing, so overload degrades
			// into fast 429s rather than collapse.
			s.m.shed.Inc()
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errBody(http.StatusTooManyRequests, "server at capacity, retry later"))
			return
		}
		s.m.inflight.Add(1)
		start := time.Now()
		// The slot is held until the handler has really returned: a request
		// answered 503 at its deadline still occupies the server until its
		// handler notices the cancelled context.
		defer func() {
			<-s.inflight
			s.m.inflight.Add(-1)
			s.m.latency.Observe(time.Since(start).Seconds())
		}()
		inner.ServeHTTP(w, r)
	})

	// Near-outermost: last-resort panic isolation. Handler panics are
	// caught per-route inside jsonRoute (where a clean JSON 500 can still
	// be written); this layer catches anything escaping the middleware
	// itself so a panic can never kill the serving goroutine's process.
	// observe wraps even that, so a recovered panic's 500 still carries a
	// request ID and lands in the access log.
	return s.observe(s.recoverPanic(shed))
}

// methodGuard enforces one HTTP method per route, answering mismatches
// with the JSON error envelope (plus an Allow header) instead of the
// mux's plain-text 405. GET routes accept HEAD too, matching what a
// method-qualified mux pattern would do.
func methodGuard(method string, h http.HandlerFunc) http.HandlerFunc {
	allow := method
	if method == http.MethodGet {
		allow = "GET, HEAD"
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method == method || (method == http.MethodGet && r.Method == http.MethodHead) {
			h(w, r)
			return
		}
		w.Header().Set("Allow", allow)
		writeJSON(w, http.StatusMethodNotAllowed,
			errBody(http.StatusMethodNotAllowed, "method %s not allowed on %s (allow: %s)", r.Method, r.URL.Path, allow))
	}
}

// handleMetricsNegotiated serves /metrics in two formats: the JSON
// registry dump (the default, byte-compatible with what `akb report`
// and existing tooling consume) or the Prometheus text exposition when
// the client asks for it — `?format=prom` (or `prometheus`) explicitly,
// or an Accept header naming application/openmetrics-text or text/plain
// (what Prometheus scrapers send). Browsers and bare curl send Accept:
// */*, which stays JSON.
func (s *Server) handleMetricsNegotiated(jsonHandler http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Scrape-time gauges: computed on read, not on a ticker.
		s.m.uptime.Set(time.Since(s.started).Seconds())
		if !wantsProm(r) {
			jsonHandler(w, r)
			return
		}
		w.Header().Set("Content-Type", obs.PromContentType)
		if g := s.cur.Load(); g != nil {
			w.Header().Set("X-Akb-Generation", strconv.FormatUint(g.num, 10))
		}
		if err := s.reg.WritePrometheus(w); err != nil {
			s.m.errors.Inc()
		}
	}
}

// wantsProm decides the /metrics representation; see
// handleMetricsNegotiated. The explicit format parameter wins over the
// Accept header.
func wantsProm(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "application/openmetrics-text") ||
		strings.Contains(accept, "text/plain")
}

// recoverPanic converts a panic below h into a 500 (when the response
// has not started) and an akb_serve_panics increment. ErrAbortHandler
// keeps its net/http meaning and is re-panicked.
func (s *Server) recoverPanic(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if err, ok := rec.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(rec)
			}
			s.m.panics.Inc()
			writeJSON(w, http.StatusInternalServerError,
				errBody(http.StatusInternalServerError, "internal error: %v", rec))
		}()
		h.ServeHTTP(w, r)
	})
}

// routeResult is a handler's outcome: the status and the encoded body,
// newline included, and the reusable buffer the body lives in, if it does.
type routeResult struct {
	status int
	body   []byte
	buf    *bodyBuf
}

// bodyBuf is a body's buffer that outlives its request: jsonRoute hands it
// back to bodies once the body is written, and the next request encodes
// into it, so a body of the same size costs no allocation. A body that
// entered the response cache is the cache's and is never handed back.
type bodyBuf struct{ b []byte }

// bodies is the free list of body buffers.
var bodies = sync.Pool{New: func() any { return new(bodyBuf) }}

// maxReusedBody bounds the buffer kept for reuse: one answer far larger
// than the rest must not pin its buffer.
const maxReusedBody = 64 << 10

// release hands the buffer back to bodies, unless it is too large to keep.
func (b *bodyBuf) release() {
	if cap(b.b) <= maxReusedBody {
		bodies.Put(b)
	}
}

// errorBody is the uniform error envelope every non-2xx response uses.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

func errBody(status int, format string, args ...any) errorBody {
	return errorBody{Error: fmt.Sprintf(format, args...), Status: status}
}

func errRes(status int, format string, args ...any) routeResult {
	return jsonRes(status, errBody(status, format, args...))
}

// jsonRes encodes a response shape that is not on the data path (health,
// metrics, reload, the error envelope) through encoding/json.
func jsonRes(status int, body any) routeResult {
	raw, err := json.Marshal(body)
	if err != nil {
		return encodeFailed
	}
	return routeResult{status: status, body: append(raw, '\n')}
}

// dataRes wraps a data route's hand-encoded body; the encoders fail only on
// a confidence JSON cannot express.
func dataRes(body []byte, err error) routeResult {
	if err != nil {
		return encodeFailed
	}
	return routeResult{status: http.StatusOK, body: body}
}

// encodeFailed answers for a response that could not be encoded.
var encodeFailed = routeResult{status: http.StatusInternalServerError, body: []byte(`{"error":"encode response","status":500}` + "\n")}

// routeKind is what a route reads of the store: nothing a missing store
// stops (health, metrics, reload), a generation, or a generation through
// its response cache.
type routeKind uint8

const (
	controlRoute routeKind = iota
	dataRoute
	cachedRoute // a data route keyed by its URL: a GET
)

// jsonRoute adapts a typed handler into an http.HandlerFunc. The handler
// reads exactly one store generation (loaded once, up front) and
// successful cacheable responses go through that generation's cache, so
// a hot swap mid-request can neither tear a response nor serve a stale
// cached body under the new generation. Before the first store a data
// route is answered 503 without running, counted like any other 5xx. A
// panicking handler yields a JSON 500 and an akb_serve_panics increment.
func (s *Server) jsonRoute(h func(*generation, *http.Request) routeResult, kind routeKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		g := s.cur.Load()
		if g != nil {
			w.Header().Set("X-Akb-Generation", strconv.FormatUint(g.num, 10))
		}
		var key string
		if kind == cachedRoute && g != nil {
			key = r.URL.RequestURI()
			if status, body, ok := g.cache.get(key); ok {
				s.m.cacheHits.Inc()
				writeRaw(w, status, body)
				return
			}
			s.m.cacheMisses.Inc()
		}
		var res routeResult
		if kind != controlRoute && g == nil {
			res = errRes(http.StatusServiceUnavailable, "no store loaded yet (state %s)", s.Health())
		} else {
			var panicked bool
			if res, panicked = s.callRoute(h, g, r); panicked {
				s.m.panics.Inc()
			}
		}
		if res.status >= http.StatusInternalServerError {
			s.m.errors.Inc()
		}
		cached := key != "" && res.status == http.StatusOK
		if cached {
			g.cache.put(key, res.status, res.body)
		}
		writeRaw(w, res.status, res.body)
		// The connection has copied the body: its buffer is free again,
		// unless the cache holds the body.
		if res.buf != nil && !cached {
			res.buf.release()
		}
	}
}

// callRoute runs one typed handler with panic isolation: a panic becomes
// a 500 routeResult instead of unwinding the connection goroutine.
func (s *Server) callRoute(h func(*generation, *http.Request) routeResult, g *generation, r *http.Request) (res routeResult, panicked bool) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if err, ok := rec.(error); ok && errors.Is(err, http.ErrAbortHandler) {
			panic(rec)
		}
		panicked = true
		res = errRes(http.StatusInternalServerError, "internal error: %v", rec)
	}()
	return h(g, r), false
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	res := jsonRes(status, body)
	writeRaw(w, res.status, res.body)
}

// writeRaw writes an encoded body, its trailing newline included.
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// entityID decodes a path segment into a store entity name. Entity IRIs
// replace spaces with underscores, so /v1/entity/Film_3 and
// /v1/entity/Film%203 both resolve. Whether the raw name is an entity is
// asked of the index, not by reading it: the handler's read is the only one.
func entityID(q store.Querier, raw string) string {
	if q.CountEstimate(store.Pattern{Entity: raw}) > 0 {
		return raw
	}
	return strings.ReplaceAll(raw, "_", " ")
}

// healthzBody is the /healthz (and /readyz) response shape.
type healthzBody struct {
	Status          string   `json:"status"`
	Ready           bool     `json:"ready"`
	Version         string   `json:"version"`
	Generation      uint64   `json:"generation"`
	Facts           int      `json:"facts"`
	Entities        int      `json:"entities"`
	Shards          int      `json:"shards,omitempty"`
	Classes         []string `json:"classes,omitempty"`
	UptimeMS        int64    `json:"uptime_ms"`
	LastReloadError string   `json:"last_reload_error,omitempty"`
}

func (s *Server) healthBody(g *generation) healthzBody {
	h := s.Health()
	body := healthzBody{
		Status:   h.String(),
		Ready:    h.ready(),
		Version:  s.version,
		UptimeMS: time.Since(s.started).Milliseconds(),
	}
	if g != nil {
		// Summary numbers come straight from the immutable store, not the
		// (possibly chaos-wrapped) querier: liveness must stay reliable
		// under injected faults.
		body.Generation = g.num
		body.Facts = g.st.Len()
		body.Entities = g.st.EntityCount()
		body.Classes = g.st.Classes()
		// The shard count describes a deployment, not a read, so it is not
		// part of Querier: a store reports it, a stand-in need not.
		if sh, ok := g.st.(interface{ ShardCount() int }); ok {
			body.Shards = sh.ShardCount()
		}
	}
	if msg := s.lastReloadErr.Load(); msg != nil {
		body.LastReloadError = *msg
	}
	return body
}

// handleHealthz is the liveness probe: 200 in every state, because the
// process is demonstrably up; the body carries the state machine.
func (s *Server) handleHealthz(g *generation, _ *http.Request) routeResult {
	return jsonRes(http.StatusOK, s.healthBody(g))
}

// handleReadyz is the readiness probe: 200 only when query traffic is
// being served (serving or degraded), 503 while starting or draining so
// load balancers route around the instance.
func (s *Server) handleReadyz(g *generation, _ *http.Request) routeResult {
	body := s.healthBody(g)
	if !body.Ready {
		return jsonRes(http.StatusServiceUnavailable, body)
	}
	return jsonRes(http.StatusOK, body)
}

func (s *Server) handleReload(_ *generation, _ *http.Request) routeResult {
	info, err := s.Reload()
	if err != nil {
		return errRes(http.StatusInternalServerError, "%v", err)
	}
	return jsonRes(http.StatusOK, struct {
		Status string `json:"status"`
		ReloadInfo
	}{"reloaded", info})
}

func (s *Server) handleMetrics(_ *generation, _ *http.Request) routeResult {
	snap := s.reg.Snapshot()
	if snap == nil {
		snap = []obs.Metric{}
	}
	return jsonRes(http.StatusOK, struct {
		Metrics []obs.Metric `json:"metrics"`
	}{snap})
}

func (s *Server) handleEntity(g *generation, r *http.Request) routeResult {
	id := entityID(g.q, r.PathValue("id"))
	facts := store.Lookup(g.q, store.Pattern{Entity: id})
	if len(facts) == 0 {
		return errRes(http.StatusNotFound, "no fused knowledge about entity %q", id)
	}
	return dataRes(encodeEntity(id, facts))
}

func (s *Server) handleTriples(g *generation, r *http.Request) routeResult {
	entity := entityID(g.q, r.PathValue("entity"))
	// Attribute names are canonical with spaces; accept the underscore
	// form too, mirroring how attribute IRIs are minted.
	attr := r.PathValue("attr")
	facts := store.Lookup(g.q, store.Pattern{Entity: entity, Attr: attr})
	if len(facts) == 0 {
		attr = strings.ReplaceAll(attr, "_", " ")
		facts = store.Lookup(g.q, store.Pattern{Entity: entity, Attr: attr})
	}
	if len(facts) == 0 {
		return errRes(http.StatusNotFound, "no accepted values for (%s, %s)", entity, attr)
	}
	return dataRes(encodeTriples(entity, attr, facts))
}

func (s *Server) handleQuery(g *generation, r *http.Request) routeResult {
	qs := r.URL.Query()
	for param := range qs {
		switch param {
		case "entity", "class", "attr", "value", "limit":
		default:
			return errRes(http.StatusBadRequest, "unknown query parameter %q", param)
		}
	}
	q := store.Pattern{
		Entity: qs.Get("entity"),
		Class:  qs.Get("class"),
		Attr:   qs.Get("attr"),
		Value:  qs.Get("value"),
	}
	if q == (store.Pattern{}) {
		return errRes(http.StatusBadRequest, "at least one of entity, class, attr, value is required")
	}
	limit := s.cfg.MaxResults
	if raw := qs.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			return errRes(http.StatusBadRequest, "invalid limit %q", raw)
		}
		if n < limit {
			limit = n
		}
	}
	// The page is copied, the rest only counted.
	facts, total := store.LookupN(g.q, q, limit)
	return dataRes(encodeQuery(g.num, total, facts))
}

// respCache is a bounded response cache over one immutable store
// generation. It never evicts (the key space is finite and the
// generation never changes; a reload retires the whole cache with its
// generation); once full it simply stops admitting, which keeps the
// implementation free of LRU bookkeeping on the hot path.
type respCache struct {
	mu     sync.RWMutex
	max    int
	full   atomic.Bool // len(bodies) reached max; set under mu, never cleared
	bodies map[string]cachedResp
}

type cachedResp struct {
	status int
	body   []byte
}

func newRespCache(max int) *respCache {
	return &respCache{max: max, bodies: make(map[string]cachedResp)}
}

func (c *respCache) get(key string) (int, []byte, bool) {
	if c.max <= 0 {
		return 0, nil, false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.bodies[key]
	return r.status, r.body, ok
}

// put admits the body while there is room. A full cache stays full, so a
// miss on one — most requests of a key space wider than the cache — is
// turned away without the exclusive lock that would stall every reader.
func (c *respCache) put(key string, status int, body []byte) {
	if c.max <= 0 || c.full.Load() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.bodies) >= c.max {
		return
	}
	c.bodies[key] = cachedResp{status, body}
	if len(c.bodies) >= c.max {
		c.full.Store(true)
	}
}

// Keys returns the cached keys in sorted order (for tests).
func (c *respCache) Keys() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.bodies))
	for k := range c.bodies {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
