// Package server is the multi-tenant serving layer over the query engine
// (DESIGN.md §13): a long-lived HTTP front end that maps API keys onto
// per-tenant execution profiles, applies admission control with overload
// shedding ahead of the engines, translates the qerr taxonomy into a
// stable HTTP status table, and drains gracefully on shutdown — stop
// admitting, let in-flight work finish inside a deadline, then cancel
// what remains with qerr.ErrShutdown.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"conquer/internal/cache"
	"conquer/internal/core"
	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/exec"
	"conquer/internal/faultinject"
	"conquer/internal/metrics"
	"conquer/internal/qerr"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
)

// maxBodyBytes bounds request bodies; a query text has no business being
// larger.
const maxBodyBytes = 1 << 20

// defaultConcurrency is the global slot count when Config leaves
// MaxConcurrent zero: one executing query per processor.
func defaultConcurrency() int { return runtime.GOMAXPROCS(0) }

// tenant is one API key's execution profile, bound to its own engine
// (and, when faults are armed, its own clone of the database).
type tenant struct {
	name    string
	slots   chan struct{} // per-tenant concurrency cap; nil = uncapped
	eng     *engine.Engine
	ev      core.Evaluator // clean answers, on eng
	faulted bool
}

// Server is the HTTP serving layer. Create with New, mount as an
// http.Handler, stop with Drain.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	tenants  map[string]*tenant // API key → tenant
	reg      *metrics.Registry
	qlog     *metrics.QueryLog
	maxQueue int

	// baseCtx is canceled (cause qerr.ErrShutdown) when the drain
	// deadline passes; every request context is linked to it.
	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	slots    chan struct{} // global execution slots
	queued   atomic.Int64
	inflight atomic.Int64
	cost     costModel

	draining atomic.Bool
	drainCh  chan struct{} // closed when drain begins: wakes queued waiters
	drainMu  sync.Mutex
	active   int           // live request handlers, guarded by drainMu
	idle     chan struct{} // closed when draining and active hits 0

	admitted      *metrics.Counter
	shed          *metrics.Counter
	inflightGauge *metrics.Gauge
	queuePeak     *metrics.Gauge
}

// New builds a server over store from cfg. Tenants without fault rules
// share store; tenants with fault rules get a private clone with a
// faultinject schedule installed, so injected storage failures cannot
// leak into healthy tenants.
func New(store *storage.DB, cfg Config) (*Server, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("server: config declares no tenants")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = defaultConcurrency()
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxConcurrent
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.Default
	}
	baseCtx, baseCancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:           cfg,
		mux:           http.NewServeMux(),
		tenants:       make(map[string]*tenant, len(cfg.Tenants)),
		reg:           reg,
		qlog:          cfg.QueryLog,
		maxQueue:      cfg.MaxQueue,
		baseCtx:       baseCtx,
		baseCancel:    baseCancel,
		slots:         make(chan struct{}, cfg.MaxConcurrent),
		drainCh:       make(chan struct{}),
		idle:          make(chan struct{}),
		admitted:      reg.Counter("server.admitted"),
		shed:          reg.Counter("server.shed"),
		inflightGauge: reg.Gauge("server.inflight"),
		queuePeak:     reg.Gauge("server.queue_peak"),
	}
	for _, tc := range cfg.Tenants {
		if tc.Name == "" || tc.Key == "" {
			baseCancel(nil)
			return nil, fmt.Errorf("server: tenant needs both name and key (got name=%q)", tc.Name)
		}
		if _, dup := s.tenants[tc.Key]; dup {
			baseCancel(nil)
			return nil, fmt.Errorf("server: duplicate API key for tenant %q", tc.Name)
		}
		lim := exec.Limits{}
		if tc.Limits != nil {
			lim = *tc.Limits
		} else {
			var err error
			lim, err = Preset(tc.Preset)
			if err != nil {
				baseCancel(nil)
				return nil, fmt.Errorf("server: tenant %q: %w", tc.Name, err)
			}
		}
		var qcache *cache.Cache
		if tc.CacheBytes > 0 {
			qcache = cache.New(cache.Options{MaxBytes: tc.CacheBytes})
		}
		tstore := store
		if len(tc.Faults) > 0 {
			clone, err := store.Clone()
			if err != nil {
				baseCancel(nil)
				return nil, fmt.Errorf("server: cloning store for faulted tenant %q: %w", tc.Name, err)
			}
			rules := make([]faultinject.Rule, len(tc.Faults))
			for i, fr := range tc.Faults {
				rules[i] = fr.rule()
			}
			clone.SetInjector(faultinject.New(rules...))
			tstore = clone
		}
		eng := engine.NewWithOptions(tstore, engine.Options{
			Limits:      lim,
			Parallelism: cfg.Parallelism,
			QueryLog:    cfg.QueryLog,
			Cache:       qcache,
		})
		tn := &tenant{
			name:    tc.Name,
			faulted: len(tc.Faults) > 0,
			eng:     eng,
			ev:      core.Evaluator{DB: dirty.New(tstore), Engine: eng},
		}
		if tc.MaxConcurrent > 0 {
			tn.slots = make(chan struct{}, tc.MaxConcurrent)
		}
		s.tenants[tc.Key] = tn
	}
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/clean", s.handleClean)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s, nil
}

// ServeHTTP dispatches to the server's routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// enter registers a live request handler, refusing once drain has begun.
func (s *Server) enter() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.active++
	return true
}

// exit retires a live request handler, signalling the drain waiter when
// the last one leaves.
func (s *Server) exit() {
	s.drainMu.Lock()
	s.active--
	if s.active == 0 && s.draining.Load() {
		s.closeIdleLocked()
	}
	s.drainMu.Unlock()
}

// closeIdleLocked closes the idle channel once; drainMu must be held.
func (s *Server) closeIdleLocked() {
	select {
	case <-s.idle:
	default:
		close(s.idle)
	}
}

// Drain gracefully shuts the server down: new work is refused with 503
// immediately (including requests already queued for a slot), in-flight
// queries get cfg.DrainTimeout to finish, and whatever is still running
// after that is canceled with qerr.ErrShutdown and given the same window
// again to unwind. Drain is idempotent and safe to call concurrently; it
// returns an error only if a request survived cancellation.
func (s *Server) Drain() error {
	s.drainMu.Lock()
	if !s.draining.Load() {
		s.draining.Store(true)
		close(s.drainCh)
		if s.active == 0 {
			s.closeIdleLocked()
		}
	}
	s.drainMu.Unlock()

	soft := time.NewTimer(s.cfg.DrainTimeout)
	defer soft.Stop()
	select {
	case <-s.idle:
		s.baseCancel(qerr.ErrShutdown)
		return nil
	case <-soft.C:
	}
	// The soft window passed: cancel in-flight work and give it the same
	// window again to observe the cancellation and unwind.
	s.baseCancel(qerr.ErrShutdown)
	hard := time.NewTimer(s.cfg.DrainTimeout)
	defer hard.Stop()
	select {
	case <-s.idle:
		return nil
	case <-hard.C:
		return fmt.Errorf("server: drain timed out with requests still in flight")
	}
}

// authenticate resolves the request's API key ("Authorization: Bearer
// <key>" or "X-Api-Key: <key>") to its tenant.
func (s *Server) authenticate(r *http.Request) (*tenant, error) {
	key := r.Header.Get("X-Api-Key")
	if key == "" {
		if h := r.Header.Get("Authorization"); strings.HasPrefix(h, "Bearer ") {
			key = strings.TrimPrefix(h, "Bearer ")
		}
	}
	tn, ok := s.tenants[key]
	if key == "" || !ok {
		return nil, ErrUnauthorized
	}
	return tn, nil
}

// queryRequest is the body of POST /v1/query and /v1/clean.
type queryRequest struct {
	SQL string `json:"sql"`
	// Samples and Seed apply to /v1/clean only: Monte-Carlo sample count
	// (tenant default when 0, a 400 when negative) and RNG seed for
	// reproducible estimates.
	Samples int   `json:"samples,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
}

// QueryStats is the accounting block attached to every successful
// response.
type QueryStats struct {
	Rows         int   `json:"rows"`
	ExecMicros   int64 `json:"exec_us"`
	QueuedMicros int64 `json:"queued_us"`
	Parallelism  int   `json:"par,omitempty"`
	Cached       bool  `json:"cached,omitempty"`
}

// QueryResponse, CleanAnswer and CleanResponse are the wire schema of the
// two result endpoints, for clients to decode into. The server does not
// encode them: writeQuery and writeClean (encode.go) write the same bytes
// straight from the engine's values.

// QueryResponse is the body of a successful POST /v1/query.
type QueryResponse struct {
	Columns []string   `json:"columns"`
	Rows    [][]any    `json:"rows"`
	Stats   QueryStats `json:"stats"`
}

// CleanAnswer is one clean answer: the row, its probability of being in
// the answer of every clean database, and the standard error when the
// probability is a Monte-Carlo estimate.
type CleanAnswer struct {
	Values []any   `json:"values"`
	Prob   float64 `json:"prob"`
	StdErr float64 `json:"stderr,omitempty"`
}

// CleanResponse is the body of a successful POST /v1/clean.
type CleanResponse struct {
	Columns  []string      `json:"columns"`
	Answers  []CleanAnswer `json:"answers"`
	Method   string        `json:"method"`
	Degraded []string      `json:"degraded,omitempty"`
	Samples  int           `json:"samples,omitempty"`
	StdErr   float64       `json:"stderr,omitempty"`
	Stats    QueryStats    `json:"stats"`
}

// decodeRequest parses the JSON body, returning an ErrUnparsable-shaped
// error (mapped to 400) on malformed input.
func decodeRequest(r *http.Request) (queryRequest, error) {
	var req queryRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("server: invalid request body: %w", err)
	}
	// Decode stops after one value; anything but space after it is a
	// malformed body, not a second request to ignore.
	if _, err := dec.Token(); err != io.EOF {
		return req, fmt.Errorf("server: invalid request body: trailing data after the JSON object")
	}
	if strings.TrimSpace(req.SQL) == "" {
		return req, fmt.Errorf("server: request body needs a non-empty \"sql\" field")
	}
	return req, nil
}

// requestContext derives the per-request context: cancelable with a
// cause, and linked to baseCtx so a drain hard-cancel marks in-flight
// work with qerr.ErrShutdown (surfacing as 503, not 499).
func (s *Server) requestContext(r *http.Request) (context.Context, func()) {
	ctx, cancel := context.WithCancelCause(r.Context())
	stop := context.AfterFunc(s.baseCtx, func() { cancel(qerr.ErrShutdown) })
	return ctx, func() {
		stop()
		cancel(nil)
	}
}

// logRefusal writes the query-log line for a request refused at
// admission; executed queries and clean evaluations are logged by the
// engine and the evaluator themselves.
func (s *Server) logRefusal(tn *tenant, sql, reason string) {
	s.qlog.Record(metrics.QueryRecord{
		SQLHash: metrics.HashQuery(sql),
		Method:  "sql",
		Err:     reason,
		Tenant:  tn.name,
		Shed:    reason == "shed" || reason == "shutdown",
	})
}

// admitted is a request past the prologue of the result endpoints: ctx is
// its context tagged with the tenant and its queue wait, and finish gives
// back what the prologue took.
type admitted struct {
	ctx    context.Context
	tk     *ticket
	cancel func()
}

// finish releases the execution slots, cancels the request context and
// retires the handler, in that order.
func (a admitted) finish() {
	a.tk.release()
	a.cancel()
	a.tk.s.exit()
}

// admitRequest is the prologue POST /v1/query and /v1/clean share, run
// after the body is decoded: it enters the server, derives the request
// context, admits the request on tn's slots and adds metrics.QueryInfo to
// the context. A refusal (draining, shed, or the context ending while
// queued) is written and logged against sql, and ok is false; otherwise
// the caller defers adm.finish.
func (s *Server) admitRequest(w http.ResponseWriter, r *http.Request, tn *tenant, sql string) (adm admitted, ok bool) {
	if !s.enter() {
		_, reason := s.writeError(w, ErrDraining)
		s.logRefusal(tn, sql, reason)
		return admitted{}, false
	}
	ctx, cancel := s.requestContext(r)
	tk, err := s.admit(ctx, tn)
	if err != nil {
		_, reason := s.writeError(w, err)
		s.logRefusal(tn, sql, reason)
		cancel()
		s.exit()
		return admitted{}, false
	}
	ctx = metrics.ContextWithQueryInfo(ctx, metrics.QueryInfo{
		Tenant:       tn.name,
		QueuedMicros: tk.queued.Microseconds(),
	})
	return admitted{ctx: ctx, tk: tk, cancel: cancel}, true
}

// handleQuery runs a plain SQL query under the tenant's limits.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	tn, err := s.authenticate(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	req, err := decodeRequest(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	adm, ok := s.admitRequest(w, r, tn, req.SQL)
	if !ok {
		return
	}
	defer adm.finish()
	start := time.Now()
	res, err := tn.eng.QueryCtx(adm.ctx, req.SQL)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.cost.observe(res.Stats.BufferedPeak, time.Since(start))
	s.writeQuery(w, res.Columns, res.Rows, QueryStats{
		Rows:         res.Stats.Rows,
		ExecMicros:   res.Stats.ExecTime.Microseconds(),
		QueuedMicros: adm.tk.queued.Microseconds(),
		Parallelism:  res.Stats.Parallelism,
		Cached:       res.Stats.Cached,
	})
}

// handleClean evaluates a clean-answer query through the degradation
// ladder on the tenant's engine: its limits, settings, cache and query
// log.
func (s *Server) handleClean(w http.ResponseWriter, r *http.Request) {
	tn, err := s.authenticate(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	req, err := decodeRequest(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	stmt, err := sqlparse.Parse(req.SQL)
	if err != nil {
		s.writeError(w, err)
		return
	}
	adm, ok := s.admitRequest(w, r, tn, req.SQL)
	if !ok {
		return
	}
	defer adm.finish()
	start := time.Now()
	res, err := tn.ev.Eval(adm.ctx, stmt, core.EvalOptions{Samples: req.Samples, Seed: req.Seed})
	elapsed := time.Since(start)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.cost.observe(res.Stats.BufferedPeak, elapsed)
	s.writeClean(w, res, QueryStats{
		Rows:         len(res.Answers),
		ExecMicros:   elapsed.Microseconds(),
		QueuedMicros: adm.tk.queued.Microseconds(),
		Cached:       res.Cached,
	})
}

// handleHealth reports liveness: 200 while serving, 503 once draining so
// load balancers stop routing here during shutdown.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("{\"status\":\"draining\"}\n"))
		return
	}
	_, _ = w.Write([]byte("{\"status\":\"ok\"}\n"))
}

// statsResponse is the body of GET /v1/stats.
type statsResponse struct {
	Admitted  int64    `json:"admitted"`
	Shed      int64    `json:"shed"`
	InFlight  int64    `json:"inflight"`
	Queued    int64    `json:"queued"`
	QueuePeak int64    `json:"queue_peak"`
	Draining  bool     `json:"draining"`
	Tenants   []string `json:"tenants"`
}

// handleStats exposes the serving counters for load tests and operators.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	names := make([]string, 0, len(s.tenants))
	for _, tn := range s.tenants {
		names = append(names, tn.name)
	}
	sort.Strings(names)
	s.writeJSON(w, statsResponse{
		Admitted:  s.admitted.Load(),
		Shed:      s.shed.Load(),
		InFlight:  s.inflight.Load(),
		Queued:    s.queued.Load(),
		QueuePeak: s.queuePeak.Load(),
		Draining:  s.draining.Load(),
		Tenants:   names,
	})
}

// writeJSON renders a 200 with a JSON body. Only GET /v1/stats uses it:
// result data goes through writeQuery and writeClean. An error is a write
// to a client that has gone, with nobody left to tell.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(v)
}
