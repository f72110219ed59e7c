// Package metrics is the zero-dependency instrumentation core of the
// engine's observability layer (DESIGN.md §10): lock-free counters,
// gauges and timers safe under the morsel-driven worker pool, a named
// registry for process-level export, and a structured query log that
// emits one JSON line per query.
//
// Everything here is stdlib-only and allocation-free on the hot paths —
// an increment is a single atomic add — so instrumentation can stay on
// by default (the bench suite guards the overhead at <= 3% on Figure 8's
// Q9).
package metrics

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter is valid and discards updates, so
// instrumented code never branches on "is metrics enabled".
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 for a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value with a set-to-maximum update
// for high-water marks. A nil *Gauge discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// SetMax raises the gauge to n if n exceeds the current value — the
// lock-free high-water-mark update used for buffered-row peaks.
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the current value (0 for a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Timer accumulates durations: total nanoseconds and an observation
// count, both atomic. A nil *Timer discards updates.
type Timer struct {
	nanos atomic.Int64
	count atomic.Int64
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.nanos.Add(int64(d))
	t.count.Add(1)
}

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.nanos.Load())
}

// Count returns the number of observations.
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Registry is a named collection of metrics. Lookups lazily create the
// metric, so packages can fetch their counters once at init and share
// the registry without coordination. The zero value is not usable; use
// NewRegistry or the package Default.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
	}
}

// Default is the process-wide registry the engine reports into.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Snapshot returns every metric as a flat name → value map. Timers
// expand into "<name>.nanos" and "<name>.count" so the snapshot stays a
// single integer-valued map, trivially exportable as JSON or expvar.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges)+2*len(r.timers))
	for name, c := range r.counters {
		out[name] = c.Load()
	}
	for name, g := range r.gauges {
		out[name] = g.Load()
	}
	for name, t := range r.timers {
		out[name+".nanos"] = int64(t.Total())
		out[name+".count"] = t.Count()
	}
	return out
}

// WriteJSON writes the snapshot as a sorted, indented JSON object.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	if _, err := io.WriteString(w, "{\n"); err != nil {
		return err
	}
	for i, name := range names {
		sep := ","
		if i == len(names)-1 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "  %q: %d%s\n", name, snap[name], sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}

// Handler serves the registry snapshot as JSON — the `/debug/metrics`
// endpoint behind cmd/conquer's -metrics-addr flag.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := r.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// HashQuery returns a stable short hash of a query text (FNV-1a 64,
// hex). Query logs record the hash instead of the text so log volume —
// and log sensitivity — stays independent of query length.
func HashQuery(sql string) string {
	h := fnv.New64a()
	_, _ = io.WriteString(h, sql)
	return fmt.Sprintf("%016x", h.Sum64())
}

// QueryRecord is one structured query-log line (DESIGN.md §10 documents
// the schema; fields are stable).
type QueryRecord struct {
	// SQLHash identifies the query text without recording it.
	SQLHash string `json:"sql_hash"`
	// Method is the evaluation path: "sql" for plain engine queries, the
	// core.Method name ("exact", "rewrite", "monte-carlo") for
	// clean-answer evaluations.
	Method string `json:"method"`
	// Rows is the number of result rows (0 on error).
	Rows int `json:"rows"`
	// Micros is the wall-clock duration in microseconds.
	Micros int64 `json:"us"`
	// Parallelism is the planned worker count, when known.
	Parallelism int `json:"par,omitempty"`
	// Shards is the planned cluster-shard count, when known (1 means
	// unsharded scans).
	Shards int `json:"shards,omitempty"`
	// Cached reports that the rows were served from the result cache
	// rather than executed. Rows and Micros are still recorded for
	// cached answers, so latency percentiles include hits.
	Cached bool `json:"cached,omitempty"`
	// Batches counts the output batches the plan root produced (0 for
	// cached answers).
	Batches int64 `json:"batches,omitempty"`
	// Err is the one-word failure reason ("" on success): a qerr keyword
	// such as "budget", or "error" for failures outside the taxonomy.
	Err string `json:"err,omitempty"`
	// Tenant names the serving-layer tenant the query ran for ("" for
	// queries outside the server, e.g. the REPL or the Go API).
	Tenant string `json:"tenant,omitempty"`
	// QueuedMicros is the time the request waited in the server's
	// admission queue before execution began, in microseconds.
	QueuedMicros int64 `json:"queued_us,omitempty"`
	// Shed reports that the server refused the query at admission (queue
	// or memory watermark crossed, or draining); the query never executed
	// and Micros records only the admission latency.
	Shed bool `json:"shed,omitempty"`
}

// QueryInfo is per-request serving metadata the server threads through
// the query context so the engine's query-log record can carry it: which
// tenant the query ran for and how long it waited for admission.
type QueryInfo struct {
	Tenant       string
	QueuedMicros int64
}

// queryInfoKey keys QueryInfo in a context.
type queryInfoKey struct{}

// ContextWithQueryInfo returns a context carrying info; the engine's
// per-query report reads it back with QueryInfoFrom.
func ContextWithQueryInfo(ctx context.Context, info QueryInfo) context.Context {
	return context.WithValue(ctx, queryInfoKey{}, info)
}

// QueryInfoFrom extracts the serving metadata installed by
// ContextWithQueryInfo, reporting ok=false when the context carries none.
func QueryInfoFrom(ctx context.Context) (QueryInfo, bool) {
	info, ok := ctx.Value(queryInfoKey{}).(QueryInfo)
	return info, ok
}

// QueryLog serializes QueryRecords as JSON lines onto a writer. Record
// is safe for concurrent use; a nil *QueryLog discards records, so
// callers log unconditionally.
type QueryLog struct {
	mu sync.Mutex
	w  io.Writer
}

// NewQueryLog creates a query log writing to w.
func NewQueryLog(w io.Writer) *QueryLog { return &QueryLog{w: w} }

// Record writes one JSON line for r, silently dropping it on encoding
// or write failure — the query log must never fail a query.
func (l *QueryLog) Record(r QueryRecord) {
	if l == nil || l.w == nil {
		return
	}
	buf, err := json.Marshal(r)
	if err != nil {
		return
	}
	buf = append(buf, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = l.w.Write(buf)
}
