// Package engine is the query-engine facade: it parses SQL, plans it
// against a storage.DB and executes the plan, returning materialized
// results. Both the paper's original queries and their RewriteClean
// rewritings run through this same path, so measured overheads reflect only
// the extra grouping/aggregation work the rewriting introduces — the
// quantity the paper's evaluation reports. That holds for clean answers
// too: a core.Evaluator runs every query of an evaluation, whichever rung,
// under the options of the engine it is given.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"conquer/internal/cache"
	"conquer/internal/exec"
	"conquer/internal/metrics"
	"conquer/internal/plan"
	"conquer/internal/qerr"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// Options configures an Engine.
type Options struct {
	// Limits is the per-query execution budget.
	Limits exec.Limits
	// Parallelism is the worker count for morsel-driven parallel
	// execution; 0 defaults to runtime.GOMAXPROCS(0), and 1 (or less)
	// runs every query serially. Rows, their order and the bits of every
	// float SUM or AVG are identical at every setting and in every run,
	// so this tunes only scheduling.
	Parallelism int
	// Shards is inert: scans are not partitioned (DESIGN.md §14), and
	// nothing in this module reads it. It stays only because the
	// benchmark module compiles against it; ROADMAP item 3(b) deletes it.
	Shards int
	// QueryLog, when non-nil, receives one structured JSON record per
	// executed query (success or failure).
	QueryLog *metrics.QueryLog
	// Cache, when non-nil, is the multi-tier query cache queries run
	// through (DESIGN.md §11); nil runs every query uncached. A cache
	// must only ever serve engines over the same database — its keys do
	// not name the store.
	Cache *cache.Cache
}

// Engine executes SQL over one database. It holds no state of its own —
// a store, its options and the cache they name — so building one per
// call costs nothing and any number may run over one store at once.
type Engine struct {
	db   *storage.DB
	opts Options
}

// New creates an engine over db with default options (parallelism
// tracks GOMAXPROCS).
func New(db *storage.DB) *Engine { return &Engine{db: db} }

// NewWithOptions creates an engine with explicit options.
func NewWithOptions(db *storage.DB, opts Options) *Engine {
	return &Engine{db: db, opts: opts}
}

// NewWithLimits creates an engine whose queries run under the given
// execution budget.
func NewWithLimits(db *storage.DB, limits exec.Limits) *Engine {
	return &Engine{db: db, opts: Options{Limits: limits}}
}

// Options returns the options the engine's queries run under, with
// Parallelism resolved to the worker count its runs use: the one place
// that decides the default. A clean-answer evaluator over the engine
// (core.Evaluator) runs every query of its evaluation under them.
func (e *Engine) Options() Options {
	o := e.opts
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// DB returns the underlying database.
func (e *Engine) DB() *storage.DB { return e.db }

// Result is a fully materialized query result.
type Result struct {
	Columns []string
	Rows    [][]value.Value
	// Stats describes how the query executed (filled on success).
	Stats Stats
}

// Stats is the per-query execution accounting attached to every Result
// (DESIGN.md §10).
type Stats struct {
	// Parallelism is the worker count the run used (the engine's).
	Parallelism int
	// PlanTime is the wall time spent planning the statement.
	PlanTime time.Duration
	// ExecTime is the wall time spent executing the plan.
	ExecTime time.Duration
	// BufferedPeak is the governor's buffered-row high-water mark: the
	// most rows held concurrently in stateful operator memory.
	BufferedPeak int64
	// Rows is the number of result rows.
	Rows int
	// Cached reports that the rows were served from the result cache
	// (ExecTime is then the lookup latency, not an execution, and
	// PlanTime/BufferedPeak are zero). Cached rows are shared with the
	// cache and must not be mutated.
	Cached bool
	// Batches counts the output batches the root produced (0 on cached
	// results).
	Batches int64
}

// parsed is a parse-tier entry: a statement and its normal form, the
// text its plan and result keys are.
type parsed struct {
	stmt *sqlparse.SelectStmt
	norm string
}

// QueryCtx parses, plans and executes sql under ctx and the engine's
// limits. Cancellation, timeout and budget overruns surface as qerr
// taxonomy errors. With a cache attached, the parse tier serves repeated
// raw query texts without re-parsing or re-printing: it holds the
// statement and its normal form. Cached statements are shared and never
// mutated downstream.
func (e *Engine) QueryCtx(ctx context.Context, sql string) (*Result, error) {
	if c := e.opts.Cache; c != nil {
		v, ok := c.GetParse(sql)
		if !ok {
			stmt, err := sqlparse.Parse(sql)
			if err != nil {
				return nil, err
			}
			v = &parsed{stmt, stmt.SQL()}
			c.PutParse(sql, v)
		}
		p := v.(*parsed)
		return e.queryStmt(ctx, p.stmt, p.norm)
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.QueryStmtCtx(ctx, stmt)
}

// QueryStmt plans and executes an already parsed statement without
// cancellation.
func (e *Engine) QueryStmt(stmt *sqlparse.SelectStmt) (*Result, error) {
	return e.QueryStmtCtx(context.Background(), stmt)
}

// QueryStmtCtx plans and executes stmt under ctx and the engine's
// limits. It is the execution recovery boundary: operator panics are
// caught here and returned as qerr.ErrInternal-matchable errors with
// the stack captured.
//
// With a cache attached, the statement is first looked up in the result
// tier under its canonical SQL and a version vector over every referenced
// table; a hit returns the materialized rows without planning or
// executing anything. No engine setting is in the key: rows, their order
// and every float's bits are the same at every worker count (DESIGN.md
// §9), so engines at any parallelism share an entry. Misses run under
// singleflight, so concurrent identical queries over the same versions
// share one execution. Clean answers are deterministic for a fixed
// database state, which is what makes serving the memoized result sound.
func (e *Engine) QueryStmtCtx(ctx context.Context, stmt *sqlparse.SelectStmt) (*Result, error) {
	return e.queryStmt(ctx, stmt, "")
}

// queryStmt is QueryStmtCtx for a caller that may already hold norm,
// stmt.SQL(); "" has it printed here when a cache key needs it.
func (e *Engine) queryStmt(ctx context.Context, stmt *sqlparse.SelectStmt, norm string) (res *Result, err error) {
	defer qerr.Recover(&err)
	start := time.Now()
	defer func() {
		var st Stats
		if res != nil {
			st = res.Stats
		}
		e.report(ctx, stmt, 1, st, err, time.Since(start))
	}()
	ctx, cancel := e.opts.Limits.WithContext(ctx)
	defer cancel()
	if e.opts.Cache == nil {
		return e.executeStmt(ctx, stmt, nil, "")
	}
	if norm == "" {
		norm = stmt.SQL()
	}
	vv, ok := cache.VersionVector(e.db, stmt.Tables())
	if !ok {
		// An unresolvable table: bypass the cache so planning reports
		// the ordinary error.
		return e.executeStmt(ctx, stmt, nil, "")
	}
	v, shared, err := e.opts.Cache.Do(ctx, norm, vv, func() (any, int64, error) {
		r, err := e.executeStmt(ctx, stmt, e.opts.Cache, norm)
		if err != nil {
			return nil, 0, err
		}
		return r, cache.SizeOfRows(r.Columns, r.Rows), nil
	})
	if err != nil {
		return nil, err
	}
	r := v.(*Result)
	if !shared {
		return r, nil // this call was the one underlying execution
	}
	// Rows another call computed may pass this call's output budget; a
	// hit buffers nothing, so that is the one limit left to check.
	if err := e.opts.Limits.CheckOutput(int64(len(r.Rows))); err != nil {
		return nil, err
	}
	// Serve the memoized result: share the materialized rows, but report
	// this call's own latency and worker count so percentiles stay honest.
	out := *r
	out.Stats.Cached = true
	out.Stats.Parallelism = e.Options().Parallelism
	out.Stats.PlanTime = 0
	out.Stats.ExecTime = time.Since(start)
	out.Stats.BufferedPeak = 0
	out.Stats.Batches = 0
	return &out, nil
}

// Prepared is a statement planned once and ready to be re-opened: the
// plan tier's entries, and what the candidate-world evaluators (core)
// run once per candidate over a world whose tables keep their sizes. Each
// run brings its engine's worker count, so one serves every engine.
// Operator trees are stateful while executing, so a Prepared serves one
// execution at a time — checkout claims it, release returns it. A run
// that fails never releases it: operators may be left half-consumed, so
// the tree is not opened again.
type Prepared struct {
	e     *Engine
	stmt  *sqlparse.SelectStmt
	tree  exec.Operator
	cols  []string
	inUse atomic.Bool

	// Accounting since the last Report; written only by the execution
	// holding the checkout.
	runs int64
	sum  Stats // Rows and Batches add up; BufferedPeak (failed runs' too) is a maximum
}

func (p *Prepared) checkout() bool { return p.inUse.CompareAndSwap(false, true) }
func (p *Prepared) release()       { p.inUse.Store(false) }

// Prepare plans stmt against the engine's database.
func (e *Engine) Prepare(stmt *sqlparse.SelectStmt) (*Prepared, error) {
	op, err := plan.Plan(e.db, stmt, plan.Options{})
	if err != nil {
		return nil, err
	}
	exec.Instrument(op)
	return &Prepared{e: e, stmt: stmt, tree: op, cols: op.Schema().Names()}, nil
}

// Columns names the statement's output columns.
func (p *Prepared) Columns() []string { return p.cols }

// Run re-opens the tree and collects its rows under ctx and a fresh
// governor — every run starts with the engine's whole Limits budget;
// Limits.Timeout is the caller's to apply. It is a recovery boundary like
// QueryStmtCtx. Results share Columns. Run fails with a qerr.ErrInternal
// error while another Run is in flight or after one has failed.
func (p *Prepared) Run(ctx context.Context) (res *Result, err error) {
	defer qerr.Recover(&err)
	if !p.checkout() {
		return nil, fmt.Errorf("engine: prepared statement is executing or has failed: %w", qerr.ErrInternal)
	}
	if res, err = p.run(ctx, p.e); err == nil {
		p.release()
	}
	return res, err
}

// run executes the checked-out tree once under the limits and on the
// worker count of e, the engine executing it: a plan-tier entry serves
// every engine over the cache, whatever budget and worker count the engine
// that prepared it had.
func (p *Prepared) run(ctx context.Context, e *Engine) (*Result, error) {
	o := e.Options()
	gov := exec.NewGovernor(ctx, o.Limits)
	gov.SetWorkers(o.Parallelism)
	exec.Attach(p.tree, gov)
	start := time.Now()
	rows, batches, err := exec.CollectBatchesGoverned(p.tree, gov, 0)
	p.runs++
	p.sum.BufferedPeak = max(p.sum.BufferedPeak, gov.BufferedPeak())
	if err != nil {
		return nil, err
	}
	res := &Result{
		Columns: p.cols,
		Rows:    rows,
		Stats: Stats{
			Parallelism:  o.Parallelism,
			ExecTime:     time.Since(start),
			BufferedPeak: gov.BufferedPeak(),
			Rows:         len(rows),
			Batches:      batches,
		},
	}
	p.sum.Rows += res.Stats.Rows
	p.sum.Batches += batches
	return res, nil
}

// Report feeds the process metrics and the query log with every run since
// the previous Report in one step — elapsed and err describe the
// evaluation those runs belonged to — and returns how many runs that was
// and the largest buffered-row peak among them.
func (p *Prepared) Report(ctx context.Context, err error, elapsed time.Duration) (runs int, bufferedPeak int64) {
	runs, bufferedPeak = int(p.runs), p.sum.BufferedPeak
	p.e.report(ctx, p.stmt, p.runs, p.sum, err, elapsed)
	p.runs, p.sum = 0, Stats{}
	return runs, bufferedPeak
}

// executeStmt plans and executes stmt. When c is non-nil the plan tier
// is consulted under key: a cached Prepared skips planning and is
// re-opened on this engine's worker count, whichever engine planned it
// and whatever was written since — a plan reads no row, and every size it
// runs on is read again when it opens (DESIGN.md §11). Otherwise the fresh
// one is cached for the next execution, in its place. One that errors
// mid-execution is dropped. The checkout guards the tree against a second
// concurrent run: Cache.Do's singleflight rules that out for one (key,
// version vector), but runs over two versions of a table may overlap, and
// then the second plans a tree of its own.
func (e *Engine) executeStmt(ctx context.Context, stmt *sqlparse.SelectStmt, c *cache.Cache, key string) (*Result, error) {
	start := time.Now()
	var prep *Prepared
	if c != nil {
		if v, ok := c.GetPlan(key); ok && v.(*Prepared).checkout() {
			prep = v.(*Prepared)
		}
	}
	if prep == nil {
		var err error
		if prep, err = e.Prepare(stmt); err != nil {
			return nil, err
		}
		prep.checkout()
		if c != nil {
			c.PutPlan(key, prep)
		}
	}
	planTime := time.Since(start)
	res, err := prep.run(ctx, e)
	if err != nil {
		if c != nil {
			c.DropPlan(key)
		}
		return nil, err
	}
	prep.release()
	res.Stats.PlanTime = planTime
	return res, nil
}

// report feeds the process-level metrics registry and, when configured,
// the structured query log with the outcome of queries executions of
// stmt: one for a plain query, every candidate's for a Prepared an
// evaluator ran many times (st then carries their sums and maxima). It
// runs for every query, success or failure. Serving metadata (tenant,
// admission-queue wait) travels in ctx via metrics.ContextWithQueryInfo
// so the server shows up in the log without the engine knowing about
// tenancy.
func (e *Engine) report(ctx context.Context, stmt *sqlparse.SelectStmt, queries int64, st Stats, err error, elapsed time.Duration) {
	reg := metrics.Default
	reg.Counter("engine.queries").Add(queries)
	reg.Timer("engine.exec").Observe(elapsed)
	if err != nil {
		reg.Counter("engine.errors").Inc()
	}
	reg.Counter("engine.rows").Add(int64(st.Rows))
	reg.Gauge("engine.buffered_peak").SetMax(st.BufferedPeak)
	if e.opts.QueryLog == nil {
		return // no record to write: do not print and hash the statement for one
	}
	rec := metrics.QueryRecord{
		SQLHash:     metrics.HashQuery(stmt.SQL()),
		Method:      "sql",
		Rows:        st.Rows,
		Micros:      elapsed.Microseconds(),
		Parallelism: e.Options().Parallelism,
		Cached:      st.Cached,
		Batches:     st.Batches,
		Err:         qerr.LogReason(err),
	}
	if info, ok := metrics.QueryInfoFrom(ctx); ok {
		rec.Tenant = info.Tenant
		rec.QueuedMicros = info.QueuedMicros
	}
	e.opts.QueryLog.Record(rec)
}

// Explain returns the physical plan for sql, one operator per line, as
// it runs on the engine's worker count.
func (e *Engine) Explain(sql string) (string, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	op, err := plan.Plan(e.db, stmt, plan.Options{})
	if err != nil {
		return "", err
	}
	gov := exec.NewGovernor(context.Background(), exec.Limits{})
	gov.SetWorkers(e.Options().Parallelism)
	exec.Attach(op, gov)
	return exec.Explain(op), nil
}

// ExplainAnalyzeCtx executes sql under the engine's limits and ctx and
// returns the plan annotated with observed per-operator counters plus a
// summary line.
func (e *Engine) ExplainAnalyzeCtx(ctx context.Context, sql string) (out string, err error) {
	defer qerr.Recover(&err)
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	ctx, cancel := e.opts.Limits.WithContext(ctx)
	defer cancel()
	prep, err := e.Prepare(stmt)
	if err != nil {
		return "", err
	}
	res, err := prep.run(ctx, e)
	if err != nil {
		return "", err
	}
	summary := fmt.Sprintf("-- %d rows in %s (buffered peak %d)",
		len(res.Rows), res.Stats.ExecTime.Round(time.Microsecond), res.Stats.BufferedPeak)
	return exec.ExplainAnalyze(prep.tree) + summary + "\n", nil
}

// String renders the result as an aligned text table (for CLIs and
// examples).
func (r *Result) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			if v.Kind() == value.KindFloat {
				s = fmt.Sprintf("%.4f", v.AsFloat())
			}
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, s := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
