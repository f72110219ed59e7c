package core

// Eval is the graceful-degradation front door over the three methods.
// Callers that do not want to pick a method ask Eval, which asks the
// paper's rewriting first and falls one rung down the ladder — Rewrite →
// Exact → MonteCarlo — when the query is outside the rewritable class or a
// resource budget (and only a resource budget: cancellation and deadline
// abort the whole ladder) rules a rung out. The Result reports which method
// ran and, for Monte-Carlo, the sample count and standard-error bound, so
// callers can tell an exact answer from an estimate.

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"conquer/internal/cache"
	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/exec"
	"conquer/internal/metrics"
	"conquer/internal/qerr"
	"conquer/internal/rewrite"
	"conquer/internal/sqlparse"
)

// DefaultSamples is the Monte-Carlo sample count Eval uses when
// EvalOptions does not specify one. At 1000 samples the standard error of
// each probability is bounded by 1/(2*sqrt(1000)) ≈ 0.016.
const DefaultSamples = 1000

// Evaluator computes the clean answers of statements over DB, running
// their queries on Engine, an engine over DB.Store. The engine's options
// govern everything an evaluation runs (DESIGN.md §8): its Limits are the
// budget, the Timeout applied once over the whole evaluation; its
// Parallelism reaches every query of every rung; its
// Cache memoizes whole evaluations, while the rungs run uncached so that
// no answer is held twice; and its QueryLog gets one line per evaluation.
// An Evaluator is a value: building one costs nothing.
type Evaluator struct {
	DB     *dirty.DB
	Engine *engine.Engine
}

// EvalOptions configures one evaluation.
type EvalOptions struct {
	// Method forces one rung, which then returns its error verbatim;
	// MethodNone, the zero value, runs the ladder.
	Method Method
	// Samples is the Monte-Carlo sample count (DefaultSamples when zero; a
	// negative count is refused). The ladder clips it to the engine's
	// MaxSamples; a forced MethodMonteCarlo fails above that instead.
	Samples int
	// Seed seeds Monte-Carlo sampling, making degraded runs reproducible.
	Seed int64
	// Limits and Cache are read by the package-level wrappers alone (Eval,
	// ExactCtx, ViaRewritingCtx, MonteCarloCtx), which build an engine from
	// them with every other option at its default. Evaluator.Eval refuses
	// either: its engine's options are the budget and the cache.
	Limits exec.Limits
	Cache  *cache.Cache
}

// exactThreshold is the exact rung's budget in the ladder when the caller
// sets no MaxCandidates: the most candidates of the FROM relations it
// enumerates. It is deliberately far below dirty.EnumerateLimit: Eval
// optimizes for answering within budget, not for exhausting what
// enumeration can survive.
const exactThreshold = 1 << 12

// Eval computes clean answers with the method opts.Method forces or, when
// it forces none, with automatic method selection:
//
//  1. Rewrite, when the query is in the rewritable class (§3) — exact
//     (Thm 1), one query over the dirty database.
//  2. Exact, when the FROM relations' candidates fit the budget
//     (MaxCandidates, or exactThreshold without one) — ground truth.
//  3. MonteCarlo, otherwise — an estimate, flagged by Result.StdErr.
//
// A rung failing with a resource error (qerr.IsResource) falls through to
// the next, as does a query the rewriting refuses; cancellation, deadline
// and model errors abort immediately. Result.Degraded records every rung
// that was abandoned along the way, with its one-word reason: exact's over
// budget is "candidates".
//
// With a cache on the engine, a Result — whichever rung produced it — is
// cached keyed by the canonical statement, the options and engine settings
// evalKey names, and a version vector over the FROM relations: every rung
// reads those and nothing else (DESIGN.md §11), so a mutation anywhere else
// leaves the entry valid. Concurrent identical evaluations coalesce onto
// one ladder run.
func (ev Evaluator) Eval(ctx context.Context, stmt *sqlparse.SelectStmt, opts EvalOptions) (res *Result, err error) {
	defer qerr.Recover(&err)
	if err := ev.check(opts); err != nil {
		return nil, err
	}
	start := time.Now()
	o := ev.Engine.Options()
	ctx, cancel := o.Limits.WithContext(ctx)
	defer cancel()
	if o.QueryLog != nil {
		defer func() { logEval(ctx, o, stmt, res, err, time.Since(start)) }()
	}

	if o.Cache == nil {
		return ev.ladder(ctx, stmt, opts, start)
	}
	key := evalKey(stmt, opts, o)
	vv, ok := cache.VersionVector(ev.DB.Store, stmt.Tables())
	if !ok {
		return ev.ladder(ctx, stmt, opts, start)
	}
	v, shared, err := o.Cache.Do(ctx, key, vv, func() (any, int64, error) {
		r, err := ev.ladder(ctx, stmt, opts, start)
		if err != nil {
			return nil, 0, err
		}
		return r, sizeOfResult(r), nil
	})
	if err != nil {
		return nil, err
	}
	r := v.(*Result)
	if !shared {
		return r, nil
	}
	out := *r
	out.Cached = true
	out.Elapsed = time.Since(start)
	return &out, nil
}

// check refuses an evaluation the evaluator cannot run as asked.
func (ev Evaluator) check(opts EvalOptions) error {
	switch {
	case ev.DB == nil || ev.Engine == nil:
		return fmt.Errorf("core: an Evaluator needs a database and an engine")
	case ev.Engine.DB() != ev.DB.Store:
		return fmt.Errorf("core: the Evaluator's engine runs over another store than its database")
	case opts.Limits != exec.Limits{} || opts.Cache != nil:
		return fmt.Errorf("core: an Evaluator's budget and cache are its engine's options, not EvalOptions.Limits and Cache")
	case opts.Method < MethodNone || opts.Method > MethodMonteCarlo:
		return fmt.Errorf("core: unknown evaluation method %d", opts.Method)
	case opts.Samples < 0:
		return fmt.Errorf("core: negative Monte-Carlo sample count %d", opts.Samples)
	}
	return nil
}

// rungs is the engine configuration every query of an evaluation runs
// under: the evaluator's engine with the Timeout cleared (the entry point
// applies it once), no cache (the evaluation is cached whole) and no query
// log (the evaluation writes one line).
func (ev Evaluator) rungs() engine.Options {
	o := ev.Engine.Options()
	o.Limits = o.Limits.WithoutTimeout()
	o.Cache, o.QueryLog = nil, nil
	return o
}

// evalKey fingerprints the statement and everything that changes the
// answer or the path to it into the cache key of one evaluation: the
// method, the sampling options, the budget, and the resolved parallelism
// — the engine setting its result key carries.
// Answers and their order are identical at every setting, but a
// probability the rewriting's float SUM computes may differ in its last
// bits between the serial pass and a parallel one, which folds the sum
// on the morsel grid (DESIGN.md §9 and §11, ROADMAP item 1).
func evalKey(stmt *sqlparse.SelectStmt, opts EvalOptions, o engine.Options) string {
	norm := stmt.SQL()
	var b strings.Builder
	b.Grow(len("eval|") + len(norm) + 8*21)
	b.WriteString("eval|")
	b.WriteString(norm)
	var num [20]byte
	for _, v := range [...]int64{
		int64(opts.Method), int64(opts.Samples), opts.Seed,
		o.Limits.MaxBufferedRows, o.Limits.MaxOutputRows, o.Limits.MaxCandidates, int64(o.Limits.MaxSamples),
		int64(o.Parallelism),
	} {
		b.WriteByte('|')
		b.Write(strconv.AppendInt(num[:0], v, 10))
	}
	return b.String()
}

// sizeOfResult approximates the retained bytes of a clean-answer result
// for the cache's byte budget.
func sizeOfResult(r *Result) int64 {
	n := int64(128) // Result struct, headers, degradation chain
	for _, c := range r.Columns {
		n += int64(len(c)) + 16
	}
	for _, a := range r.Answers {
		n += cache.SizeOfValues(a.Values) + 16 // probability + stderr
	}
	return n
}

// logEval writes an evaluation's one query-log line: the rung that
// answered ("eval" when none did), the answer count, whether the cache
// served it, the engine settings, and the tenant and queue wait the
// serving layer put in ctx.
func logEval(ctx context.Context, o engine.Options, stmt *sqlparse.SelectStmt, res *Result, err error, elapsed time.Duration) {
	rec := metrics.QueryRecord{
		SQLHash:     metrics.HashQuery(stmt.SQL()),
		Method:      "eval",
		Micros:      elapsed.Microseconds(),
		Parallelism: o.Parallelism,
		Err:         qerr.LogReason(err),
	}
	if res != nil {
		rec.Method, rec.Rows, rec.Cached = res.Method.String(), len(res.Answers), res.Cached
	}
	if info, ok := metrics.QueryInfoFrom(ctx); ok {
		rec.Tenant, rec.QueuedMicros = info.Tenant, info.QueuedMicros
	}
	o.QueryLog.Record(rec)
}

// ladder is Eval's uncached body: the degradation ladder itself, or the
// forced rung alone, returning its error verbatim. ctx already carries the
// entry-point timeout; start anchors Result.Elapsed. It is a recover
// boundary, so that a panic in a rung cannot escape the cache's flight
// (Eval).
func (ev Evaluator) ladder(ctx context.Context, stmt *sqlparse.SelectStmt, opts EvalOptions, start time.Time) (res *Result, err error) {
	defer qerr.Recover(&err)
	var chain []Degradation
	done := func(res *Result) *Result {
		res.Degraded = chain
		res.Elapsed = time.Since(start)
		return res
	}
	lim := ev.rungs().Limits
	n := opts.Samples
	if n == 0 {
		n = DefaultSamples
	}

	// Rung 1: the rewriting, forced or when the query is in the rewritable
	// class — one query. The rung analyses the statement once and reports a
	// query outside the class itself.
	if opts.Method == MethodRewrite || opts.Method == MethodNone {
		res, err = ev.rewriting(ctx, stmt)
		switch {
		case err == nil:
			return done(res), nil
		case opts.Method == MethodRewrite:
			return nil, err
		case isNotRewritable(err):
			chain = append(chain, Degradation{Method: MethodRewrite, Reason: "not-rewritable"})
		case qerr.IsResource(err):
			chain = append(chain, Degradation{Method: MethodRewrite, Reason: qerr.Reason(err)})
		default:
			return nil, err
		}
	}

	// The lower rungs draw from one index of the FROM relations' clusters.
	cs, err := ev.DB.CandidatesOf(stmt.Tables())
	if err != nil {
		return nil, err
	}

	// Rung 2: exact, forced or when the candidates fit the budget:
	// MaxCandidates, or exactThreshold without one.
	if opts.Method == MethodExact || opts.Method == MethodNone {
		limit := lim.MaxCandidates
		if limit <= 0 && opts.Method == MethodNone {
			limit = exactThreshold
		}
		res, err = ev.exact(ctx, stmt, cs, limit)
		switch {
		case err == nil:
			return done(res), nil
		case opts.Method == MethodExact || !qerr.IsResource(err):
			return nil, err
		}
		chain = append(chain, Degradation{Method: MethodExact, Reason: qerr.Reason(err)})
	}

	// Rung 3: Monte-Carlo. The ladder clips the sample count to the budget.
	if opts.Method == MethodNone && lim.MaxSamples > 0 && n > lim.MaxSamples {
		n = lim.MaxSamples
	}
	res, err = ev.monteCarlo(ctx, stmt, cs, n, opts.Seed)
	if err != nil {
		if opts.Method == MethodNone {
			err = fmt.Errorf("core: all evaluation methods failed, last (monte-carlo): %w", err)
		}
		return nil, err
	}
	return done(res), nil
}

// isNotRewritable reports whether err refuses a query outside the
// rewritable class. Its target escapes, so it is asked only on failure.
func isNotRewritable(err error) bool {
	var nr *rewrite.NotRewritableError
	return errors.As(err, &nr)
}

// Eval is Evaluator.Eval over d on an engine built from opts.Limits and
// opts.Cache, every other engine option at its default. It and the three
// one-method wrappers below remain only because the benchmark module
// compiles against them.
func Eval(ctx context.Context, d *dirty.DB, stmt *sqlparse.SelectStmt, opts EvalOptions) (*Result, error) {
	eng := engine.NewWithOptions(d.Store, engine.Options{Limits: opts.Limits, Cache: opts.Cache})
	opts.Limits, opts.Cache = exec.Limits{}, nil
	return Evaluator{DB: d, Engine: eng}.Eval(ctx, stmt, opts)
}

// ExactCtx is Eval forced to MethodExact under lim.
func ExactCtx(ctx context.Context, d *dirty.DB, stmt *sqlparse.SelectStmt, lim exec.Limits) (*Result, error) {
	return Eval(ctx, d, stmt, EvalOptions{Method: MethodExact, Limits: lim})
}

// ViaRewritingCtx is Eval forced to MethodRewrite under lim.
func ViaRewritingCtx(ctx context.Context, d *dirty.DB, stmt *sqlparse.SelectStmt, lim exec.Limits) (*Result, error) {
	return Eval(ctx, d, stmt, EvalOptions{Method: MethodRewrite, Limits: lim})
}

// MonteCarloCtx is Eval forced to MethodMonteCarlo with n samples from
// seed under lim.
func MonteCarloCtx(ctx context.Context, d *dirty.DB, stmt *sqlparse.SelectStmt, n int, seed int64, lim exec.Limits) (*Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: MonteCarlo needs a positive sample count")
	}
	return Eval(ctx, d, stmt, EvalOptions{Method: MethodMonteCarlo, Samples: n, Seed: seed, Limits: lim})
}
