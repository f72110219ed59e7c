package core

// Eval is the graceful-degradation front door over the three evaluators.
// Callers that do not want to pick a method ask Eval, which chooses the
// strongest evaluator the budget admits and falls one rung down the
// ladder — Exact → ViaRewriting → MonteCarlo — when a resource budget
// (and only a resource budget: cancellation and deadline abort the whole
// ladder) rules a rung out. The Result reports which method ran and, for
// Monte-Carlo, the sample count and standard-error bound, so callers can
// tell an exact answer from an estimate.

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"time"

	"conquer/internal/cache"
	"conquer/internal/dirty"
	"conquer/internal/exec"
	"conquer/internal/qerr"
	"conquer/internal/rewrite"
	"conquer/internal/sqlparse"
)

// DefaultSamples is the Monte-Carlo sample count Eval uses when
// EvalOptions does not specify one. At 1000 samples the standard error of
// each probability is bounded by 1/(2*sqrt(1000)) ≈ 0.016.
const DefaultSamples = 1000

// EvalOptions configures Eval.
type EvalOptions struct {
	// Limits is the execution budget every rung runs under. Its Timeout
	// covers the whole ladder, not each attempt.
	Limits exec.Limits
	// Samples is the Monte-Carlo sample count for the last rung
	// (DefaultSamples when zero). It is clipped to Limits.MaxSamples.
	Samples int
	// Seed seeds Monte-Carlo sampling, making degraded runs reproducible.
	Seed int64
	// ForceExact disables degradation: Eval runs only the Exact rung and
	// returns its error verbatim. For ground-truth comparisons in tests.
	ForceExact bool
	// Cache, when non-nil, memoizes whole-ladder results. Clean answers
	// are deterministic for a fixed state of the relations the statement
	// names and a fixed seed, so a Result — whichever rung produced it —
	// is cacheable keyed by the canonical statement, these options, and a
	// version vector over the FROM relations: every rung reads those and
	// nothing else (DESIGN.md §11), so a mutation anywhere else leaves the
	// entry valid. Concurrent identical evaluations coalesce onto one
	// ladder run.
	Cache *cache.Cache
}

// exactThreshold caps the candidate count — of the FROM relations, like
// MaxCandidates — Eval will attempt exactly when the caller sets no
// MaxCandidates budget. It is deliberately far below
// dirty.EnumerateLimit: Eval optimizes for answering within budget, not
// for exhausting what enumeration can survive.
const exactThreshold = 1 << 12

// Eval computes clean answers with automatic method selection:
//
//  1. Exact, when the FROM relations' candidate count fits the budget —
//     ground truth.
//  2. ViaRewriting, when the query is in the rewritable class (§3) —
//     still exact (Thm 1), one query over the dirty database.
//  3. MonteCarlo, otherwise — an estimate, flagged by Result.StdErr.
//
// A rung failing with a resource error (qerr.IsResource) falls through to
// the next; cancellation, deadline and model errors abort immediately.
// Result.Degraded records every rung that was skipped or abandoned along
// the way, with its one-word reason.
func Eval(ctx context.Context, d *dirty.DB, stmt *sqlparse.SelectStmt, opts EvalOptions) (res *Result, err error) {
	defer qerr.Recover(&err)
	start := time.Now()
	lim := opts.Limits
	ctx, cancel := lim.WithContext(ctx)
	defer cancel()

	if opts.Cache == nil {
		return evalLadder(ctx, d, stmt, opts, start)
	}
	key := evalKey(stmt, opts)
	vv, ok := cache.VersionVector(d.Store, stmt.Tables())
	if !ok {
		return evalLadder(ctx, d, stmt, opts, start)
	}
	v, shared, err := opts.Cache.Do(ctx, key, vv, func() (any, int64, error) {
		r, err := evalLadder(ctx, d, stmt, opts, start)
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

// evalKey fingerprints the statement and every option that changes the
// answer (or the path to it) into the cache key for one evaluation.
func evalKey(stmt *sqlparse.SelectStmt, opts EvalOptions) string {
	return fmt.Sprintf("eval|%s|samples=%d;seed=%d;exact=%t;lim=%+v",
		stmt.SQL(), opts.Samples, opts.Seed, opts.ForceExact, opts.Limits.WithoutTimeout())
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

// evalLadder is Eval's uncached body: the degradation ladder itself.
// ctx already carries the entry-point timeout; start anchors
// Result.Elapsed.
func evalLadder(ctx context.Context, d *dirty.DB, stmt *sqlparse.SelectStmt, opts EvalOptions, start time.Time) (res *Result, err error) {
	inner := opts.Limits.WithoutTimeout()

	if opts.ForceExact {
		return ExactCtx(ctx, d, stmt, inner)
	}

	var chain []Degradation
	done := func(res *Result) *Result {
		res.Degraded = chain
		res.Elapsed = time.Since(start)
		return res
	}

	// Rung 1: Exact, when the candidate count is known to fit.
	count, err := d.CandidateCountOf(stmt.Tables())
	if err != nil {
		return nil, err
	}
	budget := inner.MaxCandidates
	if budget <= 0 {
		budget = exactThreshold
	}
	if count.Cmp(big.NewInt(budget)) <= 0 {
		res, err := ExactCtx(ctx, d, stmt, inner)
		if err == nil {
			return done(res), nil
		}
		if !qerr.IsResource(err) {
			return nil, err
		}
		// Budget ran out mid-enumeration; fall through.
		chain = append(chain, Degradation{Method: MethodExact, Reason: qerr.Reason(err)})
	} else {
		chain = append(chain, Degradation{Method: MethodExact, Reason: "candidates"})
	}

	// Rung 2: rewriting, when the query is in the rewritable class.
	// ViaRewritingCtx analyses the statement once and reports a query
	// outside the class itself; its recover boundary keeps a panic in the
	// rewriting from escaping the cache's flight (Eval).
	res, err = ViaRewritingCtx(ctx, d, stmt, inner)
	var notRewritable *rewrite.NotRewritableError
	switch {
	case err == nil:
		return done(res), nil
	case errors.As(err, &notRewritable):
		chain = append(chain, Degradation{Method: MethodRewrite, Reason: "not-rewritable"})
	case qerr.IsResource(err):
		chain = append(chain, Degradation{Method: MethodRewrite, Reason: qerr.Reason(err)})
	default:
		return nil, err
	}

	// Rung 3: Monte-Carlo.
	n := opts.Samples
	if n <= 0 {
		n = DefaultSamples
	}
	if inner.MaxSamples > 0 && n > inner.MaxSamples {
		n = inner.MaxSamples
	}
	res, err = MonteCarloCtx(ctx, d, stmt, n, opts.Seed, inner)
	if err != nil {
		return nil, fmt.Errorf("core: all evaluation methods failed, last (monte-carlo): %w", err)
	}
	return done(res), nil
}
