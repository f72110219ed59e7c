package conquer

// Resource governance and graceful degradation (DESIGN.md §8): Eval
// honors cancellation, deadlines and execution budgets, runs the method
// the caller names, or asks the rewriting first and degrades rewriting →
// Exact → Monte-Carlo instead of failing.

import (
	"context"
	"fmt"
	"time"

	"conquer/internal/core"
	"conquer/internal/exec"
	"conquer/internal/qerr"
	"conquer/internal/sqlparse"
)

// Typed failure sentinels, re-exported from the internal taxonomy so
// callers dispatch with errors.Is without importing internal packages.
var (
	// ErrCanceled reports that the caller gave up: its context was
	// canceled, or a deadline the caller itself imposed passed.
	ErrCanceled = qerr.ErrCanceled
	// ErrDeadline reports that the configured query timeout
	// (Limits.Timeout) passed. A deadline on the caller's own context
	// reports ErrCanceled instead — the two stay distinguishable so a
	// serving layer can tell a client that hung up (HTTP 499) from a
	// query the server timed out (HTTP 504).
	ErrDeadline = qerr.ErrDeadline
	// ErrShutdown reports that a serving process canceled the query
	// while draining for shutdown.
	ErrShutdown = qerr.ErrShutdown
	// ErrBudgetExceeded reports that an execution budget (buffered rows,
	// output rows, samples) was exhausted.
	ErrBudgetExceeded = qerr.ErrBudgetExceeded
	// ErrTooManyCandidates reports that the candidate-database count
	// exceeds the enumeration budget.
	ErrTooManyCandidates = qerr.ErrTooManyCandidates
	// ErrBadModel reports unusable dirty-database metadata.
	ErrBadModel = qerr.ErrBadModel
	// ErrInternal reports an executor panic caught at an API boundary.
	ErrInternal = qerr.ErrInternal
)

// ErrorReason classifies err into a short stable keyword — "canceled",
// "deadline", "shutdown", "budget", "candidates", "model", "internal" —
// or "" when err is outside the taxonomy. The REPL uses it for one-word
// verdicts.
func ErrorReason(err error) string { return qerr.Reason(err) }

// Limits is the execution budget of one evaluation. The zero value
// imposes no limits.
type Limits struct {
	// Timeout is the wall-clock budget for the whole evaluation.
	Timeout time.Duration
	// MaxBufferedRows caps rows held concurrently in operator state
	// (hash-join build sides, aggregation groups, sort buffers).
	MaxBufferedRows int64
	// MaxOutputRows caps the rows a single query may return.
	MaxOutputRows int64
	// MaxCandidates caps exact candidate-database enumeration: the
	// candidates of the relations the statement names, the only ones that
	// can change its answer.
	MaxCandidates int64
	// MaxSamples caps Monte-Carlo sample counts.
	MaxSamples int
}

func (l Limits) internal() exec.Limits {
	return exec.Limits{
		Timeout:         l.Timeout,
		MaxBufferedRows: l.MaxBufferedRows,
		MaxOutputRows:   l.MaxOutputRows,
		MaxCandidates:   l.MaxCandidates,
		MaxSamples:      l.MaxSamples,
	}
}

// EvalOptions configures Eval.
type EvalOptions struct {
	// Limits is the execution budget; see Limits.
	Limits Limits
	// Samples is the Monte-Carlo sample count (a package default when
	// zero; negative is an error). The ladder clips it to
	// Limits.MaxSamples; "monte-carlo" fails above it instead.
	Samples int
	// Seed seeds Monte-Carlo sampling for reproducible estimates.
	Seed int64
	// Method picks the evaluator: "rewrite" runs the paper's rewriting
	// (§3; rewritable queries only); "exact" enumerates candidate
	// databases (Dfn 3-5; exponential, Limits.MaxCandidates caps it) and
	// checks each against one query's derivations of every answer, or,
	// outside select-project-join, runs the query on each; "monte-carlo"
	// samples candidate databases. Each runs alone and returns its own
	// error. "", the default, runs the degradation ladder over the three,
	// in that order.
	Method string
}

// Eval computes clean answers with the method opts.Method names or, by
// default, with automatic method selection: the paper's rewriting when the
// query is rewritable (one query, exact by Thm 1), Exact when the
// candidates fit the budget (Limits.MaxCandidates, or a package default
// without one), Monte-Carlo sampling otherwise — degrading one rung
// whenever the query is outside the rewritable class or a resource budget
// rules the stronger method out. The result reports which method ran
// (CleanResult.Method) and, for Monte-Carlo, the sample count and
// standard-error bound. Cancellation and deadline abort the whole
// evaluation with ErrCanceled / ErrDeadline. It runs on the database's
// engine settings and cache (SetParallelism, EnableCache).
func (db *Database) Eval(ctx context.Context, sql string, opts EvalOptions) (res *CleanResult, err error) {
	defer qerr.Recover(&err)
	m, ok := methods[opts.Method]
	if !ok {
		return nil, fmt.Errorf("conquer: unknown method %q: want \"exact\", \"rewrite\", \"monte-carlo\" or \"\" for the ladder", opts.Method)
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.eval(ctx, stmt, opts.Limits, core.EvalOptions{Method: m, Samples: opts.Samples, Seed: opts.Seed})
}

// methods maps EvalOptions.Method onto the evaluator's methods.
var methods = map[string]core.Method{
	"":            core.MethodNone,
	"exact":       core.MethodExact,
	"rewrite":     core.MethodRewrite,
	"monte-carlo": core.MethodMonteCarlo,
}

// eval evaluates stmt on an engine under lim and the database's settings.
func (db *Database) eval(ctx context.Context, stmt *sqlparse.SelectStmt, lim Limits, opts core.EvalOptions) (*CleanResult, error) {
	r, err := db.evaluator(lim).Eval(ctx, stmt, opts)
	if err != nil {
		return nil, err
	}
	return convertResult(r), nil
}

// evaluator is the clean-answer evaluator over the database on an engine
// under lim and the database's cache, parallelism and shard settings.
func (db *Database) evaluator(lim Limits) core.Evaluator {
	return core.Evaluator{DB: db.d, Engine: db.newEngine(lim)}
}

// QueryCtx is Query under a context: plain SQL over the stored data with
// cancellation and timeout support. With EnableCache on, repeated
// queries over unmutated tables are served from the result cache.
func (db *Database) QueryCtx(ctx context.Context, sql string, lim Limits) (*Rows, error) {
	return toRows(db.newEngine(lim).QueryCtx(ctx, sql))
}

// IsResourceError reports whether err is a degradable resource failure
// (budget or candidate-count exhaustion) rather than cancellation or a
// model problem.
func IsResourceError(err error) bool { return qerr.IsResource(err) }
