package conquer

import (
	"context"

	"conquer/internal/core"
	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/sqlparse"
)

// Thin adapters keeping bench_test.go readable: one method, forced, on an
// evaluator over d at the engine defaults.

func evalMethod(d *dirty.DB, q *sqlparse.SelectStmt, opts core.EvalOptions) (*core.Result, error) {
	return core.Evaluator{DB: d, Engine: engine.New(d.Store)}.Eval(context.Background(), q, opts)
}

func coreViaRewriting(d *dirty.DB, q *sqlparse.SelectStmt) (*core.Result, error) {
	return evalMethod(d, q, core.EvalOptions{Method: core.MethodRewrite})
}

func coreExact(d *dirty.DB, q *sqlparse.SelectStmt) (*core.Result, error) {
	return evalMethod(d, q, core.EvalOptions{Method: core.MethodExact})
}

func coreMonteCarlo(d *dirty.DB, q *sqlparse.SelectStmt, n int) (*core.Result, error) {
	return evalMethod(d, q, core.EvalOptions{Method: core.MethodMonteCarlo, Samples: n, Seed: 1})
}
