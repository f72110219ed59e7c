package conquer

import (
	"context"

	"conquer/internal/core"
	"conquer/internal/dirty"
	"conquer/internal/exec"
	"conquer/internal/sqlparse"
)

// Thin adapters keeping bench_test.go readable.

func coreViaRewriting(d *dirty.DB, q *sqlparse.SelectStmt) (*core.Result, error) {
	return core.ViaRewritingCtx(context.Background(), d, q, exec.Limits{})
}

func coreExact(d *dirty.DB, q *sqlparse.SelectStmt) (*core.Result, error) {
	return core.ExactCtx(context.Background(), d, q, exec.Limits{})
}

func coreMonteCarlo(d *dirty.DB, q *sqlparse.SelectStmt, n int) (*core.Result, error) {
	return core.MonteCarloCtx(context.Background(), d, q, n, 1, exec.Limits{})
}
