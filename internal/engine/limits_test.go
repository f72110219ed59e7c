package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"conquer/internal/cache"
	"conquer/internal/exec"
	"conquer/internal/qerr"
	"conquer/internal/schema"
	"conquer/internal/storage"
	"conquer/internal/value"
)

func intTable(t *testing.T, db *storage.DB, name string, rows int) {
	t.Helper()
	tb := db.MustCreateTable(schema.MustRelation(name,
		schema.Column{Name: "a", Type: value.KindInt},
	))
	for i := 0; i < rows; i++ {
		tb.MustInsert(value.Int(int64(i)))
	}
}

func TestQueryCtxCanceledBeforeStart(t *testing.T) {
	db := storage.NewDB()
	intTable(t, db, "t1", 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New(db).QueryCtx(ctx, "select a from t1")
	if !errors.Is(err, qerr.ErrCanceled) {
		t.Fatalf("error = %v, want errors.Is(err, qerr.ErrCanceled)", err)
	}
}

func TestQueryTimeoutReturnsErrDeadline(t *testing.T) {
	db := storage.NewDB()
	intTable(t, db, "t1", 4000)
	intTable(t, db, "t2", 4000)
	e := NewWithLimits(db, exec.Limits{Timeout: time.Nanosecond})
	_, err := e.QueryCtx(context.Background(), "select t1.a from t1, t2 where t1.a = t2.a")
	if !errors.Is(err, qerr.ErrDeadline) {
		t.Fatalf("error = %v, want errors.Is(err, qerr.ErrDeadline)", err)
	}
}

func TestMaxBufferedRowsBudget(t *testing.T) {
	db := storage.NewDB()
	intTable(t, db, "t1", 100)
	intTable(t, db, "t2", 100)
	e := NewWithLimits(db, exec.Limits{MaxBufferedRows: 10})
	_, err := e.QueryCtx(context.Background(), "select t1.a from t1, t2 where t1.a = t2.a")
	if !errors.Is(err, qerr.ErrBudgetExceeded) {
		t.Fatalf("error = %v, want errors.Is(err, qerr.ErrBudgetExceeded)", err)
	}
}

// ORDER BY … LIMIT k is a Sort with a limit, which buffers the k rows it
// keeps, not its input: under a budget of 10 buffered rows, the top 5 of
// 100 succeeds where the full sort of the same 100 rows does not.
func TestOrderByLimitBuffersTheLimit(t *testing.T) {
	db := storage.NewDB()
	intTable(t, db, "t1", 100)
	e := NewWithLimits(db, exec.Limits{MaxBufferedRows: 10})
	res, err := e.QueryCtx(context.Background(), "select a from t1 order by a desc limit 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 || res.Rows[0][0].AsInt() != 99 || res.Rows[4][0].AsInt() != 95 {
		t.Fatalf("rows = %v, want 99 down to 95", res.Rows)
	}
	_, err = e.QueryCtx(context.Background(), "select a from t1 order by a desc")
	if !errors.Is(err, qerr.ErrBudgetExceeded) {
		t.Fatalf("without the limit: error = %v, want errors.Is(err, qerr.ErrBudgetExceeded)", err)
	}
}

func TestMaxOutputRowsBudget(t *testing.T) {
	db := storage.NewDB()
	intTable(t, db, "t1", 100)
	e := NewWithLimits(db, exec.Limits{MaxOutputRows: 5})
	_, err := e.QueryCtx(context.Background(), "select a from t1")
	if !errors.Is(err, qerr.ErrBudgetExceeded) {
		t.Fatalf("error = %v, want errors.Is(err, qerr.ErrBudgetExceeded)", err)
	}
}

func TestLimitsWithinBudgetSucceed(t *testing.T) {
	db := storage.NewDB()
	intTable(t, db, "t1", 50)
	intTable(t, db, "t2", 50)
	e := NewWithLimits(db, exec.Limits{
		Timeout:         10 * time.Second,
		MaxBufferedRows: 1000,
		MaxOutputRows:   1000,
	})
	res, err := e.QueryCtx(context.Background(), "select t1.a from t1, t2 where t1.a = t2.a order by t1.a")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 50 {
		t.Fatalf("rows = %d, want 50", len(res.Rows))
	}
}

// Budgets are released when operators close: the same engine can run
// many queries sequentially under one buffered-row budget.
func TestBufferedBudgetReleasedAcrossQueries(t *testing.T) {
	db := storage.NewDB()
	intTable(t, db, "t1", 40)
	intTable(t, db, "t2", 40)
	e := NewWithLimits(db, exec.Limits{MaxBufferedRows: 50})
	for i := 0; i < 5; i++ {
		if _, err := e.QueryCtx(context.Background(), "select t1.a from t1, t2 where t1.a = t2.a"); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
}

// sharedCacheEngines is one unlimited engine and one capped at 5 output
// rows over one 100-row table and one cache of maxBytes, the way
// Database.QueryCtx builds an engine per call with that call's limits.
func sharedCacheEngines(t *testing.T, maxBytes int64) (open, capped *Engine, c *cache.Cache) {
	t.Helper()
	db := storage.NewDB()
	intTable(t, db, "t1", 100)
	c = cache.New(cache.Options{MaxBytes: maxBytes})
	open = NewWithOptions(db, Options{Parallelism: 1, Cache: c})
	capped = NewWithOptions(db, Options{Parallelism: 1, Cache: c, Limits: exec.Limits{MaxOutputRows: 5}})
	return open, capped, c
}

const over14 = "select a from t1 where a > 14" // 85 of the 100 rows

// A plan-tier entry runs under the budget of the engine executing it, not
// of the engine that prepared it.
func TestPlanHitRunsUnderTheCallersBudget(t *testing.T) {
	open, capped, c := sharedCacheEngines(t, 1) // no result fits: plans only
	ctx := context.Background()
	if res, err := open.QueryCtx(ctx, over14); err != nil || len(res.Rows) != 85 {
		t.Fatalf("unlimited: %v, %v", res, err)
	}
	if _, err := capped.QueryCtx(ctx, over14); !errors.Is(err, qerr.ErrBudgetExceeded) {
		t.Fatalf("capped at 5 rows: error %v, want qerr.ErrBudgetExceeded", err)
	}
	if s := c.Stats(); s.PlanHits != 1 || s.ResultHits != 0 {
		t.Fatalf("want the capped call to be a plan-tier hit: %+v", s)
	}
	if res, err := open.QueryCtx(ctx, over14); err != nil || len(res.Rows) != 85 {
		t.Fatalf("unlimited after the capped call: %v, %v", res, err)
	}
}

// A result-tier hit with more rows than the caller's MaxOutputRows fails
// with the error execution would give; one within it is served.
func TestResultHitRunsUnderTheCallersBudget(t *testing.T) {
	open, capped, c := sharedCacheEngines(t, 1<<20)
	ctx := context.Background()
	if res, err := open.QueryCtx(ctx, over14); err != nil || len(res.Rows) != 85 {
		t.Fatalf("unlimited: %v, %v", res, err)
	}
	if _, err := capped.QueryCtx(ctx, over14); !errors.Is(err, qerr.ErrBudgetExceeded) {
		t.Fatalf("capped at 5 rows: error %v, want qerr.ErrBudgetExceeded", err)
	}
	if s := c.Stats(); s.ResultHits != 1 || s.Executions != 1 {
		t.Fatalf("want the capped call to be a result-tier hit: %+v", s)
	}
	fits := NewWithOptions(open.DB(), Options{Parallelism: 1, Cache: c, Limits: exec.Limits{MaxOutputRows: 85}})
	if res, err := fits.QueryCtx(ctx, over14); err != nil || len(res.Rows) != 85 || !res.Stats.Cached {
		t.Fatalf("capped at exactly 85 rows: %v, %v", res, err)
	}
}
