package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/exec"
	"conquer/internal/faultinject"
	"conquer/internal/qerr"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/testdb"
	"conquer/internal/value"
)

var errBoom = errors.New("boom")

// evaluators are the candidate-loop entry points under one signature,
// next to the step-by-step oracle of each and how closely the two agree
// (the exact oracle enumerates in catalog order, ExactCtx in FROM order).
// On an SPJ statement ExactCtx and MonteCarloCtx run its lineage query,
// and retry on the worlds where that query runs out of budget; on a
// grouped one they run on the worlds. "monte-carlo worlds" is the
// per-world loop alone.
var evaluators = []struct {
	name        string
	run, oracle func(ctx context.Context, d *dirty.DB, stmt *sqlparse.SelectStmt, lim exec.Limits) (*Result, error)
	tol         float64
}{
	{"exact", ExactCtx, oracleExact, value.ProbEpsilon},
	{"monte-carlo",
		func(ctx context.Context, d *dirty.DB, stmt *sqlparse.SelectStmt, lim exec.Limits) (*Result, error) {
			return MonteCarloCtx(ctx, d, stmt, 40, 3, lim)
		}, oracleMonteCarlo40, 0},
	{"monte-carlo worlds",
		func(ctx context.Context, d *dirty.DB, stmt *sqlparse.SelectStmt, lim exec.Limits) (*Result, error) {
			return monteCarloOverWorlds(ctx, d, stmt, 40, 3, lim)
		}, oracleMonteCarlo40, 0},
}

func oracleMonteCarlo40(ctx context.Context, d *dirty.DB, stmt *sqlparse.SelectStmt, lim exec.Limits) (*Result, error) {
	return oracleMonteCarlo(ctx, d, stmt, 40, 3, lim)
}

// monteCarloOverWorlds is MonteCarloCtx on the per-world loop, whatever
// the statement.
func monteCarloOverWorlds(ctx context.Context, d *dirty.DB, stmt *sqlparse.SelectStmt, n int, seed int64, lim exec.Limits) (res *Result, err error) {
	defer qerr.Recover(&err)
	ctx, cancel := lim.WithContext(ctx)
	defer cancel()
	cs, err := d.CandidatesOf(stmt.Tables())
	if err != nil {
		return nil, err
	}
	res, err = Evaluator{DB: d, Engine: engine.NewWithLimits(d.Store, lim)}.sampleWorlds(ctx, stmt, cs, n, seed)
	if err != nil {
		return nil, err
	}
	return estimated(res, n), nil
}

// waitForGoroutines fails the test unless the goroutine count returns to
// before.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i >= 100 {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Storage faults in the middle of an evaluation — an insert fault while a
// later candidate refills the world, a scan fault while a later candidate
// executes, a scan fault inside the lineage query — surface %w-wrapped,
// with the reason the step-by-step path reports, and with no partial
// answer. The world faults hit a grouped statement, which has no lineage.
// A lineage query that fails on a budget fault retries on the worlds, and
// the fault, still armed, fails them.
func TestCandidateLoopSurfacesFaults(t *testing.T) {
	grouped := sqlparse.MustParse("select c.id, count(*) from orders o, customer c where o.cidfk = c.id and c.balance > 10000 group by c.id")
	spj := sqlparse.MustParse("select c.id from orders o, customer c where o.cidfk = c.id and c.balance > 10000")
	for _, ev := range evaluators {
		for _, f := range []struct {
			name  string
			stmt  *sqlparse.SelectStmt
			table string
			op    storage.Op
			n     int // customer refills 2 rows and orders scans 2 per candidate: both land in candidate 3
		}{
			{"insert mid-refill", grouped, "customer", storage.OpInsert, 6},
			{"scan mid-candidate", grouped, "orders", storage.OpScan, 6},
			{"scan mid-lineage", spj, "orders", storage.OpScan, 2},
		} {
			stmt := f.stmt
			for _, cause := range []error{errBoom, qerr.ErrBudgetExceeded} {
				d := testdb.Figure2()
				d.Store.SetInjector(faultinject.FailNth(f.table, f.op, f.n, cause))
				res, err := ev.run(context.Background(), d, stmt, exec.Limits{})
				if res != nil || !errors.Is(err, cause) {
					t.Errorf("%s, %s: result %v, error %v; want no result and errors.Is(err, %v)", ev.name, f.name, res, err, cause)
				}
				d = testdb.Figure2()
				d.Store.SetInjector(faultinject.FailNth(f.table, f.op, f.n, cause))
				_, oerr := ev.oracle(context.Background(), d, stmt, exec.Limits{})
				if qerr.Reason(err) != qerr.Reason(oerr) || !errors.Is(oerr, cause) {
					t.Errorf("%s, %s: reason %q (%v), step-by-step path says %q (%v)", ev.name, f.name, qerr.Reason(err), err, qerr.Reason(oerr), oerr)
				}
			}
		}
	}
}

// Cancellation in the middle of the lineage query or the per-world
// sampling loop ends the evaluation with ErrCanceled, the evaluation's own
// Timeout with ErrDeadline, and neither leaves a goroutine behind. The
// lineage query scans 7 rows, so there the cancellation lands on its last.
func TestCandidateLoopCancellation(t *testing.T) {
	stmt := sqlparse.MustParse("select c.id from orders o, customer c where o.cidfk = c.id")
	for _, ev := range evaluators {
		before := runtime.NumGoroutine()
		d := testdb.Figure2()
		ctx, cancel := context.WithCancel(context.Background())
		// The seventh scanned row belongs to the second or third candidate.
		sched := faultinject.CancelNth(storage.OpScan, 7, cancel)
		d.Store.SetInjector(sched)
		res, err := ev.run(ctx, d, stmt, exec.Limits{})
		cancel()
		if res != nil || !errors.Is(err, qerr.ErrCanceled) {
			t.Errorf("%s: result %v, error %v; want ErrCanceled", ev.name, res, err)
		}
		if n := sched.Calls(storage.OpScan); n > 7+4 {
			t.Errorf("%s: %d rows scanned after a cancellation at row 7; the loop should stop within one candidate", ev.name, n)
		}
		waitForGoroutines(t, before)

		d = testdb.Figure2()
		res, err = ev.run(context.Background(), d, stmt, exec.Limits{Timeout: time.Nanosecond})
		if res != nil || !errors.Is(err, qerr.ErrDeadline) {
			t.Errorf("%s: result %v, error %v; want ErrDeadline", ev.name, res, err)
		}
		waitForGoroutines(t, before)
	}
}

// Row budgets are per candidate: the tree is re-opened under a fresh
// governor each time, so an evaluation whose candidates each fit passes
// however many rows all of them produce together, and one row less fails
// as it does step by step.
func TestCandidateLoopBudgetsArePerCandidate(t *testing.T) {
	d := testdb.Figure2()
	// Every candidate joins 2 orders to 2 customers into 2 groups: 2 build
	// rows and 2 groups buffered, 2 rows out; 8 candidates produce 16.
	// Grouped, the statement has no lineage and runs on the candidates.
	stmt := sqlparse.MustParse("select o.orderid, c.custid, count(*) from orders o, customer c where o.cidfk = c.id group by o.orderid, c.custid")
	for _, ev := range evaluators {
		for _, c := range []struct {
			lim  exec.Limits
			fits bool
		}{
			{exec.Limits{MaxOutputRows: 2, MaxBufferedRows: 4}, true},
			{exec.Limits{MaxOutputRows: 1}, false},
			{exec.Limits{MaxBufferedRows: 3}, false},
		} {
			res, err := ev.run(context.Background(), d, stmt, c.lim)
			ores, oerr := ev.oracle(context.Background(), d, stmt, c.lim)
			if c.fits {
				if err != nil || oerr != nil {
					t.Fatalf("%s %+v: %v (step by step: %v)", ev.name, c.lim, err, oerr)
				}
				sameResult(t, ev.name, ores, res, ev.tol)
				samePlanRuns(t, ev.name, ores, res)
				continue
			}
			if res != nil || !errors.Is(err, qerr.ErrBudgetExceeded) || !errors.Is(oerr, qerr.ErrBudgetExceeded) {
				t.Errorf("%s %+v: result %v, error %v (step by step: %v); want ErrBudgetExceeded", ev.name, c.lim, res, err, oerr)
			}
		}
	}
}

// Nothing of one evaluation is kept for the next: the database holds the
// candidate count alone, and a mutation between two calls is seen.
func TestCandidateLoopSeesMutations(t *testing.T) {
	d := testdb.Figure2()
	stmt := sqlparse.MustParse("select id from customer where balance > 25000")
	before, err := ExactCtx(context.Background(), d, stmt, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	cust, _ := d.Store.Table("customer")
	if err := cust.UpdateColumn(0, "balance", cust.Row(1)[3]); err != nil { // John's 20000 becomes 30000
		t.Fatal(err)
	}
	after, err := ExactCtx(context.Background(), d, stmt, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if p := before.Find(cust.Row(0)[0]); !approx(p, 0.3) {
		t.Errorf("before the update P(c1) = %v, want 0.3", p)
	}
	if p := after.Find(cust.Row(0)[0]); !approx(p, 1) {
		t.Errorf("after the update P(c1) = %v, want 1", p)
	}
}
