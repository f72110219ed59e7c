package faultinject_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"conquer/internal/core"
	"conquer/internal/engine"
	"conquer/internal/faultinject"
	"conquer/internal/qerr"
	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/testdb"
	"conquer/internal/value"
)

var errBoom = errors.New("boom")

func mustParse(t *testing.T, sql string) *sqlparse.SelectStmt {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// A fault injected into candidate-database materialization must surface
// errors.Is-matchable through the exact evaluator, and must not disturb
// the source database. The statement is grouped, so exact materializes
// its candidates (an SPJ one it answers from one lineage query).
func TestMaterializeInsertFaultPropagates(t *testing.T) {
	d := testdb.Figure2()
	wantRows := d.Store.TotalRows()
	sched := faultinject.FailNth("customer", storage.OpInsert, 2, errBoom)
	d.Store.SetInjector(sched)

	stmt := mustParse(t, "select name, count(*) from customer where balance > 10000 group by name")
	ev := core.Evaluator{DB: d, Engine: engine.New(d.Store)}
	_, err := ev.Eval(context.Background(), stmt, core.EvalOptions{Method: core.MethodExact})
	if !errors.Is(err, errBoom) {
		t.Fatalf("Exact error = %v, want errors.Is(err, errBoom)", err)
	}
	if got := sched.Calls(storage.OpInsert); got < 2 {
		t.Errorf("insert calls = %d, want >= 2", got)
	}

	// No partial state: the source database is untouched, and clearing
	// the schedule makes the same evaluation succeed.
	if got := d.Store.TotalRows(); got != wantRows {
		t.Errorf("source rows = %d after fault, want %d", got, wantRows)
	}
	d.Store.SetInjector(nil)
	res, err := ev.Eval(context.Background(), stmt, core.EvalOptions{Method: core.MethodExact})
	if err != nil {
		t.Fatalf("Exact after clearing injector: %v", err)
	}
	if res.Len() == 0 {
		t.Error("Exact returned no answers after clearing injector")
	}
}

// A scan fault must propagate %w-wrapped through the executor and the
// engine facade.
func TestScanFaultPropagatesThroughEngine(t *testing.T) {
	d := testdb.Figure2()
	d.Store.SetInjector(faultinject.FailNth("customer", storage.OpScan, 3, errBoom))
	_, err := engine.New(d.Store).Query("select name from customer")
	if !errors.Is(err, errBoom) {
		t.Fatalf("Query error = %v, want errors.Is(err, errBoom)", err)
	}
}

// A clone fault must abort DB.Clone with the injected error and no
// partially cloned database.
func TestCloneFault(t *testing.T) {
	d := testdb.Figure2()
	d.Store.SetInjector(faultinject.FailNth("", storage.OpClone, 2, errBoom))
	out, err := d.Store.Clone()
	if !errors.Is(err, errBoom) {
		t.Fatalf("Clone error = %v, want errors.Is(err, errBoom)", err)
	}
	if out != nil {
		t.Errorf("Clone returned a partial database alongside the error")
	}
}

// bigJoinDB builds two clean relations large enough that a mid-join
// cancellation lands between governor polls.
func bigJoinDB(t *testing.T, rows int) *storage.DB {
	t.Helper()
	db := storage.NewDB()
	left := db.MustCreateTable(schema.MustRelation("t1",
		schema.Column{Name: "a", Type: value.KindInt},
	))
	right := db.MustCreateTable(schema.MustRelation("t2",
		schema.Column{Name: "a", Type: value.KindInt},
	))
	for i := 0; i < rows; i++ {
		left.MustInsert(value.Int(int64(i)))
		right.MustInsert(value.Int(int64(i)))
	}
	return db
}

// Cancelling the context mid-join must abort the query with a
// qerr.ErrCanceled-matchable error within the governor's poll interval,
// well before the join completes.
func TestCancelMidJoinReturnsErrCanceled(t *testing.T) {
	db := bigJoinDB(t, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Fire cancellation on the 100th scanned row, deep inside the build
	// phase of the hash join.
	sched := faultinject.CancelNth(storage.OpScan, 100, cancel)
	db.SetInjector(sched)

	_, err := engine.New(db).QueryCtx(ctx, "select t1.a from t1, t2 where t1.a = t2.a")
	if !errors.Is(err, qerr.ErrCanceled) {
		t.Fatalf("QueryCtx error = %v, want errors.Is(err, qerr.ErrCanceled)", err)
	}
	// "Within the poll interval": the query must not have run to
	// completion — both scans together would be ~4000 rows.
	if got := sched.Calls(storage.OpScan); got > 100+512 {
		t.Errorf("scans after cancellation = %d, want cancellation caught within the poll interval", got)
	}
}

// An observational rule fires its hook without failing the operation.
func TestObservationalRule(t *testing.T) {
	fired := 0
	sched := faultinject.New(faultinject.Rule{Op: storage.OpInsert, N: 1, OnFire: func() { fired++ }})
	db := storage.NewDB()
	db.SetInjector(sched)
	tb := db.MustCreateTable(schema.MustRelation("t",
		schema.Column{Name: "a", Type: value.KindInt},
	))
	for i := 0; i < 3; i++ {
		if err := tb.Insert([]value.Value{value.Int(int64(i))}); err != nil {
			t.Fatalf("observational rule failed insert: %v", err)
		}
	}
	if fired != 1 {
		t.Errorf("OnFire ran %d times, want once", fired)
	}
	if tb.Len() != 3 {
		t.Errorf("table has %d rows, want 3", tb.Len())
	}
}

// Monte-Carlo sampling of a statement outside SPJ hits the same
// materialization path; an injected fault must surface through it as
// well. An SPJ statement samples its lineage and materializes nothing.
func TestMonteCarloMaterializeFault(t *testing.T) {
	d := testdb.Figure1()
	d.Store.SetInjector(faultinject.FailNth("customer", storage.OpInsert, 5, errBoom))
	ev := core.Evaluator{DB: d, Engine: engine.New(d.Store)}
	opts := core.EvalOptions{Method: core.MethodMonteCarlo, Samples: 20, Seed: 1}
	_, err := ev.Eval(context.Background(), mustParse(t, "select name, count(*) from customer group by name"), opts)
	if !errors.Is(err, errBoom) {
		t.Fatalf("MonteCarloCtx error = %v, want errors.Is(err, errBoom)", err)
	}
	res, err := ev.Eval(context.Background(), mustParse(t, "select name from customer"), opts)
	if err != nil || res.Stats.Queries != 1 {
		t.Fatalf("SPJ statement: %+v, error %v; want one query and no world", res, err)
	}
}

// The wrapped chain keeps layer-by-layer detail: the storage layer names
// the table, so operators debugging a fault can locate it.
func TestFaultErrorCarriesTableName(t *testing.T) {
	d := testdb.Figure2()
	d.Store.SetInjector(faultinject.FailNth("orders", storage.OpScan, 1, errBoom))
	_, err := engine.New(d.Store).Query("select orderid from orders")
	if err == nil {
		t.Fatal("expected error")
	}
	if msg := fmt.Sprint(err); !containsAll(msg, "orders", "boom") {
		t.Errorf("error %q does not name the table and cause", msg)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
