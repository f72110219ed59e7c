package engine

import (
	"context"
	"errors"
	"testing"

	"conquer/internal/exec"
	"conquer/internal/faultinject"
	"conquer/internal/metrics"
	"conquer/internal/qerr"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// A Prepared is planned once and re-opened per Run: the rows follow the
// tables' current contents, every run gets the whole budget, and Report
// hands the metrics every run in one step.
func TestPreparedRunsAgainOverChangedRows(t *testing.T) {
	db := figure2DB(t)
	stmt := sqlparse.MustParse("select c.custid from orders o, customer c where o.cidfk = c.id and c.balance > 25000")
	// Three or five result rows per run: the budget holds for each run,
	// not for their sum.
	p, err := NewWithLimits(db, exec.Limits{MaxBufferedRows: 4, MaxOutputRows: 5}).Prepare(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Columns(); len(got) != 1 || got[0] != "custid" {
		t.Fatalf("columns = %v", got)
	}
	queries := metrics.Default.Counter("engine.queries").Load()
	cust, _ := db.Table("customer")
	johns := [][]value.Value{cust.Row(0), cust.Row(1)} // balance 20000, 30000
	total := 0
	for i := 0; i < 5; i++ {
		// Same table size, different rows: what a candidate world does.
		if err := cust.SetRow(0, johns[i%2]); err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(context.Background())
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		want, err := New(db).QueryStmt(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(want.Rows) {
			t.Fatalf("run %d: %d rows, a fresh plan returns %d", i, len(res.Rows), len(want.Rows))
		}
		for r := range want.Rows {
			if !value.RowsIdentical(res.Rows[r], want.Rows[r]) {
				t.Errorf("run %d row %d = %v, want %v", i, r, res.Rows[r], want.Rows[r])
			}
		}
		total += len(res.Rows)
	}
	if total != 3+5+3+5+3 {
		t.Fatalf("runs returned %d rows in all, want 19", total)
	}
	if got := metrics.Default.Counter("engine.queries").Load() - queries; got != 5 {
		t.Errorf("engine.queries moved by %d before Report, want 5 (the fresh plans)", got)
	}
	runs, peak := p.Report(context.Background(), nil, 0)
	if runs != 5 || peak != 3 {
		t.Errorf("Report = %d runs, peak %d; want 5 runs, peak 3", runs, peak)
	}
	if got := metrics.Default.Counter("engine.queries").Load() - queries; got != 10 {
		t.Errorf("engine.queries moved by %d after Report, want 10", got)
	}
	if runs, _ := p.Report(context.Background(), nil, 0); runs != 0 {
		t.Errorf("second Report = %d runs, want 0", runs)
	}
}

// A run that fails may leave operators half-consumed: the tree is never
// opened again.
func TestPreparedIsNotReopenedAfterAnError(t *testing.T) {
	db := figure2DB(t)
	boom := errors.New("boom")
	sched := faultinject.FailNth("customer", storage.OpScan, 2, boom)
	db.SetInjector(sched)
	p, err := New(db).Prepare(sqlparse.MustParse("select custid from customer"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("first run: %v, want boom", err)
	}
	scans := sched.Calls(storage.OpScan)
	db.SetInjector(nil)
	if _, err := p.Run(context.Background()); !errors.Is(err, qerr.ErrInternal) {
		t.Fatalf("second run: %v, want a qerr.ErrInternal refusal", err)
	}
	if got := sched.Calls(storage.OpScan); got != scans {
		t.Errorf("the refused run scanned %d rows", got-scans)
	}
}
