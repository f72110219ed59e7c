package conquer

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/sqlparse"
)

// E[COUNT] over the clean answers equals the candidate-weighted average
// answer-set size, computed here by direct enumeration.
func TestExpectedCountMatchesEnumeration(t *testing.T) {
	db := paperDB(t)
	const sql = "select id from customer where balance > 10000"
	res, err := db.Eval(context.Background(), sql, EvalOptions{Method: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	got := res.ExpectedCount()

	// Direct enumeration: Σ_cand P(cand)·|answers(cand)|. c1 answers in
	// every candidate; c2 only in those that pick Mary (probability 0.2),
	// so the expectation is 1.2.
	want := 0.0
	cs, err := db.d.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	err = cs.Enumerate(context.Background(), 0, func(c *dirty.Candidate) bool {
		world, err := db.d.MaterializeCtx(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		r, err := engine.New(world).QueryStmt(sqlparse.MustParse(sql))
		if err != nil {
			t.Fatal(err)
		}
		answers := map[string]bool{} // set semantics
		for _, row := range r.Rows {
			answers[fmt.Sprint(row)] = true
		}
		want += c.Prob * float64(len(answers))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(want, 1.2) {
		t.Fatalf("enumeration self-check: %v", want)
	}
	if !approx(got, want) {
		t.Errorf("E[COUNT] = %v, want %v", got, want)
	}
}

// A NULL contributes nothing to an expected sum, as in SQL aggregation.
func TestExpectedSumSkipsNull(t *testing.T) {
	db := New()
	db.MustCreateTable("item", Columns("name STRING", "qty INT"), WithDirty("id", "prob"))
	db.MustInsert("item", "a", nil, "i1", 0.5)
	db.MustInsert("item", "b", 4, "i1", 0.5)
	db.MustInsert("item", "c", nil, "i2", 1.0)
	res, err := db.Eval(context.Background(), "select name, qty from item", EvalOptions{Method: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 3 {
		t.Fatalf("%d answers, want 3 (two of them NULL): %v", len(res.Answers), res)
	}
	if got, err := res.ExpectedSum("qty"); err != nil || got != 2 {
		t.Errorf("E[SUM] with NULLs = %v, %v; want 2", got, err)
	}
}

func TestExpectedCountAndSumPublic(t *testing.T) {
	db := paperDB(t)
	res, err := db.CleanAnswers(
		"select o.id, c.id, o.quantity from orders o, customer c where o.cidfk = c.id and c.balance > 10000")
	if err != nil {
		t.Fatal(err)
	}
	// Answers: (o1,c1,3) p=1; (o2,c1,2) p=.5; (o2,c2,5) p=.1.
	if got := res.ExpectedCount(); !approx(got, 1.6) {
		t.Errorf("E[COUNT] = %v, want 1.6", got)
	}
	got, err := res.ExpectedSum("quantity")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 3+1+0.5) {
		t.Errorf("E[SUM] = %v, want 4.5", got)
	}
	if _, err := res.ExpectedSum("ghost"); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := res.ExpectedSum("id"); err == nil {
		t.Error("non-numeric column should fail")
	}
}

func TestEstimateAggregatePublic(t *testing.T) {
	db := paperDB(t)
	q := "select id, balance from customer where balance > 10000"
	est, err := db.EstimateAggregate(q, "count", "", 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-1.2) > 0.05 {
		t.Errorf("MC E[COUNT] = %v, want ~1.2", est.Mean)
	}
	// MIN is non-linear: the closed form does not apply, but the estimate
	// must land in the derived 22820 expectation (see core tests).
	est, err = db.EstimateAggregate(q, "min", "balance", 30000, 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-22820) > 200 {
		t.Errorf("MC E[MIN] = %v, want ~22820", est.Mean)
	}
	// Column resolution honors aliases.
	est, err = db.EstimateAggregate(
		"select id, balance * 2 as dbl from customer where balance > 10000",
		"max", "dbl", 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean < 40000 || est.Mean > 60000 {
		t.Errorf("aliased MAX = %v", est.Mean)
	}
	// Errors.
	if _, err := db.EstimateAggregate(q, "median", "balance", 10, 1); err == nil {
		t.Error("unknown aggregate kind should fail")
	}
	if _, err := db.EstimateAggregate(q, "sum", "ghost", 10, 1); err == nil {
		t.Error("unselected column should fail")
	}
	if _, err := db.EstimateAggregate("not sql", "count", "", 10, 1); err == nil {
		t.Error("bad SQL should fail")
	}
}

// EstimateAggregate names a column as Eval reports it: SELECT *'s columns
// and an unaliased expression's generated name included.
func TestEstimateAggregateNamesEvalColumns(t *testing.T) {
	db := paperDB(t)
	for _, c := range []struct {
		sql, column string
		lo, hi      float64 // the range MAX must land in
	}{
		{"select * from customer where balance > 10000", "balance", 20000, 30000},
		{"select * from customer where balance > 10000", "prob", 0.2, 0.7},
		{"select balance * 2 from customer where balance > 10000", "col1", 40000, 60000},
	} {
		res, err := db.Eval(context.Background(), c.sql, EvalOptions{Method: "exact"})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(res.Columns, c.column) {
			t.Fatalf("%s: Eval reports columns %v, not %q", c.sql, res.Columns, c.column)
		}
		est, err := db.EstimateAggregate(c.sql, "max", c.column, 2000, 3)
		if err != nil {
			t.Errorf("%s: MAX(%s): %v", c.sql, c.column, err)
			continue
		}
		if est.Mean < c.lo || est.Mean > c.hi {
			t.Errorf("%s: E[MAX(%s)] = %v, want within [%v, %v]", c.sql, c.column, est.Mean, c.lo, c.hi)
		}
		if _, err := db.EstimateAggregate(c.sql, "max", "ghost", 10, 1); err == nil {
			t.Errorf("%s: MAX(ghost) should fail", c.sql)
		}
	}
}
