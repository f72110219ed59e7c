package engine

import (
	"context"
	"testing"

	"conquer/internal/sqlparse"
	"conquer/internal/value"
)

func TestHavingOnSelectedAggregate(t *testing.T) {
	e := New(figure2DB(t))
	res, err := e.QueryCtx(context.Background(), "select id, sum(prob) as p from customer group by id having sum(prob) > 0.9 order by id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // both clusters sum to 1
		t.Fatalf("rows = %d", len(res.Rows))
	}
	res, err = e.QueryCtx(context.Background(), "select id, max(balance) as hi from customer group by id having max(balance) > 20000")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("max filter rows = %d", len(res.Rows))
	}
	res, err = e.QueryCtx(context.Background(), "select id from customer group by id having max(balance) > 28000")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "c1" {
		t.Fatalf("hidden-aggregate HAVING: %v", res.Rows)
	}
	// Hidden aggregate column must not leak into the output.
	if len(res.Columns) != 1 || res.Columns[0] != "id" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestHavingOnGroupKeyAndCount(t *testing.T) {
	e := New(figure2DB(t))
	res, err := e.QueryCtx(context.Background(), "select name, count(*) as n from customer group by name having count(*) >= 1 and name <> 'Marion' order by name")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // John, Mary
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].AsString() != "John" || res.Rows[0][1].AsInt() != 2 {
		t.Errorf("first group: %v", res.Rows[0])
	}
}

func TestHavingComplexPredicates(t *testing.T) {
	e := New(figure2DB(t))
	// BETWEEN, IN and arithmetic over aggregates.
	res, err := e.QueryCtx(context.Background(), "select id from customer group by id having sum(balance) between 30000 and 60000")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // c1: 50000, c2: 32000
		t.Fatalf("between rows = %v", res.Rows)
	}
	res, err = e.QueryCtx(context.Background(), "select id from customer group by id having count(*) in (2)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("in rows = %v", res.Rows)
	}
	res, err = e.QueryCtx(context.Background(), "select id from customer group by id having sum(balance) / count(*) > 20000")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "c1" {
		t.Fatalf("arith rows = %v", res.Rows)
	}
	// NOT and IS NULL.
	res, err = e.QueryCtx(context.Background(), "select id from customer group by id having not (sum(balance) > 40000)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "c2" {
		t.Fatalf("not rows = %v", res.Rows)
	}
	res, err = e.QueryCtx(context.Background(), "select id from customer group by id having sum(balance) is not null")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("is-not-null rows = %v", res.Rows)
	}
}

func TestHavingReusesSelectedAggregate(t *testing.T) {
	e := New(figure2DB(t))
	// sum(prob) appears in both SELECT and HAVING: one aggregate, no
	// hidden column, and the value is consistent.
	res, err := e.QueryCtx(context.Background(), "select id, sum(prob) as p from customer group by id having sum(prob) >= 0.5 order by id")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r[1].AsFloat() < 0.5 {
			t.Errorf("HAVING not applied: %v", r)
		}
	}
	if len(res.Columns) != 2 {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestHavingWithJoinAndOrderBy(t *testing.T) {
	e := New(figure2DB(t))
	res, err := e.QueryCtx(context.Background(), `select o.id, sum(o.prob * c.prob) as p
		from orders o, customer c
		where o.cidfk = c.id
		group by o.id
		having sum(o.prob * c.prob) > 0.9
		order by p desc`)
	if err != nil {
		t.Fatal(err)
	}
	// Each order cluster's probability mass sums to 1 over all joins.
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestHavingErrors(t *testing.T) {
	e := New(figure2DB(t))
	bad := []string{
		"select id from customer having sum(prob) > 1",             // no GROUP BY (parser)
		"select id from customer group by id having balance > 1",   // non-grouped column
		"select id from customer group by id having abs(prob) > 1", // unknown function
		"select id from customer group by id having avg(*) > 1",    // * on non-count
	}
	for _, q := range bad {
		if _, err := e.QueryCtx(context.Background(), q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
}

func TestHavingSQLRoundTrip(t *testing.T) {
	q := "select id, sum(prob) as p from customer group by id having sum(prob) > 0.5 order by id"
	e := New(figure2DB(t))
	res1, err := e.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Print/reparse through the AST and get identical results.
	stmt2 := mustReparse(t, q)
	res2, err := e.QueryStmt(stmt2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Rows) != len(res2.Rows) {
		t.Fatalf("round-trip row mismatch: %d vs %d", len(res1.Rows), len(res2.Rows))
	}
	for i := range res1.Rows {
		if !value.RowsIdentical(res1.Rows[i], res2.Rows[i]) {
			t.Errorf("row %d differs", i)
		}
	}
}

// mustReparse prints a statement back to SQL and parses it again.
func mustReparse(t *testing.T, q string) *sqlparse.SelectStmt {
	t.Helper()
	s1, err := sqlparse.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sqlparse.Parse(s1.SQL())
	if err != nil {
		t.Fatalf("reparse of %q: %v", s1.SQL(), err)
	}
	return s2
}
