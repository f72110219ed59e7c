package engine

import (
	"context"
	"strings"
	"testing"

	"conquer/internal/exec"
	"conquer/internal/schema"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// figure2DB builds the paper's Figure 2 database (orders + customer with
// identifiers and probabilities).
func figure2DB(t testing.TB) *storage.DB {
	t.Helper()
	db := storage.NewDB()

	ordS := schema.MustRelation("orders",
		schema.Column{Name: "id", Type: value.KindString},
		schema.Column{Name: "orderid", Type: value.KindString},
		schema.Column{Name: "custfk", Type: value.KindString},
		schema.Column{Name: "cidfk", Type: value.KindString},
		schema.Column{Name: "quantity", Type: value.KindInt},
		schema.Column{Name: "prob", Type: value.KindFloat},
	)
	ord := db.MustCreateTable(ordS)
	ord.MustInsert(value.Str("o1"), value.Str("11"), value.Str("m1"), value.Str("c1"), value.Int(3), value.Float(1))
	ord.MustInsert(value.Str("o2"), value.Str("12"), value.Str("m2"), value.Str("c1"), value.Int(2), value.Float(0.5))
	ord.MustInsert(value.Str("o2"), value.Str("13"), value.Str("m3"), value.Str("c2"), value.Int(5), value.Float(0.5))

	custS := schema.MustRelation("customer",
		schema.Column{Name: "id", Type: value.KindString},
		schema.Column{Name: "custid", Type: value.KindString},
		schema.Column{Name: "name", Type: value.KindString},
		schema.Column{Name: "balance", Type: value.KindFloat},
		schema.Column{Name: "prob", Type: value.KindFloat},
	)
	cust := db.MustCreateTable(custS)
	cust.MustInsert(value.Str("c1"), value.Str("m1"), value.Str("John"), value.Float(20000), value.Float(0.7))
	cust.MustInsert(value.Str("c1"), value.Str("m2"), value.Str("John"), value.Float(30000), value.Float(0.3))
	cust.MustInsert(value.Str("c2"), value.Str("m3"), value.Str("Mary"), value.Float(27000), value.Float(0.2))
	cust.MustInsert(value.Str("c2"), value.Str("m4"), value.Str("Marion"), value.Float(5000), value.Float(0.8))
	return db
}

func TestQuerySelection(t *testing.T) {
	e := New(figure2DB(t))
	res, err := e.QueryCtx(context.Background(), "select id from customer where balance > 10000")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	if res.Columns[0] != "id" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestQueryJoin(t *testing.T) {
	e := New(figure2DB(t))
	res, err := e.QueryCtx(context.Background(), "select o.id, c.id from orders o, customer c where o.cidfk = c.id and c.balance > 10000")
	if err != nil {
		t.Fatal(err)
	}
	// (o1,c1)x2, (o2,c1)x2, (o2,c2)x1 -> 5 rows
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
}

// The naive rewriting of paper Example 5: grouping and summing.
func TestQueryGroupBySum(t *testing.T) {
	e := New(figure2DB(t))
	res, err := e.QueryCtx(context.Background(), "select id, sum(prob) from customer where balance > 10000 group by id")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, r := range res.Rows {
		got[r[0].AsString()] = r[1].AsFloat()
	}
	if !approx(got["c1"], 1.0) || !approx(got["c2"], 0.2) {
		t.Errorf("clean answers = %v, want c1=1.0 c2=0.2", got)
	}
}

// Paper Example 6: two-table rewriting with product of probabilities.
func TestQueryJoinGroupBySumProduct(t *testing.T) {
	e := New(figure2DB(t))
	res, err := e.QueryCtx(context.Background(), "select o.id, c.id, sum(o.prob * c.prob) from orders o, customer c where o.cidfk = c.id and c.balance > 10000 group by o.id, c.id")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, r := range res.Rows {
		got[r[0].AsString()+"/"+r[1].AsString()] = r[2].AsFloat()
	}
	want := map[string]float64{"o1/c1": 1.0, "o2/c1": 0.5, "o2/c2": 0.1}
	for k, w := range want {
		if !approx(got[k], w) {
			t.Errorf("%s = %v, want %v (all: %v)", k, got[k], w, got)
		}
	}
	if len(got) != 3 {
		t.Errorf("groups = %d", len(got))
	}
}

func approx(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestQueryOrderByAliasAndExpr(t *testing.T) {
	e := New(figure2DB(t))
	res, err := e.QueryCtx(context.Background(), "select custid, balance * 2 as dbl from customer order by dbl desc, custid")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsString() != "m2" {
		t.Errorf("order by alias desc: first = %v", res.Rows[0])
	}
	// ORDER BY repeating the select expression text.
	res2, err := e.QueryCtx(context.Background(), "select custid, balance * 2 from customer order by balance * 2 desc")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Rows[0][0].AsString() != "m2" {
		t.Errorf("order by expr text: first = %v", res2.Rows[0])
	}
}

func TestQueryOrderByColumn(t *testing.T) {
	e := New(figure2DB(t))
	res, err := e.QueryCtx(context.Background(), "select custid from customer order by custid desc limit 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].AsString() != "m4" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestQueryDistinct(t *testing.T) {
	e := New(figure2DB(t))
	res, err := e.QueryCtx(context.Background(), "select distinct name from customer")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 { // John, Mary, Marion
		t.Errorf("distinct names = %d", len(res.Rows))
	}
}

func TestQueryStar(t *testing.T) {
	e := New(figure2DB(t))
	res, err := e.QueryCtx(context.Background(), "select * from customer")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 5 || len(res.Rows) != 4 {
		t.Errorf("star: %v x %d", res.Columns, len(res.Rows))
	}
}

func TestQueryCrossJoinFallback(t *testing.T) {
	e := New(figure2DB(t))
	res, err := e.QueryCtx(context.Background(), "select o.id, c.id from orders o, customer c")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Errorf("cross join rows = %d, want 12", len(res.Rows))
	}
}

func TestQueryResidualPredicate(t *testing.T) {
	e := New(figure2DB(t))
	// Non-equi multi-table predicate must be applied after the cross join.
	res, err := e.QueryCtx(context.Background(), "select o.id, c.id from orders o, customer c where o.quantity > c.balance / 10000")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		_ = r
	}
	if len(res.Rows) == 0 || len(res.Rows) == 12 {
		t.Errorf("residual filter had no effect: %d rows", len(res.Rows))
	}
}

func TestQueryConstantPredicate(t *testing.T) {
	e := New(figure2DB(t))
	res, err := e.QueryCtx(context.Background(), "select id from customer where 1 = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Error("constant-false predicate should yield nothing")
	}
	res, err = e.QueryCtx(context.Background(), "select id from customer where 1 = 1")
	if err != nil || len(res.Rows) != 4 {
		t.Error("constant-true predicate should pass everything")
	}
}

func TestQueryErrors(t *testing.T) {
	e := New(figure2DB(t))
	bad := []string{
		"select id from ghost",
		"select ghost from customer",
		"select c.ghost from customer c",
		"select x.id from customer c",
		"select id from customer c, customer c", // duplicate alias
		"select id, name from customer group by id",
		"select sum(prob) + 1 from customer",
		"not sql at all",
		"select prob from customer where name = 1", // type mismatch at eval
	}
	for _, q := range bad {
		if _, err := e.QueryCtx(context.Background(), q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
}

func TestQueryAmbiguousUnqualified(t *testing.T) {
	e := New(figure2DB(t))
	if _, err := e.QueryCtx(context.Background(), "select id from orders o, customer c where o.cidfk = c.id"); err == nil {
		t.Error("unqualified ambiguous column should fail")
	}
	// Unambiguous unqualified columns resolve across tables.
	res, err := e.QueryCtx(context.Background(), "select orderid, balance from orders o, customer c where o.cidfk = c.id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestExplain(t *testing.T) {
	e := New(figure2DB(t))
	out, err := e.Explain("select o.id from orders o, customer c where o.cidfk = c.id and c.balance > 10000")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"HashJoin", "Scan", "Project"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// Single-table predicate should be pushed below the join (appear after
	// the join line, indented).
	if !strings.Contains(out, "Filter") {
		t.Errorf("expected pushed filter:\n%s", out)
	}
	if _, err := e.Explain("bad sql"); err == nil {
		t.Error("Explain of bad SQL should fail")
	}
}

func TestResultHelpers(t *testing.T) {
	e := New(figure2DB(t))
	res, err := e.QueryCtx(context.Background(), "select custid, balance from customer order by custid")
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.Contains(s, "custid") || !strings.Contains(s, "m1") {
		t.Errorf("String():\n%s", s)
	}
}

func TestQueryAggregatesWithoutGroupBy(t *testing.T) {
	e := New(figure2DB(t))
	res, err := e.QueryCtx(context.Background(), "select count(*), sum(prob), min(balance), max(balance), avg(balance) from customer")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("global aggregate rows = %d", len(res.Rows))
	}
	r := res.Rows[0]
	if r[0].AsInt() != 4 || !approx(r[1].AsFloat(), 2.0) || r[2].AsFloat() != 5000 || r[3].AsFloat() != 30000 || r[4].AsFloat() != 20500 {
		t.Errorf("aggregates = %v", r)
	}
}

func TestQueryAliasInGroupOutput(t *testing.T) {
	e := New(figure2DB(t))
	res, err := e.QueryCtx(context.Background(), "select id as cluster, sum(prob) as p from customer group by id order by cluster")
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0] != "cluster" || res.Columns[1] != "p" {
		t.Errorf("columns = %v", res.Columns)
	}
}

// Select order differing from group order must still project correctly.
func TestQueryAggregateReordering(t *testing.T) {
	e := New(figure2DB(t))
	res, err := e.QueryCtx(context.Background(), "select sum(prob) as p, id from customer group by id order by id")
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0] != "p" || res.Columns[1] != "id" {
		t.Errorf("columns = %v", res.Columns)
	}
	if res.Rows[0][1].AsString() != "c1" || !approx(res.Rows[0][0].AsFloat(), 1.0) {
		t.Errorf("rows = %v", res.Rows)
	}
}

// Parallelism 1 is serial whatever the inert Shards says: over a table
// of several morsels a scan, a grouped aggregate and a join run without a
// morsel claim, and their plans show no parallel operator: a Gather only
// as Gather[n=1], which passes its child's rows straight through.
func TestParallelismOneIsSerialAtEveryShardCount(t *testing.T) {
	db := storage.NewDB()
	intTable(t, db, "t1", 3*exec.DefaultMorselSize)
	for _, q := range []string{
		"select a from t1 where a > 10",
		"select a, count(*) from t1 group by a",
		"select x.a from t1 x, t1 y where x.a = y.a",
	} {
		for _, shards := range []int{0, 1, 2, 4} {
			e := NewWithOptions(db, Options{Parallelism: 1, Shards: shards})
			plan, err := e.Explain(q)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Count(plan, "Gather") != strings.Count(plan, "Gather[n=1]") || strings.Contains(plan, "parallel") {
				t.Errorf("shards %d: %s plans\n%s\nwant no Gather but Gather[n=1] and no parallel build", shards, q, plan)
			}
			out, err := e.ExplainAnalyzeCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(out, "morsels=[") || strings.Contains(out, "one morsel") {
				t.Errorf("shards %d: %s ran split:\n%s", shards, q, out)
			}
		}
	}
}
