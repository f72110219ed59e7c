package exec

import (
	"strings"
	"testing"

	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// testTables builds the order/customer database of Figure 2 of the paper.
func testTables(t testing.TB) (*storage.Table, *storage.Table) {
	t.Helper()
	ordS := schema.MustRelation("orders",
		schema.Column{Name: "id", Type: value.KindString},
		schema.Column{Name: "orderid", Type: value.KindString},
		schema.Column{Name: "cidfk", Type: value.KindString},
		schema.Column{Name: "quantity", Type: value.KindInt},
		schema.Column{Name: "prob", Type: value.KindFloat},
	)
	ord := storage.NewTable(ordS)
	ord.MustInsert(value.Str("o1"), value.Str("11"), value.Str("c1"), value.Int(3), value.Float(1))
	ord.MustInsert(value.Str("o2"), value.Str("12"), value.Str("c1"), value.Int(2), value.Float(0.5))
	ord.MustInsert(value.Str("o2"), value.Str("13"), value.Str("c2"), value.Int(5), value.Float(0.5))

	custS := schema.MustRelation("customer",
		schema.Column{Name: "id", Type: value.KindString},
		schema.Column{Name: "custid", Type: value.KindString},
		schema.Column{Name: "name", Type: value.KindString},
		schema.Column{Name: "balance", Type: value.KindFloat},
		schema.Column{Name: "prob", Type: value.KindFloat},
	)
	cust := storage.NewTable(custS)
	cust.MustInsert(value.Str("c1"), value.Str("m1"), value.Str("John"), value.Float(20000), value.Float(0.7))
	cust.MustInsert(value.Str("c1"), value.Str("m2"), value.Str("John"), value.Float(30000), value.Float(0.3))
	cust.MustInsert(value.Str("c2"), value.Str("m3"), value.Str("Mary"), value.Float(27000), value.Float(0.2))
	cust.MustInsert(value.Str("c2"), value.Str("m4"), value.Str("Marion"), value.Float(5000), value.Float(0.8))
	return ord, cust
}

func expr(t testing.TB, src string) sqlparse.Expr {
	t.Helper()
	s, err := sqlparse.Parse("select a from t where " + src)
	if err != nil {
		t.Fatalf("expr %q: %v", src, err)
	}
	return s.Where
}

func TestScan(t *testing.T) {
	ord, _ := testTables(t)
	sc := NewScan(ord, "O")
	rows, err := collect(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("scan rows = %d", len(rows))
	}
	if sc.Schema()[0].Qualifier != "o" {
		t.Error("alias should be lowercased in schema")
	}
	// Re-open rescans.
	rows2, err := collect(sc)
	if err != nil || len(rows2) != 3 {
		t.Error("rescan after Open should work")
	}
	if !strings.Contains(sc.Describe(), "orders") {
		t.Error("Describe")
	}
}

func TestRowSchemaResolve(t *testing.T) {
	ord, cust := testTables(t)
	rs := NewScan(ord, "o").Schema().Concat(NewScan(cust, "c").Schema())
	if i, err := rs.Resolve("o", "quantity"); err != nil || i != 3 {
		t.Errorf("Resolve(o.quantity) = %d, %v", i, err)
	}
	if i, err := rs.Resolve("", "balance"); err != nil || i != 8 {
		t.Errorf("Resolve(balance) = %d, %v", i, err)
	}
	if _, err := rs.Resolve("", "id"); err == nil {
		t.Error("ambiguous unqualified id should fail")
	}
	if _, err := rs.Resolve("", "ghost"); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := rs.Resolve("x", "id"); err == nil {
		t.Error("wrong qualifier should fail")
	}
}

func TestFilter(t *testing.T) {
	_, cust := testTables(t)
	f, err := NewFilter(NewScan(cust, "c"), expr(t, "c.balance > 10000"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := collect(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("filter rows = %d, want 3", len(rows))
	}
}

func TestFilterCompileError(t *testing.T) {
	_, cust := testTables(t)
	if _, err := NewFilter(NewScan(cust, "c"), expr(t, "c.ghost > 1")); err == nil {
		t.Error("unknown column should fail at compile time")
	}
}

func TestProject(t *testing.T) {
	_, cust := testTables(t)
	sc := NewScan(cust, "c")
	p, err := NewProject(sc, []ProjectionCol{
		{Expr: &sqlparse.ColumnRef{Qualifier: "c", Name: "name"}, Col: ColInfo{Name: "name", Type: value.KindString}},
		{Expr: expr(t, "c.balance * 2").(*sqlparse.BinaryExpr), Col: ColInfo{Name: "double_balance", Type: value.KindFloat}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][1].AsFloat() != 40000 {
		t.Errorf("projection arithmetic: %v", rows[0][1])
	}
	if p.Schema()[1].Name != "double_balance" {
		t.Error("projected column name")
	}
}

func TestHashJoin(t *testing.T) {
	ord, cust := testTables(t)
	j, err := NewHashJoin(
		NewScan(ord, "o"), NewScan(cust, "c"),
		[]sqlparse.Expr{&sqlparse.ColumnRef{Qualifier: "o", Name: "cidfk"}},
		[]sqlparse.Expr{&sqlparse.ColumnRef{Qualifier: "c", Name: "id"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := collect(j)
	if err != nil {
		t.Fatal(err)
	}
	// o1->c1 matches 2 customer tuples, o2(c1) matches 2, o2(c2) matches 2.
	if len(rows) != 6 {
		t.Fatalf("join rows = %d, want 6", len(rows))
	}
	if len(rows[0]) != 10 {
		t.Errorf("joined width = %d, want 10", len(rows[0]))
	}
	if !strings.Contains(j.Describe(), "o.cidfk = c.id") {
		t.Error("Describe")
	}
}

func TestHashJoinNullKeys(t *testing.T) {
	s := schema.MustRelation("l", schema.Column{Name: "k", Type: value.KindInt})
	lt := storage.NewTable(s)
	lt.MustInsert(value.Null())
	lt.MustInsert(value.Int(1))
	s2 := schema.MustRelation("r", schema.Column{Name: "k", Type: value.KindInt})
	rt := storage.NewTable(s2)
	rt.MustInsert(value.Null())
	rt.MustInsert(value.Int(1))
	j, err := NewHashJoin(NewScan(lt, "l"), NewScan(rt, "r"),
		[]sqlparse.Expr{&sqlparse.ColumnRef{Qualifier: "l", Name: "k"}},
		[]sqlparse.Expr{&sqlparse.ColumnRef{Qualifier: "r", Name: "k"}})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("NULL keys must not join: got %d rows", len(rows))
	}
}

func TestHashJoinKeyMismatch(t *testing.T) {
	ord, cust := testTables(t)
	if _, err := NewHashJoin(NewScan(ord, "o"), NewScan(cust, "c"),
		[]sqlparse.Expr{&sqlparse.ColumnRef{Qualifier: "o", Name: "cidfk"}}, nil); err == nil {
		t.Error("key lists of unequal length should fail")
	}
}

func TestCrossJoin(t *testing.T) {
	ord, cust := testTables(t)
	j := crossJoin(t, NewScan(ord, "o"), NewScan(cust, "c"))
	rows, err := collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("cross join = %d, want 12", len(rows))
	}
	if j.Describe() != "CrossJoin" {
		t.Error("Describe")
	}
}

func TestHashAggregate(t *testing.T) {
	_, cust := testTables(t)
	sc := NewScan(cust, "c")
	agg, err := NewHashAggregate(sc,
		[]sqlparse.Expr{&sqlparse.ColumnRef{Qualifier: "c", Name: "id"}},
		[]ColInfo{{Name: "id", Type: value.KindString}},
		[]AggSpec{
			{Func: AggSum, Arg: &sqlparse.ColumnRef{Qualifier: "c", Name: "prob"}, Col: ColInfo{Name: "p", Type: value.KindFloat}},
			{Func: AggCount, Arg: nil, Col: ColInfo{Name: "n", Type: value.KindInt}},
			{Func: AggMin, Arg: &sqlparse.ColumnRef{Qualifier: "c", Name: "balance"}, Col: ColInfo{Name: "lo", Type: value.KindFloat}},
			{Func: AggMax, Arg: &sqlparse.ColumnRef{Qualifier: "c", Name: "balance"}, Col: ColInfo{Name: "hi", Type: value.KindFloat}},
			{Func: AggAvg, Arg: &sqlparse.ColumnRef{Qualifier: "c", Name: "balance"}, Col: ColInfo{Name: "avg", Type: value.KindFloat}},
		})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups = %d", len(rows))
	}
	byID := map[string][]value.Value{}
	for _, r := range rows {
		byID[r[0].AsString()] = r
	}
	c1 := byID["c1"]
	if got := c1[1].AsFloat(); got != 1.0 {
		t.Errorf("sum(prob) c1 = %v", got)
	}
	if c1[2].AsInt() != 2 {
		t.Errorf("count c1 = %v", c1[2])
	}
	if c1[3].AsFloat() != 20000 || c1[4].AsFloat() != 30000 {
		t.Errorf("min/max c1 = %v/%v", c1[3], c1[4])
	}
	if c1[5].AsFloat() != 25000 {
		t.Errorf("avg c1 = %v", c1[5])
	}
}

func TestHashAggregateGlobalAndEmpty(t *testing.T) {
	s := schema.MustRelation("t", schema.Column{Name: "a", Type: value.KindInt})
	tb := storage.NewTable(s)
	agg, err := NewHashAggregate(NewScan(tb, "t"), nil, nil, []AggSpec{
		{Func: AggCount, Col: ColInfo{Name: "n", Type: value.KindInt}},
		{Func: AggSum, Arg: &sqlparse.ColumnRef{Name: "a"}, Col: ColInfo{Name: "s", Type: value.KindInt}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("global aggregate over empty input should yield 1 row, got %d", len(rows))
	}
	if rows[0][0].AsInt() != 0 {
		t.Error("COUNT over empty = 0")
	}
	if !rows[0][1].IsNull() {
		t.Error("SUM over empty = NULL")
	}
}

func TestHashAggregateNullHandlingAndIntSum(t *testing.T) {
	s := schema.MustRelation("t", schema.Column{Name: "a", Type: value.KindInt})
	tb := storage.NewTable(s)
	tb.MustInsert(value.Int(1))
	tb.MustInsert(value.Null())
	tb.MustInsert(value.Int(2))
	agg, err := NewHashAggregate(NewScan(tb, "t"), nil, nil, []AggSpec{
		{Func: AggSum, Arg: &sqlparse.ColumnRef{Name: "a"}, Col: ColInfo{Name: "s", Type: value.KindInt}},
		{Func: AggCount, Arg: &sqlparse.ColumnRef{Name: "a"}, Col: ColInfo{Name: "n", Type: value.KindInt}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Kind() != value.KindInt || rows[0][0].AsInt() != 3 {
		t.Errorf("int SUM = %v (%v)", rows[0][0], rows[0][0].Kind())
	}
	if rows[0][1].AsInt() != 2 {
		t.Errorf("COUNT(a) skips NULL: %v", rows[0][1])
	}
}

func TestSortAscDescStable(t *testing.T) {
	_, cust := testTables(t)
	srt, err := NewSort(NewScan(cust, "c"), []SortKey{
		SortKeyExpr(&sqlparse.ColumnRef{Qualifier: "c", Name: "id"}, false),
		SortKeyExpr(&sqlparse.ColumnRef{Qualifier: "c", Name: "balance"}, true),
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := collect(srt)
	if err != nil {
		t.Fatal(err)
	}
	got := []string{}
	for _, r := range rows {
		got = append(got, r[1].AsString())
	}
	want := []string{"m2", "m1", "m3", "m4"} // c1 by balance desc, then c2
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sort order = %v, want %v", got, want)
		}
	}
}

func TestSortNullsFirst(t *testing.T) {
	s := schema.MustRelation("t", schema.Column{Name: "a", Type: value.KindInt})
	tb := storage.NewTable(s)
	tb.MustInsert(value.Int(2))
	tb.MustInsert(value.Null())
	tb.MustInsert(value.Int(1))
	srt, err := NewSort(NewScan(tb, "t"), []SortKey{SortKeyExpr(&sqlparse.ColumnRef{Name: "a"}, false)})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := collect(srt)
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0][0].IsNull() || rows[1][0].AsInt() != 1 {
		t.Errorf("NULLs should sort first ascending: %v", rows)
	}
}

func TestDistinct(t *testing.T) {
	s := schema.MustRelation("t", schema.Column{Name: "a", Type: value.KindInt})
	tb := storage.NewTable(s)
	tb.MustInsert(value.Int(1))
	tb.MustInsert(value.Int(1))
	tb.MustInsert(value.Null())
	tb.MustInsert(value.Null())
	tb.MustInsert(value.Int(2))
	d := NewDistinct(NewScan(tb, "t"))
	rows, err := collect(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("distinct rows = %d, want 3 (1, NULL, 2)", len(rows))
	}
}

func TestLimit(t *testing.T) {
	_, cust := testTables(t)
	l := NewLimit(NewScan(cust, "c"), 2)
	rows, err := collect(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("limit rows = %d", len(rows))
	}
	l0 := NewLimit(NewScan(cust, "c"), 0)
	rows, err = collect(l0)
	if err != nil || len(rows) != 0 {
		t.Error("limit 0 should be empty")
	}
}

func TestExplain(t *testing.T) {
	ord, cust := testTables(t)
	j, _ := NewHashJoin(NewScan(ord, "o"), NewScan(cust, "c"),
		[]sqlparse.Expr{&sqlparse.ColumnRef{Qualifier: "o", Name: "cidfk"}},
		[]sqlparse.Expr{&sqlparse.ColumnRef{Qualifier: "c", Name: "id"}})
	f, _ := NewFilter(j, expr(t, "c.balance > 10000"))
	out := Explain(NewLimit(f, 5))
	for _, want := range []string{"Limit(5)", "Filter", "HashJoin", "Scan(orders", "Scan(customer"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// Children indented deeper than parents.
	if strings.Index(out, "Limit") > strings.Index(out, "Filter") {
		t.Error("Explain ordering")
	}
}
