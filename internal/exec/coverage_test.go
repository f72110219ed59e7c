package exec

import (
	"strings"
	"testing"

	"conquer/internal/sqlparse"
	"conquer/internal/value"
)

// Exercises the logical-operator edge cases the SQL-level tests do not
// reach: boolean columns feeding AND/OR directly, and type errors.
func TestLogicalOperatorsOnBoolColumns(t *testing.T) {
	rs := RowSchema{
		{Qualifier: "t", Name: "p", Type: value.KindBool},
		{Qualifier: "t", Name: "q", Type: value.KindBool},
	}
	tt, ff, nn := value.Bool(true), value.Bool(false), value.Null()
	cases := []struct {
		src  string
		row  []value.Value
		want value.Value
	}{
		{"p and q", []value.Value{tt, tt}, tt},
		{"p and q", []value.Value{tt, ff}, ff},
		{"p and q", []value.Value{ff, nn}, ff}, // false AND unknown = false
		{"p and q", []value.Value{nn, tt}, nn}, // unknown AND true = unknown
		{"p and q", []value.Value{tt, nn}, nn},
		{"p or q", []value.Value{ff, ff}, ff},
		{"p or q", []value.Value{nn, tt}, tt}, // unknown OR true = true
		{"p or q", []value.Value{nn, ff}, nn},
		{"p or q", []value.Value{ff, nn}, nn},
		{"not p", []value.Value{tt, tt}, ff},
	}
	for _, c := range cases {
		got := evalExpr(t, c.src, rs, c.row)
		if !value.Identical(got, c.want) && !(got.IsNull() && c.want.IsNull()) {
			t.Errorf("%s on %v = %v, want %v", c.src, c.row, got, c.want)
		}
	}
	// Logical operators over non-booleans error.
	rsMixed := RowSchema{
		{Qualifier: "t", Name: "p", Type: value.KindBool},
		{Qualifier: "t", Name: "n", Type: value.KindInt},
	}
	ev, err := Compile(expr(t, "p and n"), rsMixed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev([]value.Value{tt, value.Int(1)}); err == nil {
		t.Error("AND over an int should error")
	}
	ev, err = Compile(expr(t, "p or n"), rsMixed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev([]value.Value{ff, value.Int(1)}); err == nil {
		t.Error("OR over an int should error")
	}
	// NOT over a non-boolean errors too.
	ev, err = Compile(expr(t, "not n"), rsMixed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev([]value.Value{tt, value.Int(1)}); err == nil {
		t.Error("NOT over an int should error")
	}
}

func TestBetweenTypeErrors(t *testing.T) {
	rs := RowSchema{
		{Qualifier: "t", Name: "a", Type: value.KindInt},
		{Qualifier: "t", Name: "s", Type: value.KindString},
	}
	ev, err := Compile(expr(t, "a between s and s"), rs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev([]value.Value{value.Int(1), value.Str("x")}); err == nil {
		t.Error("BETWEEN over incomparable kinds should error")
	}
}

func TestParseAggFunc(t *testing.T) {
	for name, want := range map[string]AggFunc{
		"SUM": AggSum, "COUNT": AggCount, "AVG": AggAvg, "MIN": AggMin, "MAX": AggMax,
	} {
		got, err := ParseAggFunc(name)
		if err != nil || got != want {
			t.Errorf("ParseAggFunc(%s) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseAggFunc("MEDIAN"); err == nil {
		t.Error("unknown aggregate should fail")
	}
}

func TestOperatorSchemasAndDescribe(t *testing.T) {
	ord, cust := testTables(t)
	sc := NewScan(cust, "c")
	f, err := NewFilter(sc, expr(t, "c.balance > 0"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Schema()) != len(sc.Schema()) {
		t.Error("Filter schema passes through")
	}
	p, err := NewProject(sc, []ProjectionCol{
		{Expr: &sqlparse.ColumnRef{Qualifier: "c", Name: "name"}, Col: ColInfo{Name: "name", Type: value.KindString}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Describe(), "name") {
		t.Error("Project Describe")
	}
	agg, err := NewHashAggregate(sc, nil, nil, []AggSpec{{Func: AggCount, Col: ColInfo{Name: "n", Type: value.KindInt}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Schema()) != 1 || !strings.Contains(agg.Describe(), "HashAggregate") {
		t.Error("aggregate schema/describe")
	}
	srt, err := NewSort(sc, []SortKey{SortKeyPos(0, true)})
	if err != nil {
		t.Fatal(err)
	}
	if len(srt.Schema()) != len(sc.Schema()) || !strings.Contains(srt.Describe(), "#1 DESC") {
		t.Errorf("sort schema/describe: %s", srt.Describe())
	}
	d := NewDistinct(sc)
	if len(d.Schema()) != len(sc.Schema()) || d.Describe() != "Distinct" {
		t.Error("distinct schema/describe")
	}
	l := NewLimit(sc, 1)
	if len(l.Schema()) != len(sc.Schema()) || l.Describe() != "Limit(1)" {
		t.Error("limit schema/describe")
	}
	cj := crossJoin(t, NewScan(ord, "o"), sc)
	if len(cj.Schema()) != len(sc.Schema())+len(NewScan(ord, "o").Schema()) {
		t.Error("cross join schema")
	}
}

func TestSortKeyPosBounds(t *testing.T) {
	_, cust := testTables(t)
	if _, err := NewSort(NewScan(cust, "c"), []SortKey{SortKeyPos(99, false)}); err == nil {
		t.Error("out-of-range positional key should fail")
	}
	srt, err := NewSort(NewScan(cust, "c"), []SortKey{SortKeyPos(3, true)})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(srt)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][3].AsFloat() != 30000 {
		t.Errorf("positional sort desc: %v", rows[0])
	}
}

func TestRowSchemaNames(t *testing.T) {
	rs := RowSchema{{Name: "a"}, {Name: "b"}}
	names := rs.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
}

func TestSortReopen(t *testing.T) {
	// Sort and aggregate operators re-Open cleanly (the engine reuses
	// plans in benchmarks).
	_, cust := testTables(t)
	srt, err := NewSort(NewScan(cust, "c"), []SortKey{SortKeyPos(0, false)})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		rows, err := Collect(srt)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("round %d: rows = %d", round, len(rows))
		}
	}
}
