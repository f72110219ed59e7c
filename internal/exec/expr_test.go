package exec

import (
	"testing"

	"conquer/internal/sqlparse"
	"conquer/internal/value"
)

// evalWith compiles src as a WHERE expression over a one-column schema
// (a INTEGER unless otherwise noted via schema rs) and evaluates it on row.
func evalExpr(t *testing.T, src string, rs RowSchema, row []value.Value) value.Value {
	t.Helper()
	e := expr(t, src)
	ev, err := Compile(e, rs)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	v, err := ev(row)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

var intSchema = RowSchema{
	{Qualifier: "t", Name: "a", Type: value.KindInt},
	{Qualifier: "t", Name: "b", Type: value.KindInt},
}

var strSchema = RowSchema{{Qualifier: "t", Name: "s", Type: value.KindString}}

func TestCompileComparisons(t *testing.T) {
	row := []value.Value{value.Int(5), value.Int(3)}
	cases := map[string]bool{
		"a = 5":  true,
		"a <> 5": false,
		"a < b":  false,
		"a > b":  true,
		"a >= 5": true,
		"a <= 4": false,
	}
	for src, want := range cases {
		v := evalExpr(t, src, intSchema, row)
		if v.AsBool() != want {
			t.Errorf("%s = %v, want %v", src, v, want)
		}
	}
}

func TestCompileThreeValuedLogic(t *testing.T) {
	row := []value.Value{value.Null(), value.Int(3)}
	// NULL comparison is unknown.
	if v := evalExpr(t, "a = 1", intSchema, row); !v.IsNull() {
		t.Error("NULL = 1 should be unknown")
	}
	// unknown AND false = false; unknown OR true = true.
	if v := evalExpr(t, "a = 1 and b = 99", intSchema, row); !v.IsNull() == false || isTrue(v) {
		if !isFalse(v) {
			t.Errorf("unknown AND false = %v, want false", v)
		}
	}
	if v := evalExpr(t, "a = 1 and b = 99", intSchema, row); !isFalse(v) {
		t.Errorf("unknown AND false = %v, want false", v)
	}
	if v := evalExpr(t, "a = 1 or b = 3", intSchema, row); !isTrue(v) {
		t.Errorf("unknown OR true = %v, want true", v)
	}
	if v := evalExpr(t, "a = 1 or b = 99", intSchema, row); !v.IsNull() {
		t.Errorf("unknown OR false = %v, want unknown", v)
	}
	if v := evalExpr(t, "not a = 1", intSchema, row); !v.IsNull() {
		t.Errorf("NOT unknown = %v, want unknown", v)
	}
}

func TestCompileArithmetic(t *testing.T) {
	row := []value.Value{value.Int(6), value.Int(4)}
	if v := evalExpr(t, "a + b = 10", intSchema, row); !isTrue(v) {
		t.Error("6+4=10")
	}
	if v := evalExpr(t, "a * b - 4 = 20", intSchema, row); !isTrue(v) {
		t.Error("6*4-4=20")
	}
	if v := evalExpr(t, "-a = -6", intSchema, row); !isTrue(v) {
		t.Error("negation")
	}
	e := expr(t, "a / 0 = 1")
	ev, err := Compile(e, intSchema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev(row); err == nil {
		t.Error("int division by zero should error at eval time")
	}
}

func TestCompileLike(t *testing.T) {
	cases := []struct {
		pattern string
		input   string
		want    bool
	}{
		{"PROMO%", "PROMO123", true},
		{"PROMO%", "XPROMO", false},
		{"%BRASS", "LARGE BRASS", true},
		{"%green%", "dark green metal", true},
		{"a_c", "abc", true},
		{"a_c", "abbc", false},
		{"100%", "100%", true}, // % at end matches anything incl. literal %
		{"a.c", "abc", false},  // regexp metachars must be escaped
		{"a.c", "a.c", true},
	}
	for _, c := range cases {
		row := []value.Value{value.Str(c.input)}
		v := evalExpr(t, "s like '"+c.pattern+"'", strSchema, row)
		if v.AsBool() != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.input, c.pattern, v, c.want)
		}
	}
	// NOT LIKE inverts; NULL input is unknown.
	row := []value.Value{value.Str("abc")}
	if v := evalExpr(t, "s not like 'a%'", strSchema, row); !isFalse(v) {
		t.Error("NOT LIKE")
	}
	if v := evalExpr(t, "s like 'a%'", strSchema, []value.Value{value.Null()}); !v.IsNull() {
		t.Error("NULL LIKE is unknown")
	}
}

func TestCompileInBetween(t *testing.T) {
	row := []value.Value{value.Int(5), value.Int(3)}
	if v := evalExpr(t, "a in (1, 5, 9)", intSchema, row); !isTrue(v) {
		t.Error("IN hit")
	}
	if v := evalExpr(t, "a in (1, 2)", intSchema, row); !isFalse(v) {
		t.Error("IN miss")
	}
	if v := evalExpr(t, "a not in (1, 2)", intSchema, row); !isTrue(v) {
		t.Error("NOT IN")
	}
	if v := evalExpr(t, "a between 3 and 7", intSchema, row); !isTrue(v) {
		t.Error("BETWEEN inside")
	}
	if v := evalExpr(t, "a between 6 and 7", intSchema, row); !isFalse(v) {
		t.Error("BETWEEN outside")
	}
	if v := evalExpr(t, "a not between 6 and 7", intSchema, row); !isTrue(v) {
		t.Error("NOT BETWEEN")
	}
	// NULL element in IN list makes a miss unknown.
	if v := evalExpr(t, "a in (1, null)", intSchema, row); !v.IsNull() {
		t.Error("IN with NULL miss is unknown")
	}
	if v := evalExpr(t, "a in (5, null)", intSchema, row); !isTrue(v) {
		t.Error("IN hit beats NULL")
	}
	nullRow := []value.Value{value.Null(), value.Int(3)}
	if v := evalExpr(t, "a between 1 and 9", intSchema, nullRow); !v.IsNull() {
		t.Error("NULL BETWEEN is unknown")
	}
}

func TestCompileIsNull(t *testing.T) {
	row := []value.Value{value.Null(), value.Int(3)}
	if v := evalExpr(t, "a is null", intSchema, row); !isTrue(v) {
		t.Error("IS NULL on NULL")
	}
	if v := evalExpr(t, "a is not null", intSchema, row); !isFalse(v) {
		t.Error("IS NOT NULL on NULL")
	}
	if v := evalExpr(t, "b is null", intSchema, row); !isFalse(v) {
		t.Error("IS NULL on value")
	}
}

func TestCompileTypeErrors(t *testing.T) {
	// Comparing string with int errors at eval time.
	rs := RowSchema{
		{Qualifier: "t", Name: "a", Type: value.KindInt},
		{Qualifier: "t", Name: "s", Type: value.KindString},
	}
	e := expr(t, "a = s")
	ev, err := Compile(e, rs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev([]value.Value{value.Int(1), value.Str("1")}); err == nil {
		t.Error("int vs string comparison should error")
	}
	// LIKE on a non-string errors.
	e2 := expr(t, "a like 'x%'")
	ev2, err := Compile(e2, rs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev2([]value.Value{value.Int(1), value.Str("")}); err == nil {
		t.Error("LIKE on int should error")
	}
}

func TestCompileAggregateRejected(t *testing.T) {
	stmt := sqlparse.MustParse("select sum(a) from t")
	if _, err := Compile(stmt.Select[0].Expr, intSchema); err == nil {
		t.Error("aggregate outside aggregation context should fail to compile")
	}
}

func TestCompileUnknownFunction(t *testing.T) {
	stmt := sqlparse.MustParse("select abs(a) from t")
	if _, err := Compile(stmt.Select[0].Expr, intSchema); err == nil {
		t.Error("unknown function should fail to compile")
	}
}

func TestCompilePredicate(t *testing.T) {
	p, err := CompilePredicate(expr(t, "a > 1"), intSchema)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := p([]value.Value{value.Int(5), value.Int(0)})
	if err != nil || !ok {
		t.Error("predicate true")
	}
	ok, err = p([]value.Value{value.Null(), value.Int(0)})
	if err != nil || ok {
		t.Error("unknown predicate must reject the row")
	}
	// Non-boolean predicate errors.
	p2, err := CompilePredicate(expr(t, "a + 1"), intSchema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2([]value.Value{value.Int(1), value.Int(0)}); err == nil {
		t.Error("numeric predicate should error")
	}
}
