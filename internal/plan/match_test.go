package plan

import (
	"strings"
	"testing"

	"conquer/internal/exec"
	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// matchDB holds t(a, b) over the rows (1,9), (2,1), (3,5), (3,7), and
// u(a, c), whose a makes an unqualified a ambiguous once both are in FROM.
func matchDB(t *testing.T) *storage.DB {
	t.Helper()
	db := storage.NewDB()
	tb := db.MustCreateTable(schema.MustRelation("t",
		schema.Column{Name: "a", Type: value.KindInt},
		schema.Column{Name: "b", Type: value.KindInt}))
	for _, r := range [][2]int64{{1, 9}, {2, 1}, {3, 5}, {3, 7}} {
		tb.MustInsert(value.Int(r[0]), value.Int(r[1]))
	}
	u := db.MustCreateTable(schema.MustRelation("u",
		schema.Column{Name: "a", Type: value.KindInt},
		schema.Column{Name: "c", Type: value.KindInt}))
	u.MustInsert(value.Int(1), value.Int(0))
	return db
}

// rowInts renders rows of integers as one string, row by row.
func rowInts(rows [][]value.Value) string {
	var b strings.Builder
	for _, row := range rows {
		b.WriteByte('(')
		for i, v := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(v.String())
		}
		b.WriteByte(')')
	}
	return b.String()
}

// An ORDER BY key that repeats a select expression sorts by that
// expression's output column, counted after * has expanded: a * before it
// once made the key read the column at the expression's position in the
// unexpanded list (here b, sorting ascending by b instead of by -b).
func TestOrderByAfterStarSortsByTheExpression(t *testing.T) {
	db := matchDB(t)
	for qs, want := range map[string]string{
		"select *, 0 - b from t order by 0 - b":           "(1,9,-9)(3,7,-7)(3,5,-5)(2,1,-1)",
		"select *, 0 - b from t order by 0 - b desc":      "(2,1,-1)(3,5,-5)(3,7,-7)(1,9,-9)",
		"select b, *, 0 - t.b from t order by 0 - b, t.a": "(9,1,9,-9)(7,3,7,-7)(5,3,5,-5)(1,2,1,-1)",
		"select *, a + b from t order by a + b desc, b":   "(3,7,10)(1,9,10)(3,5,8)(2,1,3)",
		"select *, b from t where a > 1 order by t.b, a":  "(2,1,1)(3,5,5)(3,7,7)",
	} {
		_, rows := runPlan(t, db, qs, 1)
		if got := rowInts(rows); got != want {
			t.Errorf("%s:\n got %s\nwant %s", qs, got, want)
		}
	}
}

// A select item matches a GROUP BY key when both name one input column,
// however each is spelled, and any other expression matches when it has the
// key's shape over the same columns. Printed text decided it once, which
// refused t.a against a and the mirror form.
func TestGroupKeysMatchByResolvedColumn(t *testing.T) {
	db := matchDB(t)
	for qs, want := range map[string]string{
		"select t.a, count(*) from t group by a":                        "(1,1)(2,1)(3,2)",
		"select a, count(*) from t group by t.a":                        "(1,1)(2,1)(3,2)",
		"select count(*), t.a from t group by a":                        "(1,1)(1,2)(2,3)",
		"select t.a + 1, sum(b) from t group by a + 1":                  "(2,9)(3,1)(4,12)",
		"select a, count(*) from t group by t.a having t.a > 1":         "(2,1)(3,2)",
		"select a, sum(t.b) from t group by t.a having sum(b) > 5":      "(1,9)(3,12)",
		"select x.a, count(*) from t x, u where x.a = u.a group by x.a": "(1,1)",
	} {
		_, rows := runPlan(t, db, qs, 1)
		if got := rowInts(rows); got != want {
			t.Errorf("%s:\n got %s\nwant %s", qs, got, want)
		}
	}
	// A HAVING aggregate the same as a select item's is computed once.
	op, err := Plan(db, sqlparse.MustParse("select a, sum(t.b) from t group by a having sum(b) > 5"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan := exec.Explain(op); !strings.Contains(plan, "HashAggregate(1 groups, 1 aggs)") {
		t.Errorf("HAVING's SUM(b) planned as a second aggregate:\n%s", plan)
	}

	for _, qs := range []string{
		"select t.a, count(*) from t, u group by a",
		"select a, count(*) from t, u group by a",
		"select a, count(*) from t, u group by t.a",
	} {
		_, err := Plan(db, sqlparse.MustParse(qs), Options{})
		if err == nil || !strings.Contains(err.Error(), "ambiguous") {
			t.Errorf("%s: err = %v, want the ambiguous column reported", qs, err)
		}
	}
	for qs, msg := range map[string]string{
		"select b, count(*) from t group by a":         "neither aggregated nor grouped",
		"select a + 2, count(*) from t group by a + 1": "neither aggregated nor grouped",
		"select t.a, count(*) from t group by c":       "unknown column",
	} {
		_, err := Plan(db, sqlparse.MustParse(qs), Options{})
		if err == nil || !strings.Contains(err.Error(), msg) {
			t.Errorf("%s: err = %v, want %q", qs, err, msg)
		}
	}
}
