package plan

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"conquer/internal/exec"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// refAggregate computes GROUP BY k aggregates over one table with plain
// maps: the reference the planned aggregation must match.
type refGroup struct {
	count    int64
	sum      float64
	min, max float64
	seen     bool
}

func refAggregateByK(db *storage.DB, table string, filter func(row []value.Value) bool) map[int64]*refGroup {
	tb, _ := db.Table(table)
	out := map[int64]*refGroup{}
	for _, row := range tb.Rows() {
		if row[0].IsNull() {
			continue // NULL group keys form their own group; excluded here
		}
		if filter != nil && !filter(row) {
			continue
		}
		k := row[0].AsInt()
		g, ok := out[k]
		if !ok {
			g = &refGroup{}
			out[k] = g
		}
		g.count++
		if !row[1].IsNull() {
			v := row[1].AsFloat()
			g.sum += v
			if !g.seen || v < g.min {
				g.min = v
			}
			if !g.seen || v > g.max {
				g.max = v
			}
			g.seen = true
		}
	}
	return out
}

func TestAggregationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng)
		stmt := sqlparse.MustParse(
			"select k, count(*) as n, sum(v) as s, min(v) as lo, max(v) as hi, avg(v) as m from ta where k is not null group by k order by k")
		op, err := Plan(db, stmt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := exec.Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		want := refAggregateByK(db, "ta", nil)
		if len(rows) != len(want) {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(rows), len(want))
		}
		for _, r := range rows {
			g := want[r[0].AsInt()]
			if g == nil {
				t.Fatalf("trial %d: unexpected group %v", trial, r[0])
			}
			if r[1].AsInt() != g.count {
				t.Errorf("count %v vs %v", r[1], g.count)
			}
			if math.Abs(r[2].AsFloat()-g.sum) > 1e-9 {
				t.Errorf("sum %v vs %v", r[2], g.sum)
			}
			if r[3].AsFloat() != g.min || r[4].AsFloat() != g.max {
				t.Errorf("min/max %v/%v vs %v/%v", r[3], r[4], g.min, g.max)
			}
			if math.Abs(r[5].AsFloat()-g.sum/float64(g.count)) > 1e-9 {
				t.Errorf("avg %v vs %v", r[5], g.sum/float64(g.count))
			}
		}
	}
}

func TestHavingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng)
		stmt := sqlparse.MustParse(
			"select k, count(*) as n from ta where k is not null group by k having sum(v) > 8 order by k")
		op, err := Plan(db, stmt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := exec.Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		want := refAggregateByK(db, "ta", nil)
		expected := 0
		for _, g := range want {
			if g.sum > 8 {
				expected++
			}
		}
		if len(rows) != expected {
			t.Fatalf("trial %d: HAVING kept %d groups, want %d", trial, len(rows), expected)
		}
		for _, r := range rows {
			g := want[r[0].AsInt()]
			if g == nil || g.sum <= 8 {
				t.Errorf("trial %d: group %v should have been filtered", trial, r[0])
			}
			if r[1].AsInt() != g.count {
				t.Errorf("count mismatch for %v", r[0])
			}
		}
		// The hidden sum column never leaks.
		if got := op.Schema().Names(); len(got) != 2 || got[0] != "k" || got[1] != "n" {
			t.Fatalf("schema = %v", got)
		}
	}
}

func TestAggregationOverJoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db := randomDB(rng)
	stmt := sqlparse.MustParse(
		"select x.k, count(*) as n, sum(y.v) as s from ta x, tb y where x.k = y.k group by x.k order by x.k")
	op, err := Plan(db, stmt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	// Reference via the brute-force SPJ evaluator + manual grouping.
	flat := refEvaluate(t, db, sqlparse.MustParse(
		"select x.k, y.v from ta x, tb y where x.k = y.k"))
	type acc struct {
		n int64
		s float64
	}
	want := map[int64]*acc{}
	for _, r := range flat {
		k := r[0].AsInt()
		a, ok := want[k]
		if !ok {
			a = &acc{}
			want[k] = a
		}
		a.n++
		if !r[1].IsNull() {
			a.s += r[1].AsFloat()
		}
	}
	if len(rows) != len(want) {
		t.Fatalf("groups = %d, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		a := want[r[0].AsInt()]
		if a == nil || r[1].AsInt() != a.n || math.Abs(r[2].AsFloat()-a.s) > 1e-9 {
			t.Errorf("group %v: got (%v, %v), want (%v, %v)", r[0], r[1], r[2], a.n, a.s)
		}
	}
}

func TestDistinctAndLimitPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	db := randomDB(rng)
	stmt := sqlparse.MustParse("select distinct s from ta order by s limit 2")
	op, err := Plan(db, stmt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) > 2 {
		t.Errorf("limit ignored: %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if value.Compare(rows[i-1][0], rows[i][0]) >= 0 {
			t.Error("distinct output not strictly increasing under ORDER BY")
		}
	}
}

func TestStarExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	db := randomDB(rng)
	stmt := sqlparse.MustParse("select * from ta x, tb y where x.k = y.k")
	op, err := Plan(db, stmt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(op.Schema()) != 6 {
		t.Errorf("star width = %d, want 6", len(op.Schema()))
	}
}

func TestPlanErrorPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	db := randomDB(rng)
	bad := []string{
		"select ghost from ta",
		"select k from ta x, ta x where 1 = 1",     // duplicate alias
		"select k, v from ta group by k",           // ungrouped select item
		"select min(*) from ta",                    // * on non-count
		"select sum(v, v) from ta",                 // arity
		"select k from ta group by k having v > 1", // ungrouped column in HAVING
		"select abs(v) from ta",                    // unknown function
	}
	for _, q := range bad {
		stmt, err := sqlparse.Parse(q)
		if err != nil {
			continue // parser-level rejection also fine
		}
		if _, err := Plan(db, stmt, Options{}); err == nil {
			t.Errorf("Plan(%q) should fail", q)
		}
	}
}

// ORDER BY + LIMIT fuses into one Sort with a Limit (a bounded heap,
// printed TopN), and the fused plan matches the unfused Sort+Limit results.
func TestTopNFusion(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	db := randomDB(rng)
	withLimit := sqlparse.MustParse("select k, v from ta order by v desc, k limit 3")
	op, err := Plan(db, withLimit, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exec.Explain(op), "TopN(3;") {
		t.Fatalf("expected fused TopN:\n%s", exec.Explain(op))
	}
	fused, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	// Unfused reference: same query without LIMIT, truncated by hand.
	noLimit := sqlparse.MustParse("select k, v from ta order by v desc, k")
	ref, err := Plan(db, noLimit, Options{})
	if err != nil {
		t.Fatal(err)
	}
	all, err := exec.Collect(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) > 3 {
		all = all[:3]
	}
	if len(fused) != len(all) {
		t.Fatalf("fused %d rows vs reference %d", len(fused), len(all))
	}
	for i := range all {
		if !value.RowsIdentical(fused[i], all[i]) {
			t.Errorf("row %d: %v vs %v", i, fused[i], all[i])
		}
	}
	// LIMIT 0 keeps the plain Limit operator (a Sort's Limit of 0 is none).
	zero := sqlparse.MustParse("select k from ta order by k limit 0")
	op0, err := Plan(db, zero, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows0, err := exec.Collect(op0)
	if err != nil || len(rows0) != 0 {
		t.Errorf("limit 0: %d rows, err %v", len(rows0), err)
	}
}
