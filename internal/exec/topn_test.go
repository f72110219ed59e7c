package exec

import (
	"math/rand"
	"testing"

	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

func TestTopNBasic(t *testing.T) {
	_, cust := testTables(t)
	top, err := newTopN(NewScan(cust, "c"), []SortKey{SortKeyPos(3, true)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(top)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][3].AsFloat() != 30000 || rows[1][3].AsFloat() != 27000 {
		t.Errorf("top-2 by balance desc: %v, %v", rows[0][3], rows[1][3])
	}
	if top.Describe() != "TopN(2; #4 DESC)" {
		t.Errorf("Describe = %q", top.Describe())
	}
}

func TestTopNLargerThanInput(t *testing.T) {
	_, cust := testTables(t)
	top, err := newTopN(NewScan(cust, "c"), []SortKey{SortKeyPos(0, false)}, 99)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(top)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want all 4", len(rows))
	}
}

// newTopN is a Sort with a limit: what the planner builds for ORDER BY
// ... LIMIT n.
func newTopN(child Operator, keys []SortKey, n int) (*Sort, error) {
	s, err := NewSort(child, keys)
	if err != nil {
		return nil, err
	}
	s.Limit = n
	return s, nil
}

func TestTopNErrors(t *testing.T) {
	_, cust := testTables(t)
	// A limit of zero is no limit (the planner keeps LIMIT 0 as a Limit
	// above the Sort): every row comes back, sorted.
	all, err := newTopN(NewScan(cust, "c"), []SortKey{SortKeyPos(0, false)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rows := mustCollect(t, all); len(rows) != 4 || all.Describe() != "Sort(#1)" {
		t.Errorf("limit 0: %d rows from %s, want a Sort of all 4", len(rows), all.Describe())
	}
	if _, err := newTopN(NewScan(cust, "c"), []SortKey{SortKeyPos(99, false)}, 1); err == nil {
		t.Error("bad position should fail")
	}
	if _, err := newTopN(NewScan(cust, "c"), []SortKey{SortKeyExpr(expr(t, "c.ghost"), false)}, 1); err == nil {
		t.Error("bad expression should fail")
	}
}

// Property: a Sort with Limit n produces exactly the first n rows of a full
// stable Sort over the same keys, on random data with duplicate keys and
// NULLs.
func TestTopNMatchesSortLimitProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	s := schema.MustRelation("t",
		schema.Column{Name: "a", Type: value.KindInt},
		schema.Column{Name: "b", Type: value.KindInt},
	)
	for trial := 0; trial < 50; trial++ {
		tb := storage.NewTable(s.Clone())
		nRows := 1 + rng.Intn(60)
		for i := 0; i < nRows; i++ {
			var a value.Value
			if rng.Intn(6) == 0 {
				a = value.Null()
			} else {
				a = value.Int(int64(rng.Intn(5)))
			}
			tb.MustInsert(a, value.Int(int64(i)))
		}
		keys := []SortKey{
			SortKeyPos(0, rng.Intn(2) == 0),
			SortKeyPos(1, rng.Intn(2) == 0),
		}
		n := 1 + rng.Intn(nRows+5)

		srt, err := NewSort(NewScan(tb, "t"), keys)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Collect(NewLimit(srt, n))
		if err != nil {
			t.Fatal(err)
		}
		top, err := newTopN(NewScan(tb, "t"), keys, n)
		if err != nil {
			t.Fatal(err)
		}
		bounded, err := Collect(top)
		if err != nil {
			t.Fatal(err)
		}
		if len(full) != len(bounded) {
			t.Fatalf("trial %d: %d vs %d rows", trial, len(full), len(bounded))
		}
		for i := range full {
			if !value.RowsIdentical(full[i], bounded[i]) {
				t.Fatalf("trial %d row %d: %v vs %v (n=%d)", trial, i, full[i], bounded[i], n)
			}
		}
	}
}

// The bounded heap is stable: ties preserve input order, exactly like the
// full sort.
func TestTopNStability(t *testing.T) {
	s := schema.MustRelation("t",
		schema.Column{Name: "k", Type: value.KindInt},
		schema.Column{Name: "seq", Type: value.KindInt},
	)
	tb := storage.NewTable(s)
	for i := 0; i < 10; i++ {
		tb.MustInsert(value.Int(1), value.Int(int64(i))) // all tie on k
	}
	top, err := newTopN(NewScan(tb, "t"), []SortKey{SortKeyPos(0, false)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(top)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r[1].AsInt() != int64(i) {
			t.Fatalf("stability violated: %v", rows)
		}
	}
}

func TestTopNExprKeys(t *testing.T) {
	_, cust := testTables(t)
	top, err := newTopN(NewScan(cust, "c"),
		[]SortKey{SortKeyExpr(mustExpr(t, "c.balance * -1"), false)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(top)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][3].AsFloat() != 30000 {
		t.Errorf("expression key: %v", rows[0])
	}
}

func mustExpr(t *testing.T, src string) sqlparse.Expr {
	t.Helper()
	return expr(t, src+" = 0").(*sqlparse.BinaryExpr).L
}

// Sort does not allocate a key vector per input row: the full sort slices
// all of them out of one allocation, the bounded heap allocates one per
// retained row.
// Doubling the input must leave the allocation count about where it was
// (slice growth while draining adds a few).
func TestSortAndTopNKeyVectorsAreNotPerRow(t *testing.T) {
	allocs := func(n int, mk func(child Operator) Operator) float64 {
		fact, _ := parTables(t, n)
		return testing.AllocsPerRun(3, func() {
			op := mk(NewScan(fact, "f"))
			SetBatchSize(op, DefaultBatchSize)
			if rows := mustCollect(t, op); len(rows) == 0 {
				t.Fatal("no rows")
			}
		})
	}
	keys := []SortKey{SortKeyPos(2, true), SortKeyPos(0, false)}
	for _, tc := range []struct {
		name string
		mk   func(child Operator) Operator
	}{
		{"Sort", func(c Operator) Operator {
			s, err := NewSort(c, keys)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		// qty descending over ascending ids: every seventh row or so
		// replaces the heap's worst, so replacements dominate.
		{"TopN", func(c Operator) Operator {
			s, err := newTopN(c, []SortKey{SortKeyPos(3, true), SortKeyPos(0, true)}, 5)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	} {
		small, large := allocs(4000, tc.mk), allocs(8000, tc.mk)
		if large > small+40 {
			t.Errorf("%s: %v allocations for 4000 rows, %v for 8000: something is still per row", tc.name, small, large)
		}
	}
}
