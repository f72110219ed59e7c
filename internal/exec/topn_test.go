package exec

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
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
	rows, err := collect(top)
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
	rows, err := collect(top)
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
		full, err := collect(NewLimit(srt, n))
		if err != nil {
			t.Fatal(err)
		}
		top, err := newTopN(NewScan(tb, "t"), keys, n)
		if err != nil {
			t.Fatal(err)
		}
		bounded, err := collect(top)
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
	rows, err := collect(top)
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
	rows, err := collect(top)
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

// Sort does not allocate a key vector per input row: the full sort and the
// bounded heap both compare keys where they sit in the rows.
// Doubling the input must leave the allocation count about where it was
// (slice growth while draining adds a few).
func TestSortAndTopNKeyVectorsAreNotPerRow(t *testing.T) {
	allocs := func(n int, mk func(child Operator) Operator) float64 {
		fact, _ := parTables(t, n)
		return testing.AllocsPerRun(3, func() {
			op := mk(NewScan(fact, "f"))
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

// handedOver is a materialized operator over rows built beforehand: it
// hands its vector to the Sort above it as HashAggregate or Gather
// would, at no cost of its own.
type handedOver struct {
	govHolder
	statsHolder
	schema RowSchema
	rows   [][]value.Value
	pos    int
}

func (h *handedOver) Schema() RowSchema { return h.schema }
func (h *handedOver) Open() error       { h.stats.markOpen(); return nil }
func (h *handedOver) Close() error      { h.stats.markDone(); return nil }
func (h *handedOver) Describe() string  { return "HandedOver" }
func (h *handedOver) NextBatch(b *Batch) error {
	emitMaterialized(b, h.rows, &h.pos, h.stats)
	return nil
}
func (h *handedOver) handOver() ([][]value.Value, *OpStats) {
	rows := h.rows
	h.rows = nil
	return rows, h.stats
}

// A full sort orders the rows where they sit: it compares the keys inside
// the rows and sorts the vector its child handed over in place, so it
// allocates the same bytes whatever the row count — no key slab, no index
// vector. Its order is a reference stable sort's, over keys read out of
// the rows beforehand, on NULLs, NaN, ±0, integers beside equal floats,
// DESC keys and ties; a column named by reference reads its position, and
// a computed key orders as its values do.
func TestSortOrdersRowsWhereTheySit(t *testing.T) {
	rs := RowSchema{{Qualifier: "t", Name: "a"}, {Qualifier: "t", Name: "b"}, {Qualifier: "t", Name: "seq"}}
	rng := rand.New(rand.NewSource(39))
	mkRows := func(n int) [][]value.Value {
		as := []value.Value{value.Null(), value.Float(math.NaN()), value.Float(0), value.Float(math.Copysign(0, -1)),
			value.Int(0), value.Int(1), value.Float(1), value.Float(0.5), value.Int(-2), value.Float(-2)}
		rows := make([][]value.Value, n)
		for i := range rows {
			b := value.Int(int64(rng.Intn(4)))
			if rng.Intn(8) == 0 {
				b = value.Null()
			}
			rows[i] = []value.Value{as[rng.Intn(len(as))], b, value.Int(int64(i))}
		}
		return rows
	}
	sortOf := func(rows [][]value.Value, keys []SortKey) *Sort {
		s := mustOp[*Sort](t)(NewSort(&handedOver{schema: rs, rows: rows}, keys))
		govern(s)
		return s
	}
	sub3 := mustExpr(t, "t.b - 3")
	for _, tc := range []struct {
		name string
		keys []SortKey
		ref  func(row []value.Value) []value.Value // the keys, read out
		desc []bool
	}{
		{"a, b DESC", []SortKey{SortKeyPos(0, false), SortKeyPos(1, true)},
			func(r []value.Value) []value.Value { return []value.Value{r[0], r[1]} }, []bool{false, true}},
		{"b, a DESC", []SortKey{SortKeyExpr(colRef("t", "b"), false), SortKeyPos(0, true)},
			func(r []value.Value) []value.Value { return []value.Value{r[1], r[0]} }, []bool{false, true}},
		{"b - 3 DESC", []SortKey{SortKeyExpr(sub3, true)},
			func(r []value.Value) []value.Value {
				if r[1].IsNull() {
					return []value.Value{value.Null()}
				}
				return []value.Value{value.Int(r[1].AsInt() - 3)}
			}, []bool{true}},
	} {
		rows := mkRows(2000)
		keys := make([][]value.Value, len(rows))
		for i, r := range rows {
			keys[i] = tc.ref(r)
		}
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		slices.SortStableFunc(idx, func(x, y int) int {
			for k, desc := range tc.desc {
				if c := value.Compare(keys[x][k], keys[y][k]); c != 0 {
					if desc {
						return -c
					}
					return c
				}
			}
			return 0
		})
		want := make([][]value.Value, len(idx))
		for i, x := range idx {
			want[i] = rows[x]
		}
		got := mustCollect(t, sortOf(rows, tc.keys))
		t.Run(tc.name, func(t *testing.T) { requireSameRows(t, want, got) })
	}

	if raceEnabled {
		return // allocation counts are not the program's under -race
	}
	keys := []SortKey{SortKeyPos(0, false), SortKeyPos(1, true)}
	bytes := func(n int) uint64 {
		best := uint64(math.MaxUint64)
		for r := 0; r < 3; r++ {
			s := sortOf(mkRows(n), keys)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			err := s.Open()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if len(s.rows) != n {
				t.Fatalf("%d rows sorted, want %d", len(s.rows), n)
			}
			s.Close()
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	small, large := bytes(1024), bytes(65536)
	t.Logf("a full sort of 1,024 handed-over rows allocates %d bytes, of 65,536 %d", small, large)
	if large != small {
		t.Errorf("a full sort allocates %d bytes over 1,024 rows and %d over 65,536: something is per row", small, large)
	}
}
