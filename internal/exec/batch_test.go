package exec

import (
	"reflect"
	"testing"

	"conquer/internal/schema"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// nullHeavyTable builds a fact table where two of every three qty
// values are NULL, so batch filters exercise the NULL-rejection path on
// most rows.
func nullHeavyTable(t testing.TB, n int) *storage.Table {
	t.Helper()
	s := schema.MustRelation("facts",
		schema.Column{Name: "id", Type: value.KindInt},
		schema.Column{Name: "qty", Type: value.KindInt},
	)
	tb := storage.NewTable(s)
	for i := 0; i < n; i++ {
		qty := value.Null()
		if i%3 == 0 {
			qty = value.Int(int64(i % 11))
		}
		tb.MustInsert(value.Int(int64(i)), qty)
	}
	return tb
}

// collectBatches runs op to completion on n workers at size rows per
// batch (0 = DefaultBatchSize).
func collectBatches(t testing.TB, op Operator, n, size int) [][]value.Value {
	t.Helper()
	gov := governOn(op, n)
	useBatchSize(t, size)
	rows, _, err := CollectBatchesGoverned(op, gov, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestBatchShrinkToEmptyKeepsSelection(t *testing.T) {
	b := NewBatch(8)
	for i := 0; i < 5; i++ {
		b.Append([]value.Value{value.Int(int64(i))})
	}
	if err := b.Shrink(func([]value.Value) (bool, error) { return false, nil }); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("Len after shrink-to-empty = %d", b.Len())
	}
	// An empty selection must stay distinguishable from "no selection":
	// nil sel means all rows selected, which would resurrect the 5 rows.
	if b.sel == nil {
		t.Fatal("shrink-to-empty left sel nil (= all rows selected)")
	}
	// Shrinking an already-empty selection composes without touching rows.
	if err := b.Shrink(func([]value.Value) (bool, error) { return true, nil }); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 || len(b.rows) != 5 {
		t.Fatalf("second shrink: Len=%d rows=%d", b.Len(), len(b.rows))
	}
	b.Reset()
	if b.Len() != 0 || b.sel != nil {
		t.Fatal("Reset should drop the selection vector")
	}
}

func TestBatchTruncate(t *testing.T) {
	fill := func() *Batch {
		b := NewBatch(8)
		for i := 0; i < 6; i++ {
			b.AppendOrd([]value.Value{value.Int(int64(i))}, rowOrd{base: int64(i)})
		}
		return b
	}
	// Without a selection vector Truncate cuts the physical rows.
	b := fill()
	b.Truncate(2)
	if b.Len() != 2 || b.Row(1)[0].AsInt() != 1 || b.Ord(1).base != 1 {
		t.Fatalf("plain truncate: len=%d row1=%v", b.Len(), b.Row(1))
	}
	b.Truncate(5) // larger than Len is a no-op
	if b.Len() != 2 {
		t.Fatalf("growing truncate changed Len to %d", b.Len())
	}
	// With a selection vector Truncate keeps the first n *selected* rows.
	b = fill()
	if err := b.Shrink(func(row []value.Value) (bool, error) {
		return row[0].AsInt()%2 == 1, nil // keeps 1, 3, 5
	}); err != nil {
		t.Fatal(err)
	}
	b.Truncate(2)
	if b.Len() != 2 || b.Row(0)[0].AsInt() != 1 || b.Row(1)[0].AsInt() != 3 {
		t.Fatalf("selected truncate: len=%d rows=%v,%v", b.Len(), b.Row(0), b.Row(1))
	}
	if b.Ord(1).base != 3 {
		t.Fatalf("selected truncate lost ordinals: %v", b.Ord(1))
	}
}

// TestFilterNULLHeavyAcrossBatchSizes proves the filter pipeline (Shrink
// over selection vectors) keeps exactly the rows the predicate accepts
// when most predicate inputs are NULL, across batch sizes that divide the
// input unevenly. The expectation is computed from the table, not by the
// executor.
func TestFilterNULLHeavyAcrossBatchSizes(t *testing.T) {
	tb := nullHeavyTable(t, 1000)
	var want [][]value.Value
	for _, row := range tb.Rows() {
		if qty := row[1]; !qty.IsNull() && qty.AsInt() < 5 {
			want = append(want, row)
		}
	}
	if len(want) == 0 {
		t.Fatal("empty baseline")
	}
	for _, size := range []int{1, 7, 64, 0} {
		f, err := NewFilter(NewScan(tb, "f"), expr(t, "qty < 5"))
		if err != nil {
			t.Fatal(err)
		}
		requireSameRows(t, want, collectBatches(t, f, 1, size))
	}
}

// TestFilterBatchRunsDry proves a filter that rejects every row reports
// exhaustion (Filter.NextBatch keeps pulling past all-filtered child
// batches instead of returning an empty non-final batch), and that a
// single surviving row deep in the input still comes through.
func TestFilterBatchRunsDry(t *testing.T) {
	tb := nullHeavyTable(t, 1000)
	none, err := NewFilter(NewScan(tb, "f"), expr(t, "qty < 0"))
	if err != nil {
		t.Fatal(err)
	}
	if rows := collectBatches(t, none, 1, 64); len(rows) != 0 {
		t.Fatalf("filter-to-empty returned %d rows", len(rows))
	}
	// id = 999 is the only survivor and sits 15 full batches past the
	// last non-empty one at size 64.
	one, err := NewFilter(NewScan(tb, "f"), expr(t, "id > 998"))
	if err != nil {
		t.Fatal(err)
	}
	rows := collectBatches(t, one, 1, 64)
	if len(rows) != 1 || rows[0][0].AsInt() != 999 {
		t.Fatalf("late survivor: %v", rows)
	}
}

// TestCrossJoinPreservesProbabilities proves the keyless join carries
// the Figure 2 probability columns through intact, at a batch size that
// cuts the product mid-row and at the default. The expectation is the
// nested loop over the two tables.
func TestCrossJoinPreservesProbabilities(t *testing.T) {
	ord, cust := testTables(t)
	want := nestedLoop(ord, cust, func(o, c []value.Value) bool { return value.Equal(o[2], c[0]) })
	// Figure 2: each of the three orders matches its customer's two
	// alternative tuples.
	if len(want) != 6 {
		t.Fatalf("baseline rows = %d", len(want))
	}
	for _, size := range []int{4, 0} {
		f, err := NewFilter(crossJoin(t, NewScan(ord, "o"), NewScan(cust, "c")), expr(t, "o.cidfk = c.id"))
		if err != nil {
			t.Fatal(err)
		}
		got := collectBatches(t, f, 1, size)
		requireSameRows(t, want, got)
		// Every joined row must keep both source probability columns intact.
		for _, row := range got {
			if p := row[4].AsFloat(); p <= 0 || p > 1 {
				t.Fatalf("orders prob out of range: %v", row)
			}
			if p := row[9].AsFloat(); p <= 0 || p > 1 {
				t.Fatalf("customer prob out of range: %v", row)
			}
		}
	}
}

// A closed tree holds its plan and nothing of its last run: the plan cache
// parks prepared trees between executions, and a serial run happens on
// the parked tree itself, so scratch batches, probe key vectors, the block
// a slab rewinds to and Project's reused output slab would otherwise stay
// pinned — with every row and slab they reference — for as long as the plan
// is cached.
func TestClosedTreeReleasesBatchScratch(t *testing.T) {
	fact, dim := parTables(t, 3000)
	j := buildJoin(t, fact, dim, 0)
	p, err := NewProject(j, []ProjectionCol{
		{Expr: colRef("f", "id"), Col: ColInfo{Name: "id", Type: value.KindInt}},
		{Expr: colRef("d", "name"), Col: ColInfo{Name: "name", Type: value.KindString}},
	})
	if err != nil {
		t.Fatal(err)
	}
	gov := govern(p)
	for run := 0; run < 2; run++ { // a re-opened tree releases again
		rows, _, err := CollectBatchesGoverned(p, gov, DefaultBatchSize)
		if err != nil || len(rows) != 3000 {
			t.Fatalf("run %d: %d rows, %v", run, len(rows), err)
		}
		if p.scratch != nil || p.out != nil {
			t.Errorf("run %d: Project keeps its child batch or its output slab", run)
		}
		// The join filled Project's transient child batch, so it rewound: the
		// block it returns to must go with the run as well.
		if j.bp.probe != nil || j.bp.slab.block != nil || j.bp.slab.base != nil || j.probeKeys != nil || j.probeHash != nil || j.curLeft != nil {
			t.Errorf("run %d: HashJoin keeps probe state: %+v", run, j.bp)
		}
	}
	// The build goes with the run: a closed join references none, and the
	// one it ran holds neither its entry vector nor its bucket heads.
	if err := p.Open(); err != nil {
		t.Fatal(err)
	}
	build := j.build
	if len(build.entries) != dim.Len() {
		t.Fatalf("the build holds %d entries, want %d", len(build.entries), dim.Len())
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if j.build != nil || build.entries != nil || build.heads != nil {
		t.Error("a closed HashJoin keeps its build's entry vector or head vector")
	}
	// So does a partitioned parallel build's.
	pj := buildJoin(t, fact, dim, 16)
	governOn(pj, 4)
	if err := pj.Open(); err != nil {
		t.Fatal(err)
	}
	build = pj.build
	if err := pj.Close(); err != nil {
		t.Fatal(err)
	}
	if pj.build != nil || build.entries != nil || build.heads != nil {
		t.Error("a closed parallel HashJoin keeps its build's entry vector or head vector")
	}
	// A closed aggregate holds neither its output rows nor the block they
	// are carved from, nor — serial or parallel — any accumulator, head
	// vector or group state: no field of it reaches an aggState.
	for _, par := range []int{1, 4} {
		agg := buildAgg(t, fact, 256)
		if rows, _, err := CollectBatchesGoverned(agg, governOn(agg, par), DefaultBatchSize); err != nil || len(rows) != dim.Len() {
			t.Fatalf("aggregate: %d groups, %v", len(rows), err)
		}
		if agg.out != nil {
			t.Error("a closed HashAggregate keeps its output block")
		}
		v := reflect.ValueOf(agg).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch f.Type() {
			case reflect.TypeOf(&aggAcc{}), reflect.TypeOf([]*aggAcc{}), reflect.TypeOf(&aggState{}), reflect.TypeOf([]*aggState{}):
				if !f.IsNil() {
					t.Errorf("a closed HashAggregate at parallelism %d keeps %s", par, v.Type().Field(i).Name)
				}
			}
		}
	}
}
