package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// taggedRow is one join output row with the ordinal tag its batch
// carried for it.
type taggedRow struct {
	row []value.Value
	ord rowOrd
}

// drainTagged pulls op to exhaustion through NextBatch, keeping every
// row's ordinal tag.
func drainTagged(t *testing.T, op Operator, batch int) []taggedRow {
	t.Helper()
	govern(op)
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	var out []taggedRow
	b := NewBatch(batch)
	for {
		if err := op.NextBatch(b); err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 {
			return out
		}
		for i := 0; i < b.Len(); i++ {
			out = append(out, taggedRow{b.Row(i), b.Ord(i)})
		}
	}
}

// drainParts drains the clones of a split pipeline one batch at a time in
// round-robin order from a single goroutine, so which clone claims which
// morsel is the same on every run.
func drainParts(t *testing.T, parts []Operator, batch int) [][]taggedRow {
	t.Helper()
	out := make([][]taggedRow, len(parts))
	useBatchSize(t, batch)
	for _, p := range parts {
		govern(p)
		if err := p.Open(); err != nil {
			t.Fatal(err)
		}
		defer p.Close()
	}
	b := NewBatch(batch)
	for live := len(parts); live > 0; {
		live = 0
		for i, p := range parts {
			if err := p.NextBatch(b); err != nil {
				t.Fatal(err)
			}
			if b.Len() > 0 {
				live++
			}
			for k := 0; k < b.Len(); k++ {
				out[i] = append(out[i], taggedRow{b.Row(k), b.Ord(k)})
			}
		}
	}
	return out
}

func projectOnto(row []value.Value, cols []int) []value.Value {
	out := make([]value.Value, len(cols))
	for i, c := range cols {
		out[i] = row[c]
	}
	return out
}

// requireProjection checks got == want projected onto cols, row by row
// and tag by tag.
func requireProjection(t *testing.T, label string, want, got []taggedRow, cols []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, identity join has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].row == nil {
			t.Fatalf("%s: row %d is nil", label, i)
		}
		if !value.RowsIdentical(got[i].row, projectOnto(want[i].row, cols)) {
			t.Fatalf("%s: row %d = %v, want %v of %v", label, i, got[i].row, cols, want[i].row)
		}
		if got[i].ord != want[i].ord {
			t.Fatalf("%s: row %d tagged %+v, identity join tags %+v", label, i, got[i].ord, want[i].ord)
		}
	}
}

// randomOutputList draws a list over width columns: any length from zero
// (nothing above the join reads a column) up to past the full width, in
// any order, repeats allowed.
func randomOutputList(rng *rand.Rand, width int) []int {
	cols := make([]int, rng.Intn(width+3))
	for i := range cols {
		cols[i] = rng.Intn(width)
	}
	return cols
}

// nestedLoop is the reference the identity joins are held to: every pair
// (l, r) with keep(l, r), left-major, each side in table order.
func nestedLoop(left, right *storage.Table, keep func(l, r []value.Value) bool) [][]value.Value {
	var out [][]value.Value
	for _, l := range left.Rows() {
		for _, r := range right.Rows() {
			if keep(l, r) {
				out = append(out, append(append([]value.Value{}, l...), r...))
			}
		}
	}
	return out
}

// A join with output list L equals the identity join followed by a
// projection onto L — same rows, same order, same ordinal tags — keyed
// and keyless, at the default batch size, at one that cuts the fan-out of
// a probe row, and for the probe-part clones splitPipeline makes. The
// identity join itself is held to the nested loop over its inputs.
func TestJoinOutputListEqualsProjectionProperty(t *testing.T) {
	fact, dim := parTables(t, 700)
	small := storage.NewTable(dim.Schema)
	for i := 0; i < 3; i++ {
		small.MustInsert(dim.Row(i)...)
	}
	sameKey := func(l, r []value.Value) bool { return value.Equal(l[1], r[0]) }
	joins := []struct {
		name string
		ref  [][]value.Value
		mk   func(cols []int) (Operator, error)
	}{
		{"HashJoin", nestedLoop(fact, dim, sameKey), func(cols []int) (Operator, error) {
			return NewHashJoin(NewScan(fact, "f"), NewScan(dim, "d"),
				exprs(colRef("f", "k")), exprs(colRef("d", "k")), cols)
		}},
		{"CrossJoin", nestedLoop(fact, small, func(l, r []value.Value) bool { return true }), func(cols []int) (Operator, error) {
			return NewHashJoin(NewScan(fact, "f"), NewScan(small, "d"), nil, nil, cols)
		}},
	}
	const batch = 64
	setMorselSize(t, 100)
	rng := rand.New(rand.NewSource(12))
	for _, jc := range joins {
		identity, _ := jc.mk(nil)
		width := len(identity.Schema())
		wantRows := mustCollect(t, identity)
		requireSameRows(t, jc.ref, wantRows)
		wantTagged := drainTagged(t, identity, batch)
		id, _ := jc.mk(nil)
		govern(id)
		parts, _ := splitPipeline(id, 3)
		wantParts := drainParts(t, parts, batch)
		for trial := 0; trial < 25; trial++ {
			cols := randomOutputList(rng, width)
			label := fmt.Sprintf("%s %v", jc.name, cols)
			narrowed := func() Operator {
				j, err := jc.mk(cols)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got := len(j.Schema()); got != len(cols) {
					t.Fatalf("%s: schema is %d wide", label, got)
				}
				for i, c := range cols {
					if j.Schema()[i] != identity.Schema()[c] {
						t.Fatalf("%s: schema column %d is %+v", label, i, j.Schema()[i])
					}
				}
				return j
			}
			// Through Collect at the default batch size: rows and order only.
			got := mustCollect(t, narrowed())
			if len(got) != len(wantRows) {
				t.Fatalf("%s: %d rows, want %d", label, len(got), len(wantRows))
			}
			for i := range got {
				if got[i] == nil || !value.RowsIdentical(got[i], projectOnto(wantRows[i], cols)) {
					t.Fatalf("%s: row %d = %v", label, i, got[i])
				}
			}
			requireProjection(t, fmt.Sprintf("%s batch=%d", label, batch), wantTagged, drainTagged(t, narrowed(), batch), cols)
			tmpl := narrowed()
			govern(tmpl)
			parts, _ := splitPipeline(tmpl, 3)
			for i, p := range drainParts(t, parts, batch) {
				requireProjection(t, fmt.Sprintf("%s part %d", label, i), wantParts[i], p, cols)
			}
		}
	}
}

func exprs(es ...sqlparse.Expr) []sqlparse.Expr { return es }

// NewHashJoin rejects an output list with a position outside
// left‖right; nil keeps the identity, and EXPLAIN shows the width only
// when narrowed.
func TestJoinNarrowValidation(t *testing.T) {
	ord, cust := testTables(t)
	mk := func(cols []int) (*HashJoin, error) {
		return NewHashJoin(NewScan(ord, "o"), NewScan(cust, "c"), nil, nil, cols)
	}
	j, err := mk(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Schema()) != 10 || j.Describe() != "CrossJoin" {
		t.Errorf("cols nil: width=%d describe=%q", len(j.Schema()), j.Describe())
	}
	if _, err := mk([]int{10}); err == nil {
		t.Error("position past the right input accepted")
	}
	if _, err := mk([]int{-1}); err == nil {
		t.Error("negative position accepted")
	}
	if j, err = mk([]int{2, 7}); err != nil {
		t.Fatal(err)
	}
	if got := j.Describe(); got != "CrossJoin cols=2/10" {
		t.Errorf("Describe = %q", got)
	}
	if got := j.Schema().Names(); len(got) != 2 || got[0] != "cidfk" || got[1] != "name" {
		t.Errorf("narrowed schema = %v", got)
	}
}

// A join nothing above reads from emits zero-width rows; each is still a
// row: COUNT(*) counts it and the root collects it, at the default batch
// size and at one that cuts the six rows into three batches.
func TestJoinZeroWidthRowsAreRows(t *testing.T) {
	ord, cust := testTables(t)
	for _, batch := range []int{0, 2} {
		useBatchSize(t, batch)
		j, err := NewHashJoin(NewScan(ord, "o"), NewScan(cust, "c"),
			exprs(colRef("o", "cidfk")), exprs(colRef("c", "id")), []int{})
		if err != nil {
			t.Fatal(err)
		}
		agg, err := NewHashAggregate(j, nil, nil, []AggSpec{{Func: AggCount, Col: ColInfo{Name: "n", Type: value.KindInt}}})
		if err != nil {
			t.Fatal(err)
		}
		rows := mustCollect(t, agg)
		if len(rows) != 1 || rows[0][0].AsInt() != 6 {
			t.Errorf("batch=%d: count over zero-width join = %v, want 6", batch, rows)
		}
		// Collected at the root too, not only counted by an aggregate.
		j2, err := NewHashJoin(NewScan(ord, "o"), NewScan(cust, "c"),
			exprs(colRef("o", "cidfk")), exprs(colRef("c", "id")), []int{})
		if err != nil {
			t.Fatal(err)
		}
		rows, _, err = CollectBatchesGoverned(j2, govern(j2), batch)
		if err != nil || len(rows) != 6 {
			t.Errorf("batch=%d: root collected %d zero-width rows (%v), want 6", batch, len(rows), err)
		}
	}
}
