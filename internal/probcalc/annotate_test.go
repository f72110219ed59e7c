package probcalc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"conquer/internal/schema"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// randomCell draws a value of kind k, or NULL, from a pool that holds
// every case where printing and the value disagree on what is equal:
// NULL beside the string "NULL", -0 beside 0, NaNs of two payloads, and
// strings that print like other kinds' values.
func randomCell(rng *rand.Rand, k value.Kind) value.Value {
	if rng.Intn(6) == 0 {
		return value.Null()
	}
	switch k {
	case value.KindInt:
		return value.Int(int64(rng.Intn(5) - 2))
	case value.KindFloat:
		pool := []float64{0, math.Copysign(0, -1), 1.5, 2, 1e21, math.Inf(1), math.Inf(-1),
			math.NaN(), math.Float64frombits(0x7ff8000000000002)}
		return value.Float(pool[rng.Intn(len(pool))])
	case value.KindBool:
		return value.Bool(rng.Intn(2) == 0)
	default:
		pool := []string{"a", "b", "NULL", "", "0", "-0", "NaN", "true"}
		return value.Str(pool[rng.Intn(len(pool))])
	}
}

// AnnotateTableCtx reads each cell by its category instead of printing it;
// that must be invisible: on typed tables of every column kind, with an
// identifier of every kind, its probabilities must equal, bit for bit,
// AssignProbabilities over a dataset built from the printed cells and
// printed identifiers — serially and with workers.
func TestAnnotateTableMatchesPrintedDataset(t *testing.T) {
	kinds := []value.Kind{value.KindInt, value.KindFloat, value.KindBool, value.KindString}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		idKind := kinds[trial%len(kinds)]
		cols := []schema.Column{
			{Name: "i", Type: value.KindInt}, {Name: "f", Type: value.KindFloat},
			{Name: "b", Type: value.KindBool}, {Name: "s", Type: value.KindString},
			{Name: "id", Type: idKind},
		}
		s := schema.MustRelation("t", cols...)
		if err := s.SetDirty("id", "prob"); err != nil {
			t.Fatal(err)
		}
		n := 1 + rng.Intn(60)
		rows := make([][]value.Value, n)
		for r := range rows {
			for _, c := range cols {
				rows[r] = append(rows[r], randomCell(rng, c.Type))
			}
			rows[r] = append(rows[r], value.Null())
		}

		ds := NewDataset([]string{"i", "f", "b", "s"})
		ids := make([]string, n)
		for r, row := range rows {
			if err := ds.Add([]string{row[0].String(), row[1].String(), row[2].String(), row[3].String()}); err != nil {
				t.Fatal(err)
			}
			ids[r] = row[4].String()
		}
		want, err := AssignProbabilities(ds, ids, nil)
		if err != nil {
			t.Fatal(err)
		}

		for _, par := range []int{1, 3} {
			tb := storage.NewTable(s)
			for _, row := range rows {
				if err := tb.Insert(append([]value.Value(nil), row...)); err != nil {
					t.Fatal(err)
				}
			}
			if err := AnnotateTableCtx(context.Background(), tb, nil, nil, par); err != nil {
				t.Fatal(err)
			}
			for r := range rows {
				got := tb.Row(r)[5].AsFloat()
				if math.Float64bits(got) != math.Float64bits(want[r].Prob) {
					t.Fatalf("trial %d (%v identifiers), par=%d, row %d %v: annotated %v, printed dataset %v",
						trial, idKind, par, r, rows[r][:5], got, want[r].Prob)
				}
			}
		}
	}
}

// A pass's allocations are per table and per vocabulary, not per tuple:
// annotating an n-row table serially allocates fewer than n/20 times,
// and fewer than annotateBytesPerCell bytes per attribute cell on a
// table whose every value is distinct, so that the vocabulary is as large
// as the table.
func TestAnnotateTableAllocationFloor(t *testing.T) {
	for _, n := range []int{1000, 4000} {
		tb := parTable(t, n)
		allocs := testing.AllocsPerRun(3, func() {
			if err := AnnotateTableCtx(context.Background(), tb, nil, nil, 1); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("annotating %d rows allocates %.0f times", n, allocs)
		if allocs >= float64(n)/20 {
			t.Errorf("annotating %d rows allocates %.0f times, want fewer than %d", n, allocs, n/20)
		}

		tb = distinctTable(t, n)
		cells := float64(n * 2)
		perCell := bytesPerRun(t, 3, func() {
			if err := AnnotateTableCtx(context.Background(), tb, nil, nil, 1); err != nil {
				t.Fatal(err)
			}
		}) / cells
		t.Logf("annotating %d distinct rows allocates %.1f bytes per cell", n, perCell)
		if perCell >= annotateBytesPerCell {
			t.Errorf("annotating %d distinct rows allocates %.1f bytes per cell, want fewer than %d", n, perCell, annotateBytesPerCell)
		}
	}
}

// annotateBytesPerCell bounds a serial annotation's bytes per attribute
// cell when every value is distinct, with ~17% headroom: it measures
// ~305 at 1,000 and 4,000 rows, mostly the vocabulary map, then one int32
// id per cell and per-row cluster keys and assignments. An id -> key
// vector grown beside the map, which annotation never reads, takes it to
// ~430 and ~480.
const annotateBytesPerCell = 360

// distinctTable is parTable's relation with every name and city distinct.
func distinctTable(t testing.TB, n int) *storage.Table {
	t.Helper()
	tb := storage.NewTable(parTable(t, 0).Schema)
	for i := 0; i < n; i++ {
		tb.MustInsert(value.Str(fmt.Sprintf("name%d", i)), value.Str(fmt.Sprintf("city%d", i)),
			value.Str(fmt.Sprintf("c%04d", i/3)), value.Null())
	}
	return tb
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes f
// allocates over runs calls, after one warm-up call.
func bytesPerRun(t testing.TB, runs int, f func()) float64 {
	t.Helper()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
