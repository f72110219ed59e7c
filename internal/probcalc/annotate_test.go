package probcalc

import (
	"context"
	"math"
	"math/rand"
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
// annotating an n-row table serially allocates fewer than n/20 times.
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
	}
}
