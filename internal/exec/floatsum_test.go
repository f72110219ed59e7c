package exec

import (
	"cmp"
	"math"
	"math/rand"
	"testing"

	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// A float SUM or AVG folds each group's rows morsel by morsel, left to
// right within a morsel, and then the morsels' sums in morsel order, from
// zero. So at 1, 2, 4 and 8 workers, in every run, each group reads the
// bits of that fold computed here by hand, whichever worker won which
// morsel: one worker runs the child as the one part of its split, on the
// same grid. The values span twelve orders of magnitude, so another
// association moves last bits; one left-to-right fold over all rows is
// checked to differ from the grid fold somewhere, or the data would not
// tell the two apart.
func TestParallelFloatSumFoldsMorselsInOrder(t *testing.T) {
	const n, size, groups = 1000, 64, 3
	setMorselSize(t, size)
	tb := storage.NewTable(schema.MustRelation("t",
		schema.Column{Name: "k", Type: value.KindInt},
		schema.Column{Name: "v", Type: value.KindFloat},
	))
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(12)-6))
		tb.MustInsert(value.Int(int64(i%groups)), value.Float(vals[i]))
	}
	var want, serial [groups]float64
	for lo := 0; lo < n; lo += size {
		var morsel [groups]float64
		for i := lo; i < min(lo+size, n); i++ {
			morsel[i%groups] += vals[i]
			serial[i%groups] += vals[i]
		}
		for k := range want {
			want[k] += morsel[k]
		}
	}
	if want == serial {
		t.Fatal("the data sums to the same bits in both orders; it cannot tell the grid fold from the serial one")
	}

	build := func() *HashAggregate {
		return mustOp[*HashAggregate](t)(NewHashAggregate(NewScan(tb, "t"),
			[]sqlparse.Expr{colRef("t", "k")}, []ColInfo{{Name: "k", Type: value.KindInt}},
			[]AggSpec{
				{Func: AggSum, Arg: colRef("t", "v"), Col: ColInfo{Name: "s", Type: value.KindFloat}},
				{Func: AggAvg, Arg: colRef("t", "v"), Col: ColInfo{Name: "a", Type: value.KindFloat}},
			}))
	}
	for _, par := range []int{1, 2, 4, 8} {
		for run := 0; run < 20; run++ {
			rows := mustCollectOn(t, build(), par)
			if len(rows) != groups {
				t.Fatalf("parallelism %d: %d groups, want %d", par, len(rows), groups)
			}
			for _, row := range rows {
				k := row[0].AsInt()
				count := float64((n - int(k) + groups - 1) / groups)
				sum, avg := row[1].AsFloat(), row[2].AsFloat()
				if math.Float64bits(sum) != math.Float64bits(want[k]) || math.Float64bits(avg) != math.Float64bits(want[k]/count) {
					t.Fatalf("parallelism %d, run %d: group %d sums to %v, averages %v; the morsel-order fold gives %v, %v (one left-to-right fold %v)",
						par, run, k, sum, avg, want[k], want[k]/count, serial[k])
				}
			}
		}
	}
}

// MIN and MAX keep their value by a total order, so the value a group
// keeps among tied ones does not depend on the order its rows were folded
// in: every pair of these values, listed in that order, compares so.
func TestCompareExtremeIsATotalOrder(t *testing.T) {
	big := int64(1) << 53
	vals := []value.Value{
		value.Float(math.Inf(-1)), value.Int(-5), value.Float(-5),
		value.Int(0), value.Float(math.Copysign(0, -1)), value.Float(0),
		value.Int(big), value.Float(float64(big)), value.Int(big + 1),
		value.Int(math.MaxInt64), value.Float(math.Exp2(63)), value.Float(math.Inf(1)),
		value.Float(math.Float64frombits(0x7ff8000000000001)), value.Float(math.Float64frombits(0xfff8000000000000)),
	}
	for i, a := range vals {
		for j, b := range vals {
			if got, want := compareExtreme(a, b), cmp.Compare(i, j); got != want {
				t.Errorf("compareExtreme(%v, %v) = %d, want %d", a, b, got, want)
			}
		}
	}
}
