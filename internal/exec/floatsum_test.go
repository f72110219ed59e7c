package exec

import (
	"math"
	"math/rand"
	"testing"

	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// A parallel float SUM or AVG folds each group's rows morsel by morsel,
// left to right within a morsel, and then the morsels' sums in morsel
// order, from zero. So at 2, 4 and 8 workers, in every run, each group
// reads the bits of that fold computed here by hand, whichever worker won
// which morsel. The values span twelve orders of magnitude, so another
// association moves last bits; the serial pass, one left-to-right fold,
// is checked to differ from the grid fold somewhere, or the data would
// not tell the two apart.
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

	build := func(par int) *HashAggregate {
		a := mustOp[*HashAggregate](t)(NewHashAggregate(NewScan(tb, "t"),
			[]sqlparse.Expr{colRef("t", "k")}, []ColInfo{{Name: "k", Type: value.KindInt}},
			[]AggSpec{
				{Func: AggSum, Arg: colRef("t", "v"), Col: ColInfo{Name: "s", Type: value.KindFloat}},
				{Func: AggAvg, Arg: colRef("t", "v"), Col: ColInfo{Name: "a", Type: value.KindFloat}},
			}))
		a.Parallelism = par
		return a
	}
	for _, par := range []int{2, 4, 8} {
		for run := 0; run < 20; run++ {
			rows := mustCollect(t, build(par))
			if len(rows) != groups {
				t.Fatalf("parallelism %d: %d groups, want %d", par, len(rows), groups)
			}
			for _, row := range rows {
				k := row[0].AsInt()
				count := float64((n - int(k) + groups - 1) / groups)
				sum, avg := row[1].AsFloat(), row[2].AsFloat()
				if math.Float64bits(sum) != math.Float64bits(want[k]) || math.Float64bits(avg) != math.Float64bits(want[k]/count) {
					t.Fatalf("parallelism %d, run %d: group %d sums to %v, averages %v; the morsel-order fold gives %v, %v (the serial fold %v)",
						par, run, k, sum, avg, want[k], want[k]/count, serial[k])
				}
			}
		}
	}
}
