package exec

import (
	"errors"
	"math"
	"testing"

	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// sumByK is SELECT k, SUM(v) FROM t GROUP BY k.
func sumByK(t *testing.T, tb *storage.Table) *HashAggregate {
	t.Helper()
	return mustOp[*HashAggregate](t)(NewHashAggregate(NewScan(tb, "t"),
		[]sqlparse.Expr{colRef("t", "k")}, []ColInfo{{Name: "k", Type: value.KindInt}},
		[]AggSpec{{Func: AggSum, Arg: colRef("t", "v"), Col: ColInfo{Name: "s", Type: value.KindInt}}}))
}

// An integer SUM is exact: 2^53 + 1, which a float64 rounds to 2^53, comes
// back as itself from the serial pass and from the parallel one, whose two
// workers' partial sums for group 0 — each group's rows lie in both morsels
// — are added in the merge; and a sum past int64 is an evaluation error,
// serial or merged, not a wrapped or rounded number.
func TestIntegerSumIsExact(t *testing.T) {
	setMorselSize(t, 2)
	table := func(vs ...int64) *storage.Table {
		tb := storage.NewTable(schema.MustRelation("t",
			schema.Column{Name: "k", Type: value.KindInt},
			schema.Column{Name: "v", Type: value.KindInt}))
		for i, v := range vs {
			tb.MustInsert(value.Int(int64(i%2)), value.Int(v))
		}
		return tb
	}
	// Morsels [0,1] and [2,3]: group 0 gets 2^53 from the first, 1 from the
	// second; group 1 gets 3 and 4.
	tb := table(1<<53, 3, 1, 4)
	want := [][]value.Value{
		{value.Int(0), value.Int(1<<53 + 1)},
		{value.Int(1), value.Int(7)},
	}
	for _, par := range []int{1, 2} {
		for run := 0; run < 20; run++ {
			got := mustCollectOn(t, sumByK(t, tb), par)
			if len(got) != len(want) || !value.RowsIdentical(got[0], want[0]) || !value.RowsIdentical(got[1], want[1]) {
				t.Fatalf("parallelism %d: SUM by k = %v, want %v", par, got, want)
			}
		}
	}

	over := table(math.MaxInt64, 0, 1, 0)
	for _, par := range []int{1, 2} {
		_, err := collectOn(sumByK(t, over), par)
		var ee *EvalError
		if !errors.As(err, &ee) {
			t.Errorf("parallelism %d: SUM past int64: err = %v, want an EvalError", par, err)
		}
	}
	// The merge alone: each partial fits, their sum does not.
	a := sumByK(t, over)
	acc := a.newAcc()
	part := func(v int64) *aggState {
		st := a.newState(acc, []value.Value{value.Int(0)}, rowOrd{})
		st.isum[0], st.count[0], st.sum[0] = v, 1, float64(v)
		return st
	}
	if err := combine(part(math.MaxInt64), part(1), a.Aggs); !errors.As(err, new(*EvalError)) {
		t.Errorf("merging partial sums past int64: err = %v, want an EvalError", err)
	}
	if err := combine(part(math.MinInt64), part(-1), a.Aggs); err == nil {
		t.Error("merging partial sums below int64: no error")
	}
}
