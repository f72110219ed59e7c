package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"conquer/internal/exec"
	"conquer/internal/schema"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// A grouped SUM, AVG, MIN and MAX have one bit pattern at every worker
// count and in every run. f spans twelve orders of magnitude, so another
// association of a sum moves its last bits; every group's rows span all
// twenty morsels, so the fold crosses morsels; and g is +0 in the even
// morsels and -0 in the odd ones, so MIN and MAX only ever meet ties. The
// serial pass is the one part of its split and folds on the morsel grid as
// the workers do, which the hand-computed fold pins, and MIN/MAX break ties
// by a total order, -0 before +0, whichever worker saw which zero first.
func TestEveryWorkerCountFoldsOneBitPattern(t *testing.T) {
	const n, groups, runs = 20000, 7, 30
	size := exec.DefaultMorselSize
	db := storage.NewDB()
	tb := db.MustCreateTable(schema.MustRelation("t",
		schema.Column{Name: "k", Type: value.KindInt},
		schema.Column{Name: "f", Type: value.KindFloat},
		schema.Column{Name: "g", Type: value.KindFloat},
	))
	rng := rand.New(rand.NewSource(11))
	var grid, serial [groups]float64
	var morsel [groups]float64
	for i := 0; i < n; i++ {
		f := rng.Float64() * math.Pow(10, float64(rng.Intn(12)-6))
		g := 0.0
		if i/size%2 == 1 {
			g = math.Copysign(0, -1)
		}
		tb.MustInsert(value.Int(int64(i%groups)), value.Float(f), value.Float(g))
		morsel[i%groups] += f
		serial[i%groups] += f
		if (i+1)%size == 0 || i == n-1 {
			for k := range grid {
				grid[k] += morsel[k]
			}
			morsel = [groups]float64{}
		}
	}
	if grid == serial {
		t.Fatal("the data sums to the same bits folded per morsel and left to right; it cannot tell the two apart")
	}

	const q = "select k, sum(f), avg(f), min(g), max(g) from t group by k order by k"
	patterns := map[string][]string{}
	for _, par := range []int{1, 2, 4, 8} {
		for run := 0; run < runs; run++ {
			res, err := NewWithOptions(db, Options{Parallelism: par}).QueryCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			p := bitPattern(res.Rows)
			patterns[p] = append(patterns[p], fmt.Sprintf("parallelism %d run %d", par, run))
		}
	}
	if len(patterns) != 1 {
		var b strings.Builder
		for p, at := range patterns {
			fmt.Fprintf(&b, "\n%d results, first at %s:\n%s", len(at), at[0], p)
		}
		t.Fatalf("%d bit patterns among %d results:%s", len(patterns), 4*runs, b.String())
	}
	var want strings.Builder
	for k := range grid {
		count := float64((n - k + groups - 1) / groups)
		want.WriteString(bitPattern([][]value.Value{{
			value.Int(int64(k)), value.Float(grid[k]), value.Float(grid[k] / count),
			value.Float(math.Copysign(0, -1)), value.Float(0),
		}}))
	}
	for p := range patterns {
		if p != want.String() {
			t.Fatalf("the results read\n%s\nthe morsel-order fold, MIN -0 and MAX +0 read\n%s", p, want.String())
		}
	}
}

// bitPattern spells rows with each float as its bits.
func bitPattern(rows [][]value.Value) string {
	var b strings.Builder
	for _, row := range rows {
		for _, v := range row {
			if v.Kind() == value.KindFloat {
				fmt.Fprintf(&b, "%016x ", math.Float64bits(v.AsFloat()))
			} else {
				fmt.Fprintf(&b, "%v ", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
