package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"conquer/internal/cache"
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
// It holds for engines made per run, and for one tree: engines sharing a
// cache whose result tier holds nothing all re-open the plan tier's one
// Prepared, each at its own worker count.
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

	var want strings.Builder
	for k := range grid {
		count := float64((n - k + groups - 1) / groups)
		want.WriteString(bitPattern([][]value.Value{{
			value.Int(int64(k)), value.Float(grid[k]), value.Float(grid[k] / count),
			value.Float(math.Copysign(0, -1)), value.Float(0),
		}}))
	}

	const q = "select k, sum(f), avg(f), min(g), max(g) from t group by k order by k"
	for _, c := range []*cache.Cache{nil, cache.New(cache.Options{MaxBytes: 1})} {
		patterns := map[string][]string{}
		var cols *string // the one Prepared's column names, on the cached arm
		for run := 0; run < runs; run++ {
			for _, par := range []int{1, 2, 4, 8} {
				res, err := NewWithOptions(db, Options{Parallelism: par, Cache: c}).QueryCtx(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("cached %v, parallelism %d run %d", c != nil, par, run)
				if c != nil {
					if cols == nil {
						cols = &res.Columns[0]
					}
					if cols != &res.Columns[0] {
						t.Fatalf("%s runs a tree of its own, not the plan tier's one Prepared", label)
					}
				}
				p := bitPattern(res.Rows)
				patterns[p] = append(patterns[p], label)
			}
		}
		if len(patterns) != 1 {
			var b strings.Builder
			for p, at := range patterns {
				fmt.Fprintf(&b, "\n%d results, first at %s:\n%s", len(at), at[0], p)
			}
			t.Fatalf("cached %v: %d bit patterns among %d results:%s", c != nil, len(patterns), 4*runs, b.String())
		}
		for p := range patterns {
			if p != want.String() {
				t.Fatalf("cached %v: the results read\n%s\nthe morsel-order fold, MIN -0 and MAX +0 read\n%s", c != nil, p, want.String())
			}
		}
		if c != nil {
			if s := c.Stats(); s.Plans != 1 || s.Entries != 0 {
				t.Errorf("cache stats %+v: want one plan and no result", s)
			}
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

// A GROUP BY on the identifier of a dirty table stored in identifier order
// streams: the grid's marks move to cluster boundaries, so each cluster's
// rows lie in one morsel and its SUM adds them left to right, one bit
// pattern at every worker count. The clusters hold 2 to 10 rows whose
// values span twelve orders of magnitude, and some straddle a plain
// morsel mark, where the morsel-order fold would read other bits.
func TestStreamingAggregateSumsEachClusterLeftToRight(t *testing.T) {
	const n, runs = 20000, 5
	size := exec.DefaultMorselSize
	rel := schema.MustRelation("t",
		schema.Column{Name: "id", Type: value.KindInt},
		schema.Column{Name: "f", Type: value.KindFloat},
		schema.Column{Name: "prob", Type: value.KindFloat},
	)
	if err := rel.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB()
	tb := db.MustCreateTable(rel)
	rng := rand.New(rand.NewSource(5))
	var want []float64 // each cluster's rows added left to right
	straddling, foldsOtherwise := 0, 0
	for id := 0; tb.Len() < n; id++ {
		k := 2 + rng.Intn(9)
		first := tb.Len()
		sum, before, after := 0.0, 0.0, 0.0 // before and after the plain mark
		for j := 0; j < k; j++ {
			f := rng.Float64() * math.Pow(10, float64(rng.Intn(12)-6))
			tb.MustInsert(value.Int(int64(id)), value.Float(f), value.Float(1/float64(k)))
			sum += f
			if (first+j)/size == first/size {
				before += f
			} else {
				after += f
			}
		}
		want = append(want, sum)
		if first/size != (tb.Len()-1)/size {
			straddling++
			if math.Float64bits(before+after) != math.Float64bits(sum) {
				foldsOtherwise++
			}
		}
	}
	if !tb.Ordered() {
		t.Fatal("the table is stored in identifier order but lacks the bit")
	}
	if foldsOtherwise == 0 {
		t.Fatalf("none of %d clusters straddling a morsel mark folds to other bits per morsel; the data cannot tell the two folds apart", straddling)
	}

	const q = "select id, sum(f) from t group by id"
	for _, par := range []int{1, 2, 8} {
		eng := NewWithOptions(db, Options{Parallelism: par})
		plan, err := eng.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "runs=id") {
			t.Fatalf("parallelism %d: the aggregate names no run column:\n%s", par, plan)
		}
		for run := 0; run < runs; run++ {
			res, err := eng.QueryCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != len(want) {
				t.Fatalf("parallelism %d: %d groups, want %d", par, len(res.Rows), len(want))
			}
			for i, row := range res.Rows {
				if row[0].AsInt() != int64(i) {
					t.Fatalf("parallelism %d: group %d is cluster %v; want first-appearance order", par, i, row[0])
				}
				if got := row[1].AsFloat(); math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Fatalf("parallelism %d run %d: cluster %d sums to %016x, left to right %016x",
						par, run, i, math.Float64bits(got), math.Float64bits(want[i]))
				}
			}
		}
	}
}
