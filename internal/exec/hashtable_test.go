package exec

import (
	"fmt"
	"sort"
	"testing"

	"conquer/internal/schema"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled = false

// The join build and the aggregate allocate per block, not per key: the
// build's entries sit in one vector with each bucket chained through it,
// the groups chain through the states their arena carves, and the grouped
// rows are carved from one block. Doubling the distinct keys from 4,000 to
// 8,000 must add fewer than one allocation per 50 keys, serially and with
// the parallel arms running. What it does add is blocks: a Go map that
// grows to 8,000 keys allocates about 33 times more than one of 4,000, and
// each worker's arena takes one more block. A slice per key added about
// 4,000 for the join and 8,000 to 12,000 for the groups.
func TestHashTablesDoNotAllocatePerKey(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	allocs := func(n int, mk func(fact, dim *storage.Table) Operator) float64 {
		fact, dim := parTables(t, n)
		return testing.AllocsPerRun(3, func() {
			if rows := mustCollect(t, mk(fact, dim)); len(rows) == 0 {
				t.Fatal("no rows")
			}
		})
	}
	for _, par := range []int{1, 4} {
		for _, tc := range []struct {
			name string
			mk   func(fact, dim *storage.Table) Operator
		}{
			// One group per fact row.
			{"GROUP BY", func(fact, _ *storage.Table) Operator {
				a := mustOp[*HashAggregate](t)(NewHashAggregate(NewScan(fact, "f"),
					exprs(colRef("f", "id")), []ColInfo{{Name: "id", Type: value.KindInt}},
					[]AggSpec{
						{Func: AggCount, Col: ColInfo{Name: "n", Type: value.KindInt}},
						{Func: AggSum, Arg: colRef("f", "w"), Col: ColInfo{Name: "sw", Type: value.KindFloat}},
					}))
				a.Parallelism, a.MorselSize = par, 256
				return a
			}},
			// One build key per fact row, probed by the 97 dimension rows.
			{"join build", func(fact, dim *storage.Table) Operator {
				j := mustOp[*HashJoin](t)(NewHashJoin(NewScan(dim, "d"), NewScan(fact, "f"),
					exprs(colRef("d", "k")), exprs(colRef("f", "id"))))
				j.Parallelism, j.MorselSize = par, 256
				return j
			}},
		} {
			small, large := allocs(4000, tc.mk), allocs(8000, tc.mk)
			t.Logf("%s, parallelism %d: %v allocations for 4000 keys, %v for 8000", tc.name, par, small, large)
			if large > small+4000/50 {
				t.Errorf("%s, parallelism %d: %v allocations for 4000 keys, %v for 8000: something is still per key", tc.name, par, small, large)
			}
		}
	}
}

// joinSides builds the two inputs of TestJoinBucketOrderMatchesNestedLoop:
// dirty tables, so that shard views partition them by cluster hash and their
// rows reach the build interleaved across shards. Every build key occurs
// in many morsels of three rows and in several clusters, some keys are
// NULL, and two probe keys match nothing.
func joinSides(t *testing.T, probeRows, buildRows int) (probe, build *storage.Table) {
	t.Helper()
	mk := func(name string, n, keys, nullEvery int) *storage.Table {
		s := schema.MustRelation(name,
			schema.Column{Name: "id", Type: value.KindString},
			schema.Column{Name: "k", Type: value.KindInt},
			schema.Column{Name: "prob", Type: value.KindFloat},
		)
		if err := s.SetDirty("id", "prob"); err != nil {
			t.Fatal(err)
		}
		tb := storage.NewTable(s)
		for i := 0; i < n; i++ {
			k := value.Int(int64(i % keys))
			if i%nullEvery == 0 {
				k = value.Null()
			}
			tb.MustInsert(value.Str(fmt.Sprintf("c%d", i%11)), k, value.Float(1))
		}
		return tb
	}
	return mk("probe", probeRows, 7, 6), mk("build", buildRows, 5, 7)
}

// A join's buckets hold their entries in right-input order however the
// build ran: serially, or partitioned across workers over sharded morsels
// and merged by ordinal. So the probe emits the nested loop's rows in the
// nested loop's order, and tags each with its probe row's ordinal and its
// place in that row's fan-out — at every parallelism, shard count and
// batch size, with NULL keys on both sides and with an empty build.
func TestJoinBucketOrderMatchesNestedLoop(t *testing.T) {
	probe, build := joinSides(t, 40, 60)
	empty := storage.NewTable(build.Schema)
	sameKey := func(l, r []value.Value) bool { return !l[1].IsNull() && value.Equal(l[1], r[1]) }
	for _, right := range []*storage.Table{build, empty} {
		// The reference: nested-loop rows, tagged (probe ordinal, fan-out).
		var want []taggedRow
		for li, l := range probe.Rows() {
			seq := int64(0)
			for _, r := range right.Rows() {
				if sameKey(l, r) {
					row := append(append([]value.Value{}, l...), r...)
					want = append(want, taggedRow{row, rowOrd{base: int64(li), seq: seq}})
					seq++
				}
			}
		}
		if right == build && len(want) < 100 {
			t.Fatalf("reference has %d rows: the keys do not repeat", len(want))
		}
		for _, shards := range []int{1, 3} {
			for _, par := range []int{1, 2, 8} {
				for _, batch := range []int{1, 7, 0} {
					label := fmt.Sprintf("build rows=%d shards=%d par=%d batch=%d", right.Len(), shards, par, batch)
					left, r := NewScan(probe, "p"), NewScan(right, "b")
					if shards > 1 {
						left.Sharded = storage.NewShardedTable(probe, shards)
						r.Sharded = storage.NewShardedTable(right, shards)
					}
					j := mustOp[*HashJoin](t)(NewHashJoin(left, r, exprs(colRef("p", "k")), exprs(colRef("b", "k"))))
					j.Parallelism, j.MorselSize = par, 3
					SetBatchSize(j, batch)
					parts, _, ok := splitPipeline(j, par, 3)
					if !ok {
						t.Fatalf("%s: the probe did not split", label)
					}
					var got []taggedRow
					for _, p := range drainParts(t, parts, batch) {
						got = append(got, p...)
					}
					sort.Slice(got, func(x, y int) bool { return got[x].ord.less(got[y].ord) })
					if len(got) != len(want) {
						t.Fatalf("%s: %d rows, the nested loop has %d", label, len(got), len(want))
					}
					for i := range want {
						if got[i].ord != want[i].ord || !value.RowsIdentical(got[i].row, want[i].row) {
							t.Fatalf("%s: row %d = %v tagged %+v, want %v tagged %+v",
								label, i, got[i].row, got[i].ord, want[i].row, want[i].ord)
						}
					}
				}
			}
		}
	}
}
