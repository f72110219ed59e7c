package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"strings"

	"conquer/internal/qerr"
	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// dirtyFact builds a dirty-style fact table of n rows whose cluster ids
// are deliberately skewed: cluster "hot" holds a quarter of the rows,
// the rest spread over many small clusters. Skew is what the balancer
// must absorb without changing results.
func dirtyFact(t testing.TB, n int) *storage.Table {
	t.Helper()
	s := schema.MustRelation("fact",
		schema.Column{Name: "id", Type: value.KindString},
		schema.Column{Name: "k", Type: value.KindInt},
		schema.Column{Name: "qty", Type: value.KindInt},
		schema.Column{Name: "w", Type: value.KindFloat},
		schema.Column{Name: "prob", Type: value.KindFloat},
	)
	if err := s.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	tb := storage.NewTable(s)
	for i := 0; i < n; i++ {
		cid := fmt.Sprintf("c%04d", i%211)
		if i%4 == 0 {
			cid = "hot"
		}
		tb.MustInsert(value.Str(cid), value.Int(int64(i%97)),
			value.Int(int64(i%7)), value.Float(float64(i%13)*0.25), value.Float(1))
	}
	return tb
}

// shardScanFilterProject is scanFilterProject with a sharded leaf.
func shardScanFilterProject(t testing.TB, fact *storage.Table, shards int) Operator {
	t.Helper()
	sc := NewScan(fact, "f")
	if shards > 1 {
		sc.Sharded = storage.NewShardedTable(fact, shards)
	}
	f, err := NewFilter(sc, expr(t, "qty < 5"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProject(f, []ProjectionCol{
		{Expr: colRef("f", "id"), Col: ColInfo{Name: "id", Type: value.KindString}},
		{Expr: colRef("f", "w"), Col: ColInfo{Name: "w", Type: value.KindFloat}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestShardedGatherMatchesSerial(t *testing.T) {
	fact := dirtyFact(t, 5000)
	want := mustCollect(t, shardScanFilterProject(t, fact, 1))
	if len(want) == 0 {
		t.Fatal("empty baseline")
	}
	for _, shards := range []int{2, 3, 4, 7} {
		for _, n := range []int{1, 2, 8} {
			g := NewGather(shardScanFilterProject(t, fact, shards), n)
			g.MorselSize = 64
			got := mustCollect(t, g)
			if len(got) != len(want) {
				t.Fatalf("shards=%d n=%d: rows %d, want %d", shards, n, len(got), len(want))
			}
			for i := range want {
				if !value.RowsIdentical(want[i], got[i]) {
					t.Fatalf("shards=%d n=%d: row %d differs: want %v, got %v",
						shards, n, i, want[i], got[i])
				}
			}
		}
	}
}

// TestShardedJoinBuildMatchesSerial shards the build side of a join: the
// shared hash table's buckets must still end up in serial insertion
// order even though build rows arrive interleaved across shards.
func TestShardedJoinBuildMatchesSerial(t *testing.T) {
	fact := dirtyFact(t, 3000)
	dim := dirtyFact(t, 500)
	build := func(shards, par int) *HashJoin {
		left := NewScan(fact, "f")
		right := NewScan(dim, "d")
		if shards > 1 {
			right.Sharded = storage.NewShardedTable(dim, shards)
		}
		j, err := NewHashJoin(left, right,
			[]sqlparse.Expr{colRef("f", "k")}, []sqlparse.Expr{colRef("d", "k")})
		if err != nil {
			t.Fatal(err)
		}
		j.Parallelism, j.MorselSize = par, 32
		return j
	}
	want := mustCollect(t, build(1, 1))
	for _, shards := range []int{2, 4} {
		for _, par := range []int{1, 4} {
			requireSameRows(t, want, mustCollect(t, build(shards, par)))
		}
	}
}

// TestShardedAggregateMatchesSerial shards the aggregate's input; group
// order must match the serial first-appearance order and float sums must
// agree within the canonical epsilon.
func TestShardedAggregateMatchesSerial(t *testing.T) {
	fact := dirtyFact(t, 5000)
	build := func(shards, par int) *HashAggregate {
		sc := NewScan(fact, "f")
		if shards > 1 {
			sc.Sharded = storage.NewShardedTable(fact, shards)
		}
		a, err := NewHashAggregate(sc,
			[]sqlparse.Expr{colRef("f", "k")},
			[]ColInfo{{Name: "k", Type: value.KindInt}},
			[]AggSpec{
				{Func: AggCount, Col: ColInfo{Name: "n", Type: value.KindInt}},
				{Func: AggSum, Arg: colRef("f", "w"), Col: ColInfo{Name: "sw", Type: value.KindFloat}},
				{Func: AggMin, Arg: colRef("f", "qty"), Col: ColInfo{Name: "mn", Type: value.KindInt}},
			})
		if err != nil {
			t.Fatal(err)
		}
		a.Parallelism, a.MorselSize = par, 64
		return a
	}
	want := mustCollect(t, build(1, 1))
	for _, shards := range []int{2, 4} {
		for _, par := range []int{1, 8} {
			got := mustCollect(t, build(shards, par))
			if len(got) != len(want) {
				t.Fatalf("shards=%d par=%d: groups %d, want %d", shards, par, len(got), len(want))
			}
			for i := range want {
				for c := range want[i] {
					w, g := want[i][c], got[i][c]
					if w.Kind() == value.KindFloat || g.Kind() == value.KindFloat {
						if !value.FloatEq(w.AsFloat(), g.AsFloat(), value.ProbEpsilon) {
							t.Fatalf("shards=%d par=%d: row %d col %d: want %v, got %v", shards, par, i, c, w, g)
						}
						continue
					}
					if !value.Identical(w, g) {
						t.Fatalf("shards=%d par=%d: row %d col %d: want %v, got %v", shards, par, i, c, w, g)
					}
				}
			}
		}
	}
}

// TestShardedStatsSurface checks the per-shard counters: rows across
// shards must sum to the table, claims to the morsel count, and the
// stats must show up in EXPLAIN ANALYZE, StatsTree and
// CollectShardStats.
func TestShardedStatsSurface(t *testing.T) {
	fact := dirtyFact(t, 4000)
	g := NewGather(shardScanFilterProject(t, fact, 4), 2)
	g.MorselSize = 64
	Instrument(g)
	gov := NewGovernor(context.Background(), Limits{})
	Attach(g, gov)
	if _, _, err := CollectBatchesGoverned(g, gov, 0); err != nil {
		t.Fatal(err)
	}
	stats := CollectShardStats(g)
	if len(stats) != 1 {
		t.Fatalf("shard groups = %d, want 1", len(stats))
	}
	st := stats[0]
	if st.Table != "fact" || len(st.Shards) != 4 {
		t.Fatalf("unexpected group %+v", st)
	}
	var rows, claims int64
	for _, sh := range st.Shards {
		rows += sh.Rows
		claims += sh.Claims
	}
	if rows != 4000 {
		t.Fatalf("shard rows sum = %d, want 4000", rows)
	}
	if claims == 0 {
		t.Fatalf("no morsel claims recorded: %+v", st)
	}
	if st.Skew() < 1 {
		t.Fatalf("skew %f < 1", st.Skew())
	}
	out := ExplainAnalyze(g)
	for _, want := range []string{"shards=[s0:", "skew=", "rebalances=", "shards=4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}
	var found bool
	for _, l := range StatsTree(g) {
		if len(l.ShardRows) == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("StatsTree has no per-shard line:\n%s", out)
	}
}

// TestShardedGatherCancellation cancels mid-gather over a sharded join
// pipeline and requires ErrCanceled with no leaked goroutines.
func TestShardedGatherCancellation(t *testing.T) {
	fact := dirtyFact(t, 5000)
	dim := dirtyFact(t, 500)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	left := NewScan(fact, "f")
	left.Sharded = storage.NewShardedTable(fact, 4)
	right := NewScan(dim, "d")
	right.Sharded = storage.NewShardedTable(dim, 4)
	j, err := NewHashJoin(left, right,
		[]sqlparse.Expr{colRef("f", "k")}, []sqlparse.Expr{colRef("d", "k")})
	if err != nil {
		t.Fatal(err)
	}
	j.Parallelism, j.MorselSize = 4, 64
	g := NewGather(j, 4)
	g.MorselSize = 64
	gov := NewGovernor(ctx, Limits{})
	Attach(g, gov)
	if _, _, err := CollectBatchesGoverned(g, gov, 0); !errors.Is(err, qerr.ErrCanceled) {
		t.Fatalf("want qerr.ErrCanceled, got %v", err)
	}
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before {
			break
		}
		if i >= 100 {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
