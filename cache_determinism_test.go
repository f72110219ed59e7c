// Determinism and concurrency suite for the versioned query cache:
// cached and uncached answers must be byte-identical on every TPC-H
// evaluation query pair at every worker count, a table mutation between
// runs must force a miss, and concurrent identical queries must collapse
// onto exactly one execution per unique (query, version-vector).
package conquer

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"conquer/internal/bench"
	"conquer/internal/cache"
	"conquer/internal/engine"
	"conquer/internal/sqlparse"
	"conquer/internal/value"
)

// TestCachedAnswersByteIdentical runs all thirteen query pairs on an
// uncached engine and on a cached engine (cold, then warm) at
// parallelism 1, 2 and 8, requiring byte-identical rows from every
// path. Morsel-driven execution is serial-identical, so within one
// worker count equality is exact — no epsilon.
func TestCachedAnswersByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	d := determinismWorkload(t)
	pairs, err := bench.PreparePairs()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 13 {
		t.Fatalf("PreparePairs returned %d pairs, want 13", len(pairs))
	}
	for _, n := range []int{1, 2, 8} {
		bare := engine.NewWithOptions(d.Store, engine.Options{Parallelism: n})
		c := cache.New(cache.Options{MaxBytes: 256 << 20})
		cached := engine.NewWithOptions(d.Store, engine.Options{Parallelism: n, Cache: c})
		for _, p := range pairs {
			for _, q := range []struct {
				label string
				stmt  *sqlparse.SelectStmt
			}{
				{fmt.Sprintf("Q%d original n=%d", p.Number, n), p.Original},
				{fmt.Sprintf("Q%d rewritten n=%d", p.Number, n), p.Rewritten},
			} {
				want, err := bare.QueryStmt(q.stmt)
				if err != nil {
					t.Fatalf("%s uncached: %v", q.label, err)
				}
				cold, err := cached.QueryStmt(q.stmt)
				if err != nil {
					t.Fatalf("%s cold: %v", q.label, err)
				}
				if cold.Stats.Cached {
					t.Fatalf("%s: first cached-engine run must execute", q.label)
				}
				warm, err := cached.QueryStmt(q.stmt)
				if err != nil {
					t.Fatalf("%s warm: %v", q.label, err)
				}
				if !warm.Stats.Cached {
					t.Fatalf("%s: second cached-engine run should hit", q.label)
				}
				identicalRows(t, q.label+" cold", want, cold)
				identicalRows(t, q.label+" warm", want, warm)
			}
		}
	}
}

// identicalRows requires exact, bit-for-bit equal rows — the cache must
// never change an answer, so no float epsilon applies.
func identicalRows(t *testing.T, label string, want, got *engine.Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Columns, got.Columns) {
		t.Fatalf("%s: columns %v, want %v", label, got.Columns, want.Columns)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for c := range want.Rows[i] {
			if !value.Identical(want.Rows[i][c], got.Rows[i][c]) {
				t.Fatalf("%s: row %d col %d: %v differs from %v",
					label, i, c, got.Rows[i][c], want.Rows[i][c])
			}
		}
	}
}

// TestCacheMutationForcesMiss proves the version-vector invalidation at
// workload scale: a single insert into one referenced table makes the
// next run of every query over it re-execute against the fresh data.
func TestCacheMutationForcesMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	d := determinismWorkload(t)
	c := cache.New(cache.Options{MaxBytes: 256 << 20})
	eng := engine.NewWithOptions(d.Store, engine.Options{Parallelism: 2, Cache: c})
	const q = "select c_mktsegment, count(*) from customer group by c_mktsegment order by c_mktsegment"
	r1, err := eng.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Stats.Cached {
		t.Fatal("repeat over unmutated table should hit")
	}
	tb, ok := d.Store.Table("customer")
	if !ok {
		t.Fatal("workload should have customer")
	}
	row := append([][]value.Value{}, tb.Rows()...)[0]
	tb.MustInsert(row...)
	r3, err := eng.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Stats.Cached {
		t.Fatal("query after mutation must miss")
	}
	total := func(r *engine.Result) int64 {
		var n int64
		for _, row := range r.Rows {
			n += row[1].AsInt()
		}
		return n
	}
	if total(r3) != total(r1)+1 {
		t.Fatalf("post-mutation counts: %d, want %d", total(r3), total(r1)+1)
	}
}

// TestConcurrentCachedWorkloadExecutesOncePerQuery fans N goroutines
// over all thirteen pairs against one cached engine; the singleflight
// counter must show exactly one underlying execution per unique
// statement, and every goroutine must observe identical rows.
func TestConcurrentCachedWorkloadExecutesOncePerQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	d := determinismWorkload(t)
	pairs, err := bench.PreparePairs()
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(cache.Options{MaxBytes: 256 << 20})
	eng := engine.NewWithOptions(d.Store, engine.Options{Parallelism: 2, Cache: c})

	queries := make([]string, 0, 2*len(pairs))
	for _, p := range pairs {
		queries = append(queries, p.Original.SQL(), p.Rewritten.SQL())
	}
	const workers = 8
	results := make([][]*engine.Result, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			out := make([]*engine.Result, len(queries))
			for i, q := range queries {
				r, err := eng.QueryCtx(context.Background(), q)
				if err != nil {
					t.Errorf("worker %d query %d: %v", w, i, err)
					return
				}
				out[i] = r
			}
			results[w] = out
		}(w)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if s := c.Stats(); s.Executions != int64(len(queries)) {
		t.Fatalf("executions = %d, want exactly %d (one per unique query); stats: %+v",
			s.Executions, len(queries), s)
	}
	for w := 1; w < workers; w++ {
		for i := range queries {
			identicalRows(t, fmt.Sprintf("worker %d query %d", w, i), results[0][i], results[w][i])
		}
	}
}
