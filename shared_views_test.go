// Shard views belong to the tables (DESIGN.md §14): an engine holds no
// state, so the engine a clean answer builds for its one rewritten
// statement scans the partitions every earlier engine over the store
// scanned, and only a mutation of the table rebuilds them.
package conquer

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"conquer/internal/bench"
	"conquer/internal/engine"
	"conquer/internal/exec"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// defaultShards makes sure the shard count engine.New resolves to — one
// per CPU — is above one for the test, and returns it.
func defaultShards(t *testing.T) int {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		prev := runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	return runtime.GOMAXPROCS(0)
}

// pairNumber finds one of the thirteen evaluation pairs.
func pairNumber(t *testing.T, n int) bench.QueryPair {
	t.Helper()
	pairs, err := bench.PreparePairs()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p.Number == n {
			return p
		}
	}
	t.Fatalf("no pair Q%d", n)
	return bench.QueryPair{}
}

// partitions is the identity of the partition sets Q3's two big tables hold
// at n shards: a rebuild replaces a table's slice, a revalidation keeps it.
func partitions(t *testing.T, db *storage.DB, n int) map[string]**storage.Shard {
	t.Helper()
	out := map[string]**storage.Shard{}
	for _, name := range []string{"orders", "lineitem"} {
		tb, ok := db.Table(name)
		if !ok || tb.Len() <= exec.DefaultMorselSize || !tb.Schema.IsDirty() {
			t.Fatalf("%s should be a dirty table of more than one morsel", name)
		}
		out[name] = &tb.Sharded(n).Shards()[0]
	}
	return out
}

func TestCleanAnswersShareShardViews(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	n := defaultShards(t)
	d := determinismWorkload(t)
	q3 := pairNumber(t, 3)

	first, err := coreViaRewriting(d, q3.Original)
	if err != nil {
		t.Fatal(err)
	}
	built := partitions(t, d.Store, n)
	same := func(label string, want map[string]**storage.Shard) {
		t.Helper()
		for name, p := range partitions(t, d.Store, n) {
			if p != want[name] {
				t.Fatalf("%s: %s was partitioned again", label, name)
			}
		}
	}
	second, err := coreViaRewriting(d, q3.Original)
	if err != nil {
		t.Fatal(err)
	}
	same("second clean answer", built)
	if !first.Equal(second, 0) {
		t.Fatal("the two clean answers differ")
	}
	for i := 0; i < 2; i++ {
		if _, err := engine.New(d.Store).QueryStmt(q3.Rewritten); err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("engine.New #%d", i+1), built)
	}

	// One insert into orders: that table, and only that table, is
	// partitioned again — once, however many engines follow.
	orders, _ := d.Store.Table("orders")
	if err := orders.Insert(append([]value.Value(nil), orders.Row(0)...)); err != nil {
		t.Fatal(err)
	}
	if _, err := coreViaRewriting(d, q3.Original); err != nil {
		t.Fatal(err)
	}
	rebuilt := partitions(t, d.Store, n)
	if rebuilt["orders"] == built["orders"] {
		t.Fatal("an insert into orders must rebuild its partitions")
	}
	if rebuilt["lineitem"] != built["lineitem"] {
		t.Fatal("an insert into orders rebuilt another table's partitions")
	}
	for i := 0; i < 2; i++ {
		if _, err := coreViaRewriting(d, q3.Original); err != nil {
			t.Fatal(err)
		}
		same("after the insert", rebuilt)
	}
}

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1), under
// which engine.New plans no sharded scan at all.
func mallocsPerRun(t *testing.T, runs int, f func() error) float64 {
	t.Helper()
	if err := f(); err != nil { // warm up
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestCleanAnswerAllocatesLikeAKeptEngine bounds what a clean answer
// pays outside the operators: an evaluator's rewriting rung — rewrite, the
// rung's engine, the rewritten statement, the answer set — against the same
// rewritten statement on an engine that is kept. It was 3.9x while each
// fresh engine partitioned every table again.
func TestCleanAnswerAllocatesLikeAKeptEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	defaultShards(t)
	d := determinismWorkload(t)
	q3 := pairNumber(t, 3)
	ctx := context.Background()
	kept := engine.New(d.Store)
	statement := mallocsPerRun(t, 5, func() error {
		_, err := kept.QueryStmtCtx(ctx, q3.Rewritten)
		return err
	})
	clean := mallocsPerRun(t, 5, func() error {
		_, err := coreViaRewriting(d, q3.Original)
		return err
	})
	t.Logf("Q3: %.0f allocs per clean answer, %.0f per rewritten statement on a kept engine (%.2fx)",
		clean, statement, clean/statement)
	if clean > 1.5*statement {
		t.Fatalf("a clean answer allocates %.0f, more than 1.5x the rewritten statement's %.0f", clean, statement)
	}
}

// TestRewrittenStatementAllocatesLikeItsOriginal is the paper's Figure 8
// claim as a count: on each of the twelve short pairs the rewritten
// statement allocates within a small multiple of its original. The
// rewriting groups the original's join output by the root identifier, so a
// hash table that allocated per key or per group made Q1's rewriting
// allocate 44x its original on the benchmark's instance.
func TestRewrittenStatementAllocatesLikeItsOriginal(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	// The measured worst on this instance is 1.13x (Q4), at GOMAXPROCS
	// 1, 2 and 4; Q1 was 46x while the tables allocated per key.
	const bound = 2.0
	d := determinismWorkload(t)
	pairs, err := bench.PreparePairs()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.NewWithOptions(d.Store, engine.Options{Parallelism: 2, Shards: 2})
	ctx := context.Background()
	run := func(stmt *sqlparse.SelectStmt) func() error {
		return func() error {
			_, err := eng.QueryStmtCtx(ctx, stmt)
			return err
		}
	}
	for _, p := range pairs {
		if p.Number == 9 {
			continue // fig8_q9, a pair of its own
		}
		orig, rw := mallocsPerRun(t, 3, run(p.Original)), mallocsPerRun(t, 3, run(p.Rewritten))
		t.Logf("Q%d: %.0f allocs for the rewriting, %.0f for the original (%.2fx)", p.Number, rw, orig, rw/orig)
		if rw > bound*orig {
			t.Errorf("Q%d: the rewriting allocates %.0f, more than %.0fx the original's %.0f", p.Number, rw, bound, orig)
		}
	}
}

// TestEnginesShareViewsBesideAnInserter runs readers that each build
// their own engine per query — plain, sharded and through the rewriting —
// over one store while an inserter grows the scanned table. The store's
// contract is the usual one (mutations exclude reads; the readers run
// concurrently with each other), so after every insert several engines
// find the table's view stale at once and exactly one rebuilds it. Every
// answer must count exactly the rows inserted so far; run under -race.
func TestEnginesShareViewsBesideAnInserter(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	defaultShards(t)
	d := determinismWorkload(t)
	orders, _ := d.Store.Table("orders")
	base := orders.Len()
	const (
		readers = 4
		inserts = 12
	)
	q3 := pairNumber(t, 3)
	var (
		store    sync.RWMutex // guards the store's tables, and inserted
		inserted int
		queries  atomic.Int64
		wg       sync.WaitGroup
	)
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				store.RLock()
				want := int64(base + inserted)
				eng := engine.NewWithOptions(d.Store, engine.Options{Parallelism: 2, Shards: 2 + r%2})
				res, err := eng.Query("select count(*) from orders o where o.o_totalprice >= 0")
				if err == nil && i%readers == r {
					_, err = coreViaRewriting(d, q3.Original)
				}
				store.RUnlock()
				queries.Add(1)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if got := res.Rows[0][0].AsInt(); got != want {
					t.Errorf("reader %d counted %d orders, want %d: a stale view was scanned", r, got, want)
					return
				}
			}
		}()
	}
	// A round of queries between one insert and the next, and after the last.
	awaitRound := func(round int) {
		for queries.Load() < int64(round*readers) && !t.Failed() {
			time.Sleep(100 * time.Microsecond)
		}
	}
	for i := 0; i < inserts; i++ {
		awaitRound(i + 1)
		store.Lock()
		err := orders.Insert(append([]value.Value(nil), orders.Row(i)...))
		inserted++
		store.Unlock()
		if err != nil {
			t.Error(err)
			break
		}
	}
	awaitRound(inserts + 2)
	close(done)
	wg.Wait()
}
