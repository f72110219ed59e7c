package engine

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"conquer/internal/cache"
	"conquer/internal/exec"
	"conquer/internal/metrics"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

func newCachedEngine(t testing.TB, log *metrics.QueryLog) (*Engine, *cache.Cache) {
	t.Helper()
	c := cache.New(cache.Options{MaxBytes: 1 << 20})
	e := NewWithOptions(figure2DB(t), Options{Cache: c, Parallelism: 1, QueryLog: log})
	return e, c
}

func TestCachedQueryReturnsIdenticalRows(t *testing.T) {
	e, c := newCachedEngine(t, nil)
	const q = "select id, sum(prob) from customer where balance > 10000 group by id"
	cold, err := e.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Cached {
		t.Fatal("first execution must not be a cache hit")
	}
	warm, err := e.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.Cached {
		t.Fatal("second execution should be served from cache")
	}
	if !reflect.DeepEqual(cold.Rows, warm.Rows) || !reflect.DeepEqual(cold.Columns, warm.Columns) {
		t.Fatalf("cached rows differ:\ncold %v\nwarm %v", cold.Rows, warm.Rows)
	}
	if warm.Stats.Rows != len(warm.Rows) {
		t.Fatalf("cached Stats.Rows = %d, want %d", warm.Stats.Rows, len(warm.Rows))
	}
	if s := c.Stats(); s.ResultHits != 1 || s.Executions != 1 {
		t.Fatalf("cache stats: %+v", s)
	}
}

func TestMutationInvalidatesCachedResult(t *testing.T) {
	e, _ := newCachedEngine(t, nil)
	const q = "select count(*) from customer"
	r1, err := e.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows[0][0].AsInt() != 4 {
		t.Fatalf("count = %v", r1.Rows[0][0])
	}
	// Mutate the table: the version vector moves, so the cached entry is
	// stale and the next query must re-execute against fresh data.
	tb, _ := e.db.Table("customer")
	tb.MustInsert(value.Str("c3"), value.Str("m5"), value.Str("Ann"), value.Float(100), value.Float(1))
	r2, err := e.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.Cached {
		t.Fatal("query after mutation must not be served from cache")
	}
	if r2.Rows[0][0].AsInt() != 5 {
		t.Fatalf("count after insert = %v, want 5", r2.Rows[0][0])
	}
}

func TestVariantSpellingsShareOneCacheEntry(t *testing.T) {
	e, c := newCachedEngine(t, nil)
	if _, err := e.QueryCtx(context.Background(), "select id from customer where balance > 10000"); err != nil {
		t.Fatal(err)
	}
	res, err := e.QueryCtx(context.Background(), "SELECT  ID   FROM Customer  WHERE Balance > 10000")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Cached {
		t.Fatal("case/whitespace variant should hit the canonical entry")
	}
	if s := c.Stats(); s.Executions != 1 {
		t.Fatalf("executions = %d, want 1 shared execution", s.Executions)
	}
}

// No engine setting is in the result key: engines at parallelism 1 and 8
// over one cache share one entry, whose rows are the same at both, and a
// hit reports the worker count of the engine it serves.
func TestEnginesAtEveryParallelismShareOneEntry(t *testing.T) {
	e, c := newCachedEngine(t, nil)
	const q = "select id, sum(balance), avg(prob) from customer group by id"
	first, err := e.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	e8 := NewWithOptions(e.DB(), Options{Cache: c, Parallelism: 8})
	hit, err := e8.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Cached || !hit.Stats.Cached || !reflect.DeepEqual(first.Rows, hit.Rows) {
		t.Fatalf("cached %v then %v, rows %v then %v: want one execution, then a hit on its entry",
			first.Stats.Cached, hit.Stats.Cached, first.Rows, hit.Rows)
	}
	if first.Stats.Parallelism != 1 || hit.Stats.Parallelism != 8 {
		t.Errorf("parallelism %d, then %d on the hit: want each engine's own, 1 and 8",
			first.Stats.Parallelism, hit.Stats.Parallelism)
	}
	if s := c.Stats(); s.Executions != 1 || s.ResultHits != 1 {
		t.Errorf("cache stats %+v: want 1 execution and 1 result hit", s)
	}
}

// One planned tree serves every worker count: the worker count arrives
// with each run, so engines at 8, 1, 1, 8 and 8 workers over one cache run
// the tree the first planned, and every lookup after the first is a plan
// hit that the engine uses. A one-byte cache admits no result, so every
// query runs the plan, and the runs of one Prepared share its column names.
// The tree splits on the run's workers, not on its planner's: over three
// morsels, a run at 1 after a run at 8 claims no morsel, and a run at 8
// after a run at 1 claims morsels on several workers.
func TestOnePlanServesEveryWorkerCount(t *testing.T) {
	c := cache.New(cache.Options{MaxBytes: 1})
	db := storage.NewDB()
	intTable(t, db, "t1", 3*exec.DefaultMorselSize)
	e1 := NewWithOptions(db, Options{Cache: c, Parallelism: 1})
	e8 := NewWithOptions(db, Options{Cache: c, Parallelism: 8})
	const q = "select x.a from t1 x, t1 y where x.a = y.a"
	var runs []*Result
	var tree exec.Operator
	for i, step := range []struct {
		e   *Engine
		par int
	}{{e8, 8}, {e1, 1}, {e1, 1}, {e8, 8}, {e8, 8}} {
		res, err := step.e.QueryCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Cached || res.Stats.Parallelism != step.par || len(res.Rows) != 3*exec.DefaultMorselSize {
			t.Fatalf("step %d: cached %v, parallelism %d, %d rows; want an execution on %d workers",
				i, res.Stats.Cached, res.Stats.Parallelism, len(res.Rows), step.par)
		}
		if i > 0 && !reflect.DeepEqual(res.Rows, runs[0].Rows) {
			t.Fatalf("step %d: rows differ from step 0's", i)
		}
		if i > 0 && &res.Columns[0] != &runs[0].Columns[0] {
			t.Fatalf("step %d runs a tree of its own, not step 0's", i)
		}
		runs = append(runs, res)
		if i == 0 {
			// The test's own lookup of the tree, not counted below.
			norm := sqlparse.MustParse(q).SQL()
			vv, _ := cache.VersionVector(db, []string{"t1"})
			v, ok := c.GetPlan(norm, vv)
			if !ok {
				t.Fatal("step 0 cached no plan")
			}
			tree = v.(*Prepared).tree
			continue
		}
		out := exec.ExplainAnalyze(tree)
		split := strings.Contains(out, "morsels=[w0:") && strings.Contains(out, " w1:")
		switch {
		case i == 1 && (split || strings.Contains(out, "morsels=[") || !strings.Contains(out, "Gather[n=1]")):
			t.Errorf("step 1 runs the tree last run at 8 on one worker, claiming no morsel:\n%s", out)
		case i == 3 && (!split || !strings.Contains(out, "Gather[n=8]")):
			t.Errorf("step 3 runs the tree last run at 1 on 8 workers, claiming morsels on several:\n%s", out)
		}
	}
	if s := c.Stats(); s.PlanMisses != 1 || s.PlanHits-1 != 4 || s.Plans != 1 {
		t.Errorf("cache stats %+v: want 1 plan miss, 4 plan hits besides the test's own lookup, and 1 plan", s)
	}
}

func TestQueryLogRecordsCachedFlag(t *testing.T) {
	var buf strings.Builder
	log := metrics.NewQueryLog(&buf)
	e, _ := newCachedEngine(t, log)
	const q = "select id from customer"
	if _, err := e.QueryCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2:\n%s", len(lines), buf.String())
	}
	var cold, warm metrics.QueryRecord
	if err := json.Unmarshal([]byte(lines[0]), &cold); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &warm); err != nil {
		t.Fatal(err)
	}
	if cold.Cached || !warm.Cached {
		t.Fatalf("cached flags: cold=%v warm=%v", cold.Cached, warm.Cached)
	}
	// A hit still records the row count so log consumers see real
	// throughput, not zeros.
	if warm.Rows != cold.Rows || warm.Rows == 0 {
		t.Fatalf("cached record rows = %d, want %d", warm.Rows, cold.Rows)
	}
	if cold.SQLHash != warm.SQLHash {
		t.Fatal("hit and miss of one query must share a sql_hash")
	}
}

func TestConcurrentIdenticalQueriesExecuteOnce(t *testing.T) {
	e, c := newCachedEngine(t, nil)
	const q = "select o.id, c.id from orders o, customer c where o.cidfk = c.id"
	const workers = 16
	results := make([]*Result, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			r, err := e.QueryCtx(context.Background(), q)
			if err != nil {
				t.Error(err)
				return
			}
			results[w] = r
		}(w)
	}
	close(start)
	wg.Wait()
	if s := c.Stats(); s.Executions != 1 {
		t.Fatalf("executions = %d, want exactly 1 across %d workers", s.Executions, workers)
	}
	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(results[0].Rows, results[w].Rows) {
			t.Fatalf("worker %d rows differ", w)
		}
	}
}

func TestPlanTierServesRepeatsWhenResultsDoNotFit(t *testing.T) {
	// A byte budget too small for any result: every query re-executes,
	// but the prepared operator tree is reused as long as the version
	// vector holds.
	c := cache.New(cache.Options{MaxBytes: 1})
	e := NewWithOptions(figure2DB(t), Options{Cache: c, Parallelism: 1})
	const q = "select count(*) from customer"
	r1, err := e.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.Cached {
		t.Fatal("result should not fit the 1-byte budget")
	}
	if !reflect.DeepEqual(r1.Rows, r2.Rows) {
		t.Fatalf("plan reuse changed the answer: %v vs %v", r1.Rows, r2.Rows)
	}
	s := c.Stats()
	if s.PlanHits < 1 {
		t.Fatalf("plan hits = %d, want at least 1 (stats: %+v)", s.PlanHits, s)
	}
	if s.Executions != 2 {
		t.Fatalf("executions = %d, want 2 (results never admitted)", s.Executions)
	}
	// A mutation invalidates the prepared plan as well — index presence
	// changes planning, so plans refresh on any version bump.
	tb, _ := e.db.Table("customer")
	tb.MustInsert(value.Str("c9"), value.Str("m9"), value.Str("Zoe"), value.Float(1), value.Float(1))
	r3, err := e.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Rows[0][0].AsInt() != 5 {
		t.Fatalf("count after insert = %v, want 5", r3.Rows[0][0])
	}
}

// Shards is inert: two engines at parallelism 2 over one cache that
// differ only in it share one result-tier entry.
func TestEnginesDifferingInShardsShareOneEntry(t *testing.T) {
	c := cache.New(cache.Options{MaxBytes: 1 << 20})
	db := figure2DB(t)
	const q = "select id, name from customer where balance > 10000"
	ctx := context.Background()
	first, err := NewWithOptions(db, Options{Cache: c, Parallelism: 2, Shards: 1}).QueryCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewWithOptions(db, Options{Cache: c, Parallelism: 2, Shards: 4}).QueryCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Cached || !second.Stats.Cached || !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Fatalf("cached %v then %v, rows %v then %v: want one execution, then a hit on its entry",
			first.Stats.Cached, second.Stats.Cached, first.Rows, second.Rows)
	}
	if s := c.Stats(); s.Executions != 1 || s.ResultHits != 1 {
		t.Errorf("cache stats %+v: want 1 execution and 1 result hit", s)
	}
}

func TestUncachedEngineUnchanged(t *testing.T) {
	e := NewWithOptions(figure2DB(t), Options{Parallelism: 1})
	if o := e.Options(); o.Cache != nil || o.Parallelism != 1 {
		t.Fatalf("options %+v: want no cache and the parallelism asked for", o)
	}
	res, err := e.QueryCtx(context.Background(), "select id from customer")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cached {
		t.Fatal("uncached engine must never report Cached")
	}
}

// A result-tier hit costs a lookup, not a walk of the statement: from SQL
// text the parse tier hands back the statement with its printed form,
// which is the key itself, so the hit allocates the version vector, the
// table list and the Result it returns; from a statement it prints the
// statement once more: 3 and 4. They were 4 and 5 while the key was the
// printed form with the worker count appended, 6 and 7 while every query
// derived a cancelable context it did not need, and both were 52 when the
// key was printed node by node, report printed it again for a log nobody
// attached and the vector was a map, a sort and an Fprintf per table.
func TestResultHitAllocationFloor(t *testing.T) {
	c := cache.New(cache.Options{MaxBytes: 1 << 20})
	e := NewWithOptions(figure2DB(t), Options{Cache: c, Parallelism: 1})
	const q = "select o.orderid, c.name from orders o, customer c where o.cidfk = c.id and c.balance > 10000 and o.quantity < 5"
	ctx := context.Background()
	if _, err := e.QueryCtx(ctx, q); err != nil {
		t.Fatal(err)
	}
	hit := func(run func() (*Result, error)) float64 {
		return testing.AllocsPerRun(50, func() {
			if res, err := run(); err != nil || !res.Stats.Cached {
				t.Fatalf("not a hit: %v, %v", res, err)
			}
		})
	}
	fromText := hit(func() (*Result, error) { return e.QueryCtx(ctx, q) })
	stmt, _, _ := c.GetParse(q)
	fromStmt := hit(func() (*Result, error) { return e.QueryStmtCtx(ctx, stmt.(*sqlparse.SelectStmt)) })
	t.Logf("a hit allocates %.0f times from SQL text, %.0f from a statement", fromText, fromStmt)
	if fromText > 3 || fromStmt > 4 {
		t.Errorf("a hit allocates %.0f times from SQL text and %.0f from a statement, ceilings 3 and 4", fromText, fromStmt)
	}
}
