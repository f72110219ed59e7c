package engine

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"conquer/internal/cache"
	"conquer/internal/metrics"
	"conquer/internal/sqlparse"
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

func TestParallelismIsPartOfTheCacheKey(t *testing.T) {
	e, c := newCachedEngine(t, nil)
	const q = "select sum(balance) from customer"
	if _, err := e.QueryCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	// A second engine over the same store and cache, two workers.
	e2 := NewWithOptions(e.DB(), Options{Cache: c, Parallelism: 2})
	res, err := e2.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cached {
		t.Fatal("a different worker count must not reuse the serial result")
	}
	if s := c.Stats(); s.Executions != 2 {
		t.Fatalf("executions = %d, want 2 (one per parallelism)", s.Executions)
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
// text the parse tier hands back the statement with its printed form, so
// the hit allocates the key built on it, the version vector, the table
// list, the context and the Result it returns; from a statement it prints
// the statement once more: 6 and 7. Both were 52 when the key was printed
// node by node, report printed it again for a log nobody attached and the
// vector was a map, a sort and an Fprintf per table.
func TestResultHitAllocationFloor(t *testing.T) {
	// Explicit counts: AllocsPerRun measures at GOMAXPROCS 1, and a
	// default that follows it would change the key under the test.
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
	if fromText > 7 || fromStmt > 8 {
		t.Errorf("a hit allocates %.0f times from SQL text and %.0f from a statement, ceilings 7 and 8", fromText, fromStmt)
	}
}
