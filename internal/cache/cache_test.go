package cache

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"conquer/internal/schema"
	"conquer/internal/storage"
	"conquer/internal/value"
)

func newTestCache(maxBytes int64) *Cache {
	return New(Options{MaxBytes: maxBytes})
}

// getResult and putResult reach the result tier under the cache's lock,
// as Do does: a lookup, and an admission under the byte budget.
func getResult(c *Cache, key, vv string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.results.get(key, vv)
}

func putResult(c *Cache, key, vv string, val any, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results.put(key, vv, val, bytes)
}

func TestResultTierHitMissAndVersionInvalidation(t *testing.T) {
	c := newTestCache(1 << 20)
	if _, ok := getResult(c, "q1", "t=0"); ok {
		t.Fatal("empty cache should miss")
	}
	putResult(c, "q1", "t=0", "res0", 100)
	if v, ok := getResult(c, "q1", "t=0"); !ok || v.(string) != "res0" {
		t.Fatalf("hit = %v %v", v, ok)
	}
	// A changed version vector is a miss, and drops the stale entry.
	if _, ok := getResult(c, "q1", "t=1"); ok {
		t.Fatal("stale vector must miss")
	}
	if s := c.Stats(); s.Invalidations != 1 || s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("stats after invalidation: %+v", s)
	}
	putResult(c, "q1", "t=1", "res1", 100)
	if v, ok := getResult(c, "q1", "t=1"); !ok || v.(string) != "res1" {
		t.Fatalf("fresh entry should hit: %v %v", v, ok)
	}
}

func TestResultTierByteBudgetLRUEviction(t *testing.T) {
	c := newTestCache(250)
	putResult(c, "a", "v", "A", 100)
	putResult(c, "b", "v", "B", 100)
	if _, ok := getResult(c, "a", "v"); !ok { // touch a: b becomes LRU
		t.Fatal("a should be cached")
	}
	putResult(c, "c", "v", "C", 100) // 300 > 250: evicts b
	if _, ok := getResult(c, "b", "v"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if _, ok := getResult(c, "a", "v"); !ok {
		t.Fatal("a (recently used) should survive")
	}
	if _, ok := getResult(c, "c", "v"); !ok {
		t.Fatal("c (newcomer) should be cached")
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	if s.Bytes != 200 || s.Entries != 2 {
		t.Fatalf("bytes=%d entries=%d, want 200/2", s.Bytes, s.Entries)
	}
	// An entry larger than the whole budget is not admitted, and evicts
	// nothing looking for room.
	putResult(c, "huge", "v", "X", 1000)
	if _, ok := getResult(c, "huge", "v"); ok {
		t.Fatal("oversized entry must not be cached")
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("after an oversized put: evictions=%d entries=%d, want 1/2", s.Evictions, s.Entries)
	}
}

// The plan tier is bounded by entry count and keeps a plan until it is
// evicted or dropped: no version vector is asked of it.
func TestPlanTierCap(t *testing.T) {
	c := New(Options{})
	c.PutPlan("p1", "plan1")
	if v, ok := c.GetPlan("p1"); !ok || v.(string) != "plan1" {
		t.Fatalf("plan hit = %v %v", v, ok)
	}
	for i := 2; i <= DefaultMaxPlans+1; i++ { // one past the cap: p1 is LRU, evicted
		c.PutPlan(fmt.Sprintf("p%d", i), "plan")
	}
	if _, ok := c.GetPlan("p1"); ok {
		t.Fatal("plan tier should cap at DefaultMaxPlans")
	}
	if _, ok := c.GetPlan("p2"); !ok {
		t.Fatal("the plans within the cap should be present")
	}
	newest := fmt.Sprintf("p%d", DefaultMaxPlans+1)
	if _, ok := c.GetPlan(newest); !ok {
		t.Fatal("newest plan should be present")
	}
	c.DropPlan(newest)
	if _, ok := c.GetPlan(newest); ok {
		t.Fatal("DropPlan should remove the entry")
	}
	if s := c.Stats(); s.Plans != DefaultMaxPlans-1 || s.Evictions != 0 || s.Invalidations != 0 {
		t.Fatalf("stats %+v: want %d plans, and no result-tier eviction or invalidation", s, DefaultMaxPlans-1)
	}
}

func TestParseTier(t *testing.T) {
	c := New(Options{})
	c.PutParse("select  1", "stmt")
	if v, ok := c.GetParse("select  1"); !ok || v.(string) != "stmt" {
		t.Fatalf("parse hit = %v %v", v, ok)
	}
	for i := 2; i <= DefaultMaxParses+1; i++ { // one past the cap: q1 is LRU, evicted
		c.PutParse(fmt.Sprintf("q%d", i), "s")
	}
	if _, ok := c.GetParse("q2"); !ok {
		t.Fatal("q2 should survive (q1 was LRU)")
	}
	if _, ok := c.GetParse("select  1"); ok {
		t.Fatal("parse tier should cap at DefaultMaxParses")
	}
	if s := c.Stats(); s.Parses != DefaultMaxParses {
		t.Fatalf("%d parses, want %d", s.Parses, DefaultMaxParses)
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	c := newTestCache(1 << 20)
	const workers = 16
	var execs atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	vals := make([]any, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			v, _, err := c.Do(context.Background(), "q", "t=0", func() (any, int64, error) {
				execs.Add(1)
				return "the result", 10, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[w] = v
		}(w)
	}
	close(start)
	wg.Wait()
	if n := execs.Load(); n != 1 {
		t.Fatalf("%d executions, want exactly 1", n)
	}
	for w, v := range vals {
		if v.(string) != "the result" {
			t.Fatalf("worker %d got %v", w, v)
		}
	}
	s := c.Stats()
	if s.Executions != 1 {
		t.Fatalf("stats executions = %d, want 1", s.Executions)
	}
	if s.Coalesced+s.ResultHits != workers-1 {
		t.Fatalf("coalesced=%d hits=%d, want %d shared callers", s.Coalesced, s.ResultHits, workers-1)
	}
}

func TestSingleflightDistinctVersionsDoNotCoalesce(t *testing.T) {
	c := newTestCache(1 << 20)
	block := make(chan struct{})
	go func() {
		_, _, _ = c.Do(context.Background(), "q", "t=0", func() (any, int64, error) {
			<-block
			return "old", 10, nil
		})
	}()
	// Wait for the first flight to be registered.
	for {
		c.mu.Lock()
		n := len(c.flights)
		c.mu.Unlock()
		if n == 1 {
			break
		}
	}
	// A query over a newer version must not wait on the old flight.
	v, _, err := c.Do(context.Background(), "q", "t=1", func() (any, int64, error) {
		return "new", 10, nil
	})
	close(block)
	if err != nil || v.(string) != "new" {
		t.Fatalf("got %v %v", v, err)
	}
}

func TestSingleflightLeaderErrorNotCachedNotShared(t *testing.T) {
	c := newTestCache(1 << 20)
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.Do(context.Background(), "q", "t=0", func() (any, int64, error) {
		calls++
		return nil, 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want leader error, got %v", err)
	}
	// The failure must not be cached: the next call re-executes.
	v, cached, err := c.Do(context.Background(), "q", "t=0", func() (any, int64, error) {
		calls++
		return "ok", 10, nil
	})
	if err != nil || cached || v.(string) != "ok" {
		t.Fatalf("retry: %v %v %v", v, cached, err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestSingleflightFollowerCancellation(t *testing.T) {
	c := newTestCache(1 << 20)
	block := make(chan struct{})
	go func() {
		_, _, _ = c.Do(context.Background(), "q", "t=0", func() (any, int64, error) {
			<-block
			return "late", 10, nil
		})
	}()
	for {
		c.mu.Lock()
		n := len(c.flights)
		c.mu.Unlock()
		if n == 1 {
			break
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(ctx, "q", "t=0", func() (any, int64, error) {
		t.Error("canceled follower must not execute")
		return nil, 0, nil
	})
	close(block)
	if err == nil {
		t.Fatal("canceled follower should return its context error")
	}
}

func TestClearDropsEntriesKeepsStats(t *testing.T) {
	c := newTestCache(1 << 20)
	putResult(c, "q", "v", "r", 100)
	c.PutPlan("q", "p")
	c.PutParse("q", "s")
	getResult(c, "q", "v")
	c.Clear()
	s := c.Stats()
	if s.Entries != 0 || s.Plans != 0 || s.Parses != 0 || s.Bytes != 0 {
		t.Fatalf("clear left entries: %+v", s)
	}
	if s.ResultHits != 1 {
		t.Fatal("clear should preserve cumulative stats")
	}
	if _, ok := getResult(c, "q", "v"); ok {
		t.Fatal("cleared entry should miss")
	}
}

func TestVersionVector(t *testing.T) {
	db := storage.NewDB()
	rel := schema.MustRelation("r", schema.Column{Name: "a", Type: value.KindInt})
	tb := db.MustCreateTable(rel)
	s2 := schema.MustRelation("s", schema.Column{Name: "b", Type: value.KindInt})
	db.MustCreateTable(s2)

	vv1, ok := VersionVector(db, []string{"S", "r", "s"}) // dedup + case fold + sort
	if !ok || vv1 != "r=0;s=0" {
		t.Fatalf("vv = %q ok=%v", vv1, ok)
	}
	tb.MustInsert(value.Int(1))
	vv2, ok := VersionVector(db, []string{"r", "s"})
	if !ok || vv2 != "r=1;s=0" {
		t.Fatalf("vv after insert = %q ok=%v", vv2, ok)
	}
	if vv1 == vv2 {
		t.Fatal("mutation must change the vector")
	}
	if _, ok := VersionVector(db, []string{"r", "nosuch"}); ok {
		t.Fatal("unknown table must report !ok")
	}
}

func TestSizeOfRows(t *testing.T) {
	rows := [][]value.Value{
		{value.Int(1), value.Str("hello")},
		{value.Int(2), value.Str("x")},
	}
	n := SizeOfRows([]string{"a", "b"}, rows)
	// 64 for the result, 1+16 per column name, and per row the slice header
	// and the value.Size bytes a value.Value occupies, plus the string bytes.
	if want := 64 + 2*17 + 2*(24+2*value.Size) + 5 + 1; n != want {
		t.Fatalf("size = %d, want %d (value.Size = %d)", n, want, value.Size)
	}
	// More payload means a bigger estimate.
	bigger := SizeOfRows([]string{"a", "b"}, append(rows, []value.Value{value.Int(3), value.Str("yyyyyyyy")}))
	if bigger <= n {
		t.Fatalf("size should grow with rows: %d vs %d", bigger, n)
	}
}

func TestStatsString(t *testing.T) {
	c := newTestCache(1000)
	putResult(c, "q", "v", "r", 10)
	out := c.Stats().String()
	for _, want := range []string{"result tier", "plan tier", "parse tier", "singleflight"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentMixedOperations(t *testing.T) {
	c := newTestCache(10_000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("q%d", i%10)
				vv := fmt.Sprintf("t=%d", i%3)
				switch i % 4 {
				case 0:
					putResult(c, key, vv, i, 50)
				case 1:
					getResult(c, key, vv)
				case 2:
					_, _, _ = c.Do(context.Background(), key, vv, func() (any, int64, error) {
						return i, 50, nil
					})
				case 3:
					c.PutPlan(key, i)
					c.GetPlan(key)
					c.PutParse(vv, i)
					c.GetParse(vv)
				}
			}
		}(w)
	}
	wg.Wait()
}
