package conquer

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestEnableCacheMemoizesEval(t *testing.T) {
	db := paperDB(t).EnableCache(1 << 20)
	const q = "select id from customer where balance > 10000"
	cold, err := db.Eval(context.Background(), q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("first Eval must compute")
	}
	warm, err := db.Eval(context.Background(), q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("repeat Eval should be cached")
	}
	if warm.Method != cold.Method || !reflect.DeepEqual(warm.Answers, cold.Answers) {
		t.Fatalf("cached answers differ:\ncold %+v\nwarm %+v", cold.Answers, warm.Answers)
	}
	// A clean answer is cached for the relations its statement names
	// (DESIGN.md §11): one more order changes nothing a query over
	// customer reads, so the entry stays a hit — and the right answer.
	plain := paperDB(t) // the same rows with no cache
	db.MustInsert("orders", "14", "c2", 1, "o3", 1.0)
	plain.MustInsert("orders", "14", "c2", 1, "o3", 1.0)
	still, err := db.Eval(context.Background(), q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := plain.Eval(context.Background(), q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !still.Cached || !reflect.DeepEqual(still.Answers, uncached.Answers) {
		t.Fatalf("after an insert into orders: cached %v, answers %+v, want a hit equal to %+v", still.Cached, still.Answers, uncached.Answers)
	}
	// One more customer is a mutation of a FROM relation: recompute.
	db.MustInsert("customer", "m5", "Ann", 50000.0, "c3", 1.0)
	fresh, err := db.Eval(context.Background(), q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached || len(fresh.Answers) != len(cold.Answers)+1 {
		t.Fatalf("after an insert into customer: cached %v, %d answers; want a recomputation with %d", fresh.Cached, len(fresh.Answers), len(cold.Answers)+1)
	}
}

func TestEnableCacheMemoizesQueryCtx(t *testing.T) {
	db := paperDB(t).EnableCache(1 << 20)
	const q = "select custid, balance from customer where balance > 10000"
	r1, err := db.QueryCtx(context.Background(), q, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db.QueryCtx(context.Background(), q, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("cached rows differ: %v vs %v", r1, r2)
	}
	stats := db.CacheStats()
	if !strings.Contains(stats, "result tier") {
		t.Fatalf("CacheStats output: %q", stats)
	}
	// Disabling drops the cache.
	db.EnableCache(0)
	if db.CacheStats() != "" {
		t.Fatal("EnableCache(0) should turn stats off")
	}
}

// TestCleanAnswersHitBesideAnInserterElsewhere runs readers asking for
// clean answers over customer, cached and uncached, on the exact rung and
// on the Monte-Carlo one, while an inserter grows orders — with no lock
// between them, which is the point: a statement over customer reads no
// byte of orders on any rung (DESIGN.md §11), so under -race there is
// nothing to report, every answer is the one computed before the first
// insert, and neither cache entry is ever invalidated. (Readers of a
// relation still exclude its own writers, as everywhere in the store.)
func TestCleanAnswersHitBesideAnInserterElsewhere(t *testing.T) {
	db := paperDB(t).EnableCache(1 << 20)
	queries := []struct {
		sql  string
		opts EvalOptions
		want *CleanResult
	}{
		{sql: "select id from customer where balance > 10000"},
		{sql: "select name from customer where balance > 10000", opts: EvalOptions{Limits: Limits{MaxCandidates: 2}, Samples: 200, Seed: 5}},
	}
	ctx := context.Background()
	for i := range queries {
		q := &queries[i]
		var err error
		if q.want, err = db.Eval(ctx, q.sql, q.opts); err != nil {
			t.Fatal(err)
		}
	}
	if queries[0].want.Method != "exact" || queries[1].want.Method != "monte-carlo" {
		t.Fatalf("rungs: %s and %s, want exact and monte-carlo", queries[0].want.Method, queries[1].want.Method)
	}

	const readers, rounds, inserts = 4, 40, 60
	uncached := &Database{d: db.d} // the same store, no cache
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				q := queries[(r+i)%len(queries)]
				got, err := db.Eval(ctx, q.sql, q.opts)
				if err != nil || !got.Cached || !reflect.DeepEqual(got.Answers, q.want.Answers) {
					t.Errorf("reader %d: cached %v, answers %+v, error %v; want a hit equal to %+v", r, got != nil && got.Cached, got, err, q.want.Answers)
					return
				}
				fresh, err := uncached.Eval(ctx, q.sql, q.opts)
				if err != nil || fresh.Cached || !reflect.DeepEqual(fresh.Answers, q.want.Answers) {
					t.Errorf("reader %d: uncached answers %+v, error %v; want %+v", r, fresh, err, q.want.Answers)
					return
				}
			}
		}(r)
	}
	for i := 0; i < inserts; i++ {
		// Alternately a new cluster and one more tuple of cluster o2.
		id := "o2"
		if i%2 == 0 {
			id = fmt.Sprintf("n%d", i)
		}
		if err := db.Insert("orders", fmt.Sprint(100+i), "c1", 1, id, 0.0); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if s := db.cache.Stats(); s.Invalidations != 0 || s.Executions != int64(len(queries)) {
		t.Errorf("%d invalidations and %d executions beside %d inserts into orders; want 0 and %d", s.Invalidations, s.Executions, inserts, len(queries))
	}
}

// CleanAnswersAugmented is Eval with method "rewrite" on the augmented
// statement, so EnableCache serves its repeats too.
func TestEnableCacheMemoizesCleanAnswersAugmented(t *testing.T) {
	db := paperDB(t).EnableCache(1 << 20)
	const q = "select c.id from orders o, customer c where o.quantity < 5 and o.cidfk = c.id and c.balance > 25000"
	cold, augmented, err := db.CleanAnswersAugmented(q)
	if err != nil || !augmented || cold.Cached {
		t.Fatalf("first call: augmented %v, cached %v, error %v; want an augmented computation", augmented, cold != nil && cold.Cached, err)
	}
	warm, augmented, err := db.CleanAnswersAugmented(q)
	if err != nil || !augmented || !warm.Cached || !reflect.DeepEqual(warm.Answers, cold.Answers) {
		t.Fatalf("repeat: augmented %v, cached %v, answers %+v, error %v; want a hit equal to %+v",
			augmented, warm != nil && warm.Cached, warm, err, cold.Answers)
	}
}
