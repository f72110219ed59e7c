package core

import (
	"context"
	"reflect"
	"testing"

	"conquer/internal/cache"
	"conquer/internal/engine"
	"conquer/internal/exec"
	"conquer/internal/sqlparse"
	"conquer/internal/testdb"
	"conquer/internal/value"
)

func TestEvalCachesWholeLadderResult(t *testing.T) {
	d := testdb.Figure2()
	c := cache.New(cache.Options{MaxBytes: 1 << 20})
	q := sqlparse.MustParse("select id from customer where balance > 10000")
	opts := EvalOptions{Cache: c}

	cold, err := Eval(context.Background(), d, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("first evaluation must compute")
	}
	warm, err := Eval(context.Background(), d, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("repeat evaluation should be served from cache")
	}
	if warm.Method != cold.Method || !reflect.DeepEqual(warm.Answers, cold.Answers) {
		t.Fatalf("cached result differs:\ncold %+v\nwarm %+v", cold, warm)
	}
	if s := c.Stats(); s.Executions != 1 || s.ResultHits != 1 {
		t.Fatalf("cache stats: %+v", s)
	}
}

func TestEvalCacheKeyedByOptions(t *testing.T) {
	d := testdb.Figure2()
	c := cache.New(cache.Options{MaxBytes: 1 << 20})
	q := sqlparse.MustParse("select id from customer where balance > 10000")

	if _, err := Eval(context.Background(), d, q, EvalOptions{Cache: c, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	// A different seed is a different key: Monte-Carlo degradations
	// would produce different estimates, so they must not alias.
	r, err := Eval(context.Background(), d, q, EvalOptions{Cache: c, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached {
		t.Fatal("distinct options must not share a cache entry")
	}
}

// A clean answer is a function of the relations its statement names
// (DESIGN.md §11), so that is what its cache entry is valid for, whichever
// rung produced it: inserts into another relation — a tuple joining an
// existing cluster, which changes the database's candidate count, and a new
// cluster, which lengthens a whole-database sample by one draw — leave the
// entry a hit that equals a fresh uncached evaluation answer for answer,
// and an insert into a FROM relation makes it a miss.
func TestEvalCacheScopedToFromRelations(t *testing.T) {
	few := exec.Limits{MaxCandidates: 2} // customer alone has 4 candidates
	// The statement that does not project the identifier is outside the
	// rewritable class, so exact answers it within budget and Monte-Carlo
	// beyond; the rewriting answers the one that does.
	for _, c := range []struct {
		sql  string
		opts EvalOptions
		want Method
	}{
		{"select name from customer where balance > 10000", EvalOptions{}, MethodExact},
		{"select id from customer where balance > 10000", EvalOptions{}, MethodRewrite},
		{"select name from customer where balance > 10000", EvalOptions{Limits: few, Samples: 300, Seed: 11}, MethodMonteCarlo},
	} {
		d := testdb.Figure2()
		cc := cache.New(cache.Options{MaxBytes: 1 << 20})
		q := sqlparse.MustParse(c.sql)
		cached := c.opts
		cached.Cache = cc
		cold, err := Eval(context.Background(), d, q, cached)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Method != c.want || cold.Cached {
			t.Fatalf("%s: first evaluation: method %v cached %v, want %v computed", c.sql, cold.Method, cold.Cached, c.want)
		}

		orders, _ := d.Store.Table("orders")
		orders.MustInsert(value.Str("o2"), value.Str("14"), value.Str("c2"), value.Int(7), value.Float(0))
		orders.MustInsert(value.Str("o9"), value.Str("99"), value.Str("c1"), value.Int(1), value.Float(1))
		if n, _ := d.CandidateCount(); n.Int64() != 12 {
			t.Fatalf("the inserts should take the database from 8 candidates to 12, not %v", n)
		}
		warm, err := Eval(context.Background(), d, q, cached)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Eval(context.Background(), d, q, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Cached || fresh.Cached {
			t.Fatalf("%s (%v): after inserts into orders cached = %v (uncached options: %v), want a hit", c.sql, c.want, warm.Cached, fresh.Cached)
		}
		if warm.Method != fresh.Method || !reflect.DeepEqual(warm.Answers, fresh.Answers) {
			t.Fatalf("%s (%v): the hit differs from a fresh evaluation:\n hit %+v\nfresh %+v", c.sql, c.want, warm.Answers, fresh.Answers)
		}
		if s := cc.Stats(); s.Invalidations != 0 || s.Executions != 1 {
			t.Fatalf("%s (%v): %d invalidations, %d executions after inserts into orders; want 0 and 1", c.sql, c.want, s.Invalidations, s.Executions)
		}

		customer, _ := d.Store.Table("customer")
		customer.MustInsert(value.Str("c3"), value.Str("m5"), value.Str("Ann"), value.Float(50000), value.Float(1))
		after, err := Eval(context.Background(), d, q, cached)
		if err != nil {
			t.Fatal(err)
		}
		if after.Cached || after.Len() != cold.Len()+1 {
			t.Fatalf("%s (%v): after an insert into customer cached = %v with %d answers, want a recomputation with %d",
				c.sql, c.want, after.Cached, after.Len(), cold.Len()+1)
		}
		if s := cc.Stats(); s.Invalidations != 1 {
			t.Fatalf("%s (%v): %d invalidations after an insert into customer, want 1", c.sql, c.want, s.Invalidations)
		}
	}
}

// A cached clean answer costs a lookup: the statement printed once into
// the key, the key, the version vector over the FROM relations, the
// context and the Result handed back — 7 allocations for this two-relation
// join on a kept evaluator, 10 when fmt formatted the key (boxing the
// budget), 31 when the statement was printed node by node and the vector
// covered, and formatted, every table of the store.
func TestEvalHitAllocationFloor(t *testing.T) {
	d := testdb.Figure2()
	// Parallelism is pinned: AllocsPerRun runs at GOMAXPROCS 1, and the
	// key carries the resolved setting.
	ev := Evaluator{DB: d, Engine: engine.NewWithOptions(d.Store, engine.Options{
		Parallelism: 2,
		Cache:       cache.New(cache.Options{MaxBytes: 1 << 20}),
	})}
	q := sqlparse.MustParse("select c.id from orders o, customer c where o.quantity < 5 and o.cidfk = c.id and c.balance > 25000")
	ctx := context.Background()
	if _, err := ev.Eval(ctx, q, EvalOptions{}); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(50, func() {
		if res, err := ev.Eval(ctx, q, EvalOptions{}); err != nil || !res.Cached {
			t.Fatalf("not a hit: %v, %v", res, err)
		}
	})
	t.Logf("a cached clean answer allocates %.0f times", n)
	if n > 8 {
		t.Errorf("a cached clean answer allocates %.0f times, ceiling 8", n)
	}
}
