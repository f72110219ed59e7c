package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/exec"
	"conquer/internal/qerr"
	"conquer/internal/rewrite"
	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/testdb"
	"conquer/internal/value"
)

// nullsAndZeros is a parent/child database with what the generated ones
// lack: a child tuple whose foreign key is NULL, a probability-0 tuple in
// each relation, one of them with a quantity of 0, and a clean relation.
func nullsAndZeros(t testing.TB) *dirty.DB {
	t.Helper()
	store := storage.NewDB()
	tag := store.MustCreateTable(schema.MustRelation("tag",
		schema.Column{Name: "name", Type: value.KindString},
		schema.Column{Name: "score", Type: value.KindInt}))
	tag.MustInsert(value.Str("low"), value.Int(2))
	tag.MustInsert(value.Str("high"), value.Int(9))
	tag.MustInsert(value.Str("none"), value.Null())
	for _, rel := range []*schema.Relation{
		schema.MustRelation("parent",
			schema.Column{Name: "id", Type: value.KindString},
			schema.Column{Name: "score", Type: value.KindInt},
			schema.Column{Name: "prob", Type: value.KindFloat}),
		schema.MustRelation("child",
			schema.Column{Name: "id", Type: value.KindString},
			schema.Column{Name: "afk", Type: value.KindString},
			schema.Column{Name: "qty", Type: value.KindInt},
			schema.Column{Name: "prob", Type: value.KindFloat}),
	} {
		if err := rel.SetDirty("id", "prob"); err != nil {
			t.Fatal(err)
		}
		store.MustCreateTable(rel)
	}
	parent, _ := store.Table("parent")
	parent.MustInsert(value.Str("a1"), value.Int(5), value.Float(0.6))
	parent.MustInsert(value.Str("a1"), value.Int(2), value.Float(0.4))
	parent.MustInsert(value.Str("a1"), value.Int(9), value.Float(0))
	parent.MustInsert(value.Str("a2"), value.Int(7), value.Float(1))
	child, _ := store.Table("child")
	child.MustInsert(value.Str("b1"), value.Str("a1"), value.Int(3), value.Float(0.5))
	child.MustInsert(value.Str("b1"), value.Null(), value.Int(3), value.Float(0.5))
	child.MustInsert(value.Str("b2"), value.Str("a2"), value.Int(4), value.Float(0.7))
	child.MustInsert(value.Str("b2"), value.Str("a1"), value.Int(0), value.Float(0))
	child.MustInsert(value.Str("b2"), value.Str("a1"), value.Int(6), value.Float(0.3))
	d := dirty.New(store)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// lineageCases are the differential corpus plus statements over
// nullsAndZeros: a join through a NULL foreign key, a selection a
// probability-0 tuple alone passes, a self-join and clean relations.
func lineageCases(t testing.TB) []diffCase {
	nz := nullsAndZeros(t)
	return append(append(fixedCases(t), generatedCases(100)...),
		diffCase{name: "nz.join", d: nz, sql: "select b.id, a.score from child b, parent a where b.afk = a.id"},
		diffCase{name: "nz.zero", d: nz, sql: "select id from parent where score > 8"},
		diffCase{name: "nz.null", d: nz, sql: "select distinct id from child where afk is null or qty = 0"},
		diffCase{name: "nz.self", d: nz, sql: "select x.id from parent x, parent y where x.id = y.id and x.score < y.score"},
		diffCase{name: "nz.clean", d: nz, sql: "select distinct name from tag where score > 1"},
		diffCase{name: "nz.tagged", d: nz, sql: "select t.name, a.id from tag t, parent a where t.score = a.score"},
	)
}

// An answer's DNF holds on a candidate's choices exactly when the answer
// is in Q(candidate), on every candidate of every SPJ statement of the
// corpus: self-joins, a NULL foreign key, probability-0 tuples, FROM lists
// of clean relations alone and DISTINCT among them.
func TestLineageHoldsExactlyWhereTheAnswerIs(t *testing.T) {
	ctx := context.Background()
	var selfJoins, cleanOnly, distinct int
	for _, c := range lineageCases(t) {
		stmt := sqlparse.MustParse(c.sql)
		lq, err := rewrite.Lineage(c.d.Store.Catalog, stmt)
		if err != nil {
			continue // not SPJ
		}
		ev := evaluator(c.d)
		cs, err := c.d.CandidatesOf(stmt.Tables())
		if err != nil {
			t.Fatal(err)
		}
		l, _, err := ev.buildLineage(ctx, stmt, cs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		candidates := 0
		_, _, err = ev.overWorlds(ctx, stmt, enumerate(ctx, 0), func(cand *dirty.Candidate, res *engine.Result) error {
			candidates++
			l.at(cand)
			rows := distinctRows(res.Rows)
			held := 0
			for i, a := range l.answers {
				in := false
				for _, row := range rows {
					in = in || value.RowsIdentical(row, a)
				}
				if l.holds(i) != in {
					t.Errorf("%s: candidate %v: answer %v is in Q: %v, its DNF holds: %v", c.name, cand.Chosen, a, in, !in)
				}
				if in {
					held++
				}
			}
			if held != len(rows) {
				t.Errorf("%s: candidate %v has %d answers, %d of them in the lineage", c.name, cand.Chosen, len(rows), held)
			}
			return nil
		})
		if err != nil || candidates == 0 {
			t.Fatalf("%s: %d candidates, error %v", c.name, candidates, err)
		}
		seen := map[string]bool{}
		for _, a := range lq.Aliases {
			if seen[a.Relation] {
				selfJoins++
			}
			seen[a.Relation] = true
		}
		if len(lq.Aliases) == 0 {
			cleanOnly++
		}
		if stmt.Distinct {
			distinct++
		}
	}
	if selfJoins < 3 || cleanOnly < 1 || distinct < 10 {
		t.Errorf("the corpus has %d self-joins, %d clean-only and %d DISTINCT SPJ statements; want >= 3, >= 1, >= 10", selfJoins, cleanOnly, distinct)
	}
}

// Monte-Carlo from lineage is one query, and falls back to the worlds —
// the same estimate, one query per sample after the failed lineage query —
// when its lineage query runs out of budget (MaxOutputRows below the
// lineage's row count: each world joins 2 orders to 2 customers, the
// lineage 3 orders to 6, buffering all 4 customers before it fails) or
// fails on a combination no world holds (12 / 0, on a probability-0
// tuple). MaxSamples caps the sample count as before.
func TestMonteCarloFromLineageCounts(t *testing.T) {
	ctx := context.Background()
	const n, seed = 50, 11
	d := testdb.Figure2()
	join := sqlparse.MustParse("select o.orderid, c.custid from orders o, customer c where o.cidfk = c.id")
	free, err := MonteCarloCtx(ctx, d, join, n, seed, exec.Limits{})
	if err != nil || free.Stats.Queries != 1 || free.Stats.BufferedPeak == 0 {
		t.Fatalf("from lineage: %+v, error %v; want 1 query, a buffered join", free, err)
	}
	tight, err := MonteCarloCtx(ctx, d, join, n, seed, exec.Limits{MaxOutputRows: 2})
	if err != nil || tight.Stats.Queries != n+1 || tight.Stats.BufferedPeak != 4 {
		t.Fatalf("under MaxOutputRows 2: %+v, error %v; want %d queries, the lineage's 4 rows buffered", tight, err, n+1)
	}
	sameResult(t, "under MaxOutputRows 2", free, tight, 0)

	nz := nullsAndZeros(t)
	div := sqlparse.MustParse("select b.id from child b where 12 / b.qty > 2")
	want, err := oracleMonteCarlo(ctx, nz, div, n, seed, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MonteCarloCtx(ctx, nz, div, n, seed, exec.Limits{})
	if err != nil || got.Stats.Queries != n+1 {
		t.Fatalf("over a zero divisor no world holds: %+v, error %v; want %d queries", got, err, n+1)
	}
	sameResult(t, "over a zero divisor no world holds", want, got, 0)

	capped := Evaluator{DB: d, Engine: engine.NewWithLimits(d.Store, exec.Limits{MaxSamples: n})}
	if res, err := capped.Eval(ctx, join, EvalOptions{Method: MethodMonteCarlo, Samples: n, Seed: seed}); err != nil || res.Stats.Queries != 1 {
		t.Errorf("at MaxSamples: %+v, error %v", res, err)
	}
	if _, err := capped.Eval(ctx, join, EvalOptions{Method: MethodMonteCarlo, Samples: n + 1}); !errors.Is(err, qerr.ErrBudgetExceeded) {
		t.Errorf("above MaxSamples: %v, want ErrBudgetExceeded", err)
	}
}

// failOnce fails the n-th scanned row of table with err, and no other, so
// that a retry gets past it.
type failOnce struct {
	table string
	n     int32
	calls atomic.Int32
	err   error
}

func (f *failOnce) Fail(table string, op storage.Op) error {
	if table == f.table && op == storage.OpScan && f.calls.Add(1) == f.n {
		return f.err
	}
	return nil
}

// A storage fault inside the lineage query is the evaluation's, though a
// retry on the worlds would get past it; a budget fault there is retried,
// and the worlds answer as if it had not happened.
func TestLineageQueryFaults(t *testing.T) {
	ctx := context.Background()
	const n, seed = 40, 3
	stmt := sqlparse.MustParse("select c.id from orders o, customer c where o.cidfk = c.id")
	want, err := MonteCarloCtx(ctx, testdb.Figure2(), stmt, n, seed, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	d := testdb.Figure2()
	d.Store.SetInjector(&failOnce{table: "orders", n: 2, err: errBoom})
	if res, err := MonteCarloCtx(ctx, d, stmt, n, seed, exec.Limits{}); res != nil || !errors.Is(err, errBoom) {
		t.Errorf("scan fault: result %v, error %v; want no result and errors.Is(err, errBoom)", res, err)
	}
	d = testdb.Figure2()
	d.Store.SetInjector(&failOnce{table: "orders", n: 2, err: qerr.ErrBudgetExceeded})
	got, err := MonteCarloCtx(ctx, d, stmt, n, seed, exec.Limits{})
	if err != nil || got.Stats.Queries != n+1 {
		t.Fatalf("budget fault: %+v, error %v; want %d queries", got, err, n+1)
	}
	sameResult(t, "budget fault", want, got, 0)
}

// oneCluster is a dirty relation r(id, v, prob) of one cluster whose
// tuples hold vs, equally likely.
func oneCluster(t testing.TB, vs ...value.Value) *dirty.DB {
	t.Helper()
	store := storage.NewDB()
	rel := schema.MustRelation("r",
		schema.Column{Name: "id", Type: value.KindString},
		schema.Column{Name: "v", Type: vs[0].Kind()},
		schema.Column{Name: "prob", Type: value.KindFloat})
	if err := rel.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	tb := store.MustCreateTable(rel)
	for _, v := range vs {
		tb.MustInsert(value.Str("c1"), v, value.Float(1/float64(len(vs))))
	}
	d := dirty.New(store)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// The per-world loop answers where the lineage would not pay: a self-join
// over a cluster of 16 tuples has 256 lineage rows, above the 32 worlds of
// 2 rows each a lineage may hold, and an answer derived as both 0.0 and
// -0.0 prints as the first sampled world has it. Either way the result is
// the oracle's, values bit for bit, and the failed lineage query counts.
func TestMonteCarloFallsBackWhereTheLineageDoesNotPay(t *testing.T) {
	ctx := context.Background()
	const n, seed = 40, 5
	var ints []value.Value
	for i := range 16 {
		ints = append(ints, value.Int(int64(i)))
	}
	for _, c := range []struct {
		name string
		d    *dirty.DB
		sql  string
	}{
		{"large self-join", oneCluster(t, ints...), "select x.v from r x, r y where x.id = y.id"},
		{"signed zeros", oneCluster(t, value.Float(0), value.Float(math.Copysign(0, -1))), "select v from r"},
	} {
		stmt := sqlparse.MustParse(c.sql)
		want, err := oracleMonteCarlo(ctx, c.d, stmt, n, seed, exec.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := MonteCarloCtx(ctx, c.d, stmt, n, seed, exec.Limits{})
		if err != nil || got.Stats.Queries != n+1 {
			t.Fatalf("%s: %+v, error %v; want %d queries", c.name, got, err, n+1)
		}
		sameResult(t, c.name, want, got, 0)
		for i := range got.Answers {
			if !slices.Equal(got.Answers[i].Values, want.Answers[i].Values) {
				t.Errorf("%s: answer %d is %#v, step by step %#v", c.name, i, got.Answers[i].Values, want.Answers[i].Values)
			}
		}
	}
}

// pollCounter is a context whose Err reports cancellation from its at-th
// call on (never, when at is 0). The engine's queries poll contexts of
// their own derived from it, so its calls are the evaluator's own polls.
type pollCounter struct {
	context.Context
	calls, at int
}

func (c *pollCounter) Err() error {
	c.calls++
	if c.at > 0 && c.calls >= c.at {
		return context.Canceled
	}
	return nil
}

// Cancelling in the middle of the sampling loop — past the lineage query,
// half the samples short of the end — ends the evaluation with the
// cancellation reason and no result.
func TestMonteCarloFromLineageCancellation(t *testing.T) {
	const n = 40
	d := testdb.Figure2()
	ev := Evaluator{DB: d, Engine: engine.NewWithOptions(d.Store, engine.Options{Parallelism: 1})}
	stmt := sqlparse.MustParse("select c.id from orders o, customer c where o.cidfk = c.id")
	whole := &pollCounter{Context: context.Background()}
	if res, err := ev.monteCarlo(whole, stmt, n, 1); err != nil || res.Stats.Queries != 1 {
		t.Fatalf("%+v, %v", res, err)
	}
	if whole.calls < n {
		t.Fatalf("%d polls over %d samples; want one per sample", whole.calls, n)
	}
	mid := &pollCounter{Context: context.Background(), at: whole.calls - n/2}
	res, err := ev.monteCarlo(mid, stmt, n, 1)
	if res != nil || !errors.Is(err, qerr.ErrCanceled) || qerr.Reason(err) != "canceled" {
		t.Errorf("cancelled mid-sampling: result %v, error %v; want the cancellation reason", res, err)
	}
}

// Checking a sample's DNFs allocates nothing, and neither does a sample of
// MonteCarloCtx from lineage: its allocations do not grow with n.
func TestLineageCheckAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	d := testdb.Figure2()
	stmt := sqlparse.MustParse("select c.id from orders o, customer c where o.quantity < 5 and o.cidfk = c.id and c.balance > 25000")
	cs, err := d.CandidatesOf(stmt.Tables())
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := evaluator(d).buildLineage(ctx, stmt, cs)
	if err != nil {
		t.Fatal(err)
	}
	rng, cand := rand.New(rand.NewSource(1)), cs.NewCandidate()
	held := 0
	check := testing.AllocsPerRun(100, func() {
		cs.Sample(rng, cand)
		l.at(cand)
		for i := range l.answers {
			if l.holds(i) {
				held++
			}
		}
	})
	if check != 0 || held == 0 {
		t.Errorf("a DNF check allocates %v times (%d answers held); want 0", check, held)
	}
	run := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := MonteCarloCtx(ctx, d, stmt, n, 1, exec.Limits{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if perSample := (run(1200) - run(200)) / 1000; perSample != 0 {
		t.Errorf("%v allocations per sample; want 0", perSample)
	}
}
