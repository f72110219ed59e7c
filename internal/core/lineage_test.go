package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
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

// shortMass is a dirty relation r(id, v, prob) three of whose four
// clusters sum to 1 - ProbEpsilon (and a hair), as Validate allows, beside a clean
// relation t(v, name). A candidate's probability is the product of the
// masses of its chosen rows, so no cluster weighs 1.
func shortMass(t testing.TB) *dirty.DB {
	t.Helper()
	store := storage.NewDB()
	rel := schema.MustRelation("r",
		schema.Column{Name: "id", Type: value.KindString},
		schema.Column{Name: "v", Type: value.KindInt},
		schema.Column{Name: "prob", Type: value.KindFloat})
	if err := rel.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	r := store.MustCreateTable(rel)
	const eps = value.ProbEpsilon * (1 - 1e-8) // inside Validate's tolerance, however the sum rounds
	for _, row := range []struct {
		id string
		v  int64
		p  float64
	}{
		{"c1", 1, 0.5}, {"c1", 2, 0.5 - eps},
		{"c2", 2, 0.25}, {"c2", 3, 0.75 - eps},
		{"c3", 3, 1 - eps},
		{"c4", 1, 0.6}, {"c4", 4, 0.4},
	} {
		r.MustInsert(value.Str(row.id), value.Int(row.v), value.Float(row.p))
	}
	tag := store.MustCreateTable(schema.MustRelation("t",
		schema.Column{Name: "v", Type: value.KindInt},
		schema.Column{Name: "name", Type: value.KindString}))
	tag.MustInsert(value.Int(2), value.Str("two"))
	tag.MustInsert(value.Int(3), value.Str("three"))
	d := dirty.New(store)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// lineageCases are the differential corpus plus statements over
// nullsAndZeros — a join through a NULL foreign key, a selection a
// probability-0 tuple alone passes, a self-join and clean relations — and
// over shortMass, every one of which names r: clusters of a relation the
// statement does not name weigh their mass in the oracle's whole-database
// enumeration and 1 in exact's, which enumerates the FROM relations alone.
func lineageCases(t testing.TB) []diffCase {
	nz, short := nullsAndZeros(t), shortMass(t)
	return append(append(fixedCases(t), generatedCases(100)...),
		diffCase{name: "nz.join", d: nz, sql: "select b.id, a.score from child b, parent a where b.afk = a.id"},
		diffCase{name: "nz.zero", d: nz, sql: "select id from parent where score > 8"},
		diffCase{name: "nz.null", d: nz, sql: "select distinct id from child where afk is null or qty = 0"},
		diffCase{name: "nz.self", d: nz, sql: "select x.id from parent x, parent y where x.id = y.id and x.score < y.score"},
		diffCase{name: "nz.clean", d: nz, sql: "select distinct name from tag where score > 1"},
		diffCase{name: "nz.tagged", d: nz, sql: "select t.name, a.id from tag t, parent a where t.score = a.score"},
		diffCase{name: "short.v", d: short, sql: "select v from r", worlds: 8},
		diffCase{name: "short.distinct", d: short, sql: "select distinct v from r where v > 1", worlds: 8},
		diffCase{name: "short.self", d: short, sql: "select x.id, y.id from r x, r y where x.v = y.v and x.id < y.id", worlds: 8},
		diffCase{name: "short.tagged", d: short, sql: "select t.name, r.id from r, t where r.v = t.v", worlds: 8},
		diffCase{name: "short.group", d: short, sql: "select v, count(*) from r group by v", worlds: 8},
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
		l, _, err := ev.buildLineage(ctx, stmt, cs, lineageWorlds)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		candidates := 0
		_, _, err = ev.overWorlds(ctx, stmt, cs, enumerate(ctx, 0), func(cand *dirty.Candidate, res *engine.Result) error {
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
// and the worlds — Monte-Carlo's samples, exact's candidates — answer as
// if it had not happened, one query each after the failed lineage query.
func TestLineageQueryFaults(t *testing.T) {
	ctx := context.Background()
	stmt := sqlparse.MustParse("select c.id from orders o, customer c where o.cidfk = c.id")
	for _, ev := range evaluators[:2] { // exact and monte-carlo: the ones with a lineage
		want, err := ev.run(ctx, testdb.Figure2(), stmt, exec.Limits{})
		worlds, oerr := ev.oracle(ctx, testdb.Figure2(), stmt, exec.Limits{})
		if err != nil || oerr != nil || want.Stats.Queries != 1 {
			t.Fatalf("%s: %+v, error %v (step by step: %v); want 1 query", ev.name, want, err, oerr)
		}
		d := testdb.Figure2()
		d.Store.SetInjector(&failOnce{table: "orders", n: 2, err: errBoom})
		if res, err := ev.run(ctx, d, stmt, exec.Limits{}); res != nil || !errors.Is(err, errBoom) {
			t.Errorf("%s, scan fault: result %v, error %v; want no result and errors.Is(err, errBoom)", ev.name, res, err)
		}
		d = testdb.Figure2()
		d.Store.SetInjector(&failOnce{table: "orders", n: 2, err: qerr.ErrBudgetExceeded})
		got, err := ev.run(ctx, d, stmt, exec.Limits{})
		if err != nil || got.Stats.Queries != worlds.Stats.Queries+1 {
			t.Fatalf("%s, budget fault: %+v, error %v; want %d queries", ev.name, got, err, worlds.Stats.Queries+1)
		}
		sameResult(t, ev.name+", budget fault", want, got, ev.tol)
	}
}

// Cancelling exact from lineage in its enumeration — at the first
// candidate, right after the lineage query's last poll — ends the
// evaluation with the cancellation reason, no result and no goroutine left
// behind.
func TestExactFromLineageCancellation(t *testing.T) {
	d := testdb.Figure2()
	ev := Evaluator{DB: d, Engine: engine.NewWithOptions(d.Store, engine.Options{Parallelism: 1})}
	stmt := sqlparse.MustParse("select c.id from orders o, customer c where o.cidfk = c.id")
	cs, err := d.CandidatesOf(stmt.Tables())
	if err != nil {
		t.Fatal(err)
	}
	query := &pollCounter{Context: context.Background()}
	if _, _, err := ev.buildLineage(query, stmt, cs, cs.Count().Int64()); err != nil {
		t.Fatal(err)
	}
	whole := &pollCounter{Context: context.Background()}
	if res, err := ev.exact(whole, stmt, cs, 0); err != nil || res.Stats.Queries != 1 {
		t.Fatalf("%+v, %v", res, err)
	}
	if whole.calls <= query.calls {
		t.Fatalf("%d polls, %d of them the lineage query's; want the enumeration to poll", whole.calls, query.calls)
	}
	before := runtime.NumGoroutine()
	mid := &pollCounter{Context: context.Background(), at: query.calls + 1}
	res, err := ev.exact(mid, stmt, cs, 0)
	if res != nil || !errors.Is(err, qerr.ErrCanceled) || qerr.Reason(err) != "canceled" {
		t.Errorf("cancelled in the enumeration: result %v, error %v; want the cancellation reason", res, err)
	}
	waitForGoroutines(t, before)
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
// 2 rows each a Monte-Carlo lineage may hold; one over 4 tuples has 16,
// which fit those 32 worlds but not exact's 4, one per candidate; and an
// answer derived as both 0.0 and -0.0 prints as the first sampled or
// enumerated world has it. Either way the result is the oracle's, values
// bit for bit, and the failed lineage query counts: Monte-Carlo runs n
// worlds after it, exact every candidate.
func TestFallsBackWhereTheLineageDoesNotPay(t *testing.T) {
	ctx := context.Background()
	const n, seed = 40, 5
	var ints []value.Value
	for i := range 16 {
		ints = append(ints, value.Int(int64(i)))
	}
	for _, c := range []struct {
		name      string
		d         *dirty.DB
		sql       string
		mc, exact int // queries run
	}{
		{"large self-join", oneCluster(t, ints...), "select x.v from r x, r y where x.id = y.id", n + 1, 16 + 1},
		{"small self-join", oneCluster(t, ints[:4]...), "select x.v from r x, r y where x.id = y.id", 1, 4 + 1},
		{"signed zeros", oneCluster(t, value.Float(0), value.Float(math.Copysign(0, -1))), "select v from r", n + 1, 2 + 1},
	} {
		stmt := sqlparse.MustParse(c.sql)
		for _, ev := range []struct {
			name        string
			run, oracle func(ctx context.Context, d *dirty.DB, stmt *sqlparse.SelectStmt, lim exec.Limits) (*Result, error)
			tol         float64
			queries     int
		}{
			{"monte-carlo",
				func(ctx context.Context, d *dirty.DB, stmt *sqlparse.SelectStmt, lim exec.Limits) (*Result, error) {
					return MonteCarloCtx(ctx, d, stmt, n, seed, lim)
				},
				func(ctx context.Context, d *dirty.DB, stmt *sqlparse.SelectStmt, lim exec.Limits) (*Result, error) {
					return oracleMonteCarlo(ctx, d, stmt, n, seed, lim)
				}, 0, c.mc},
			{"exact", ExactCtx, oracleExact, value.ProbEpsilon, c.exact},
		} {
			label := c.name + ", " + ev.name
			want, err := ev.oracle(ctx, c.d, stmt, exec.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := ev.run(ctx, c.d, stmt, exec.Limits{})
			if err != nil || got.Stats.Queries != ev.queries {
				t.Fatalf("%s: %+v, error %v; want %d queries", label, got, err, ev.queries)
			}
			sameResult(t, label, want, got, ev.tol)
			for i := range got.Answers {
				if !slices.Equal(got.Answers[i].Values, want.Answers[i].Values) {
					t.Errorf("%s: answer %d is %#v, step by step %#v", label, i, got.Answers[i].Values, want.Answers[i].Values)
				}
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
	cs, err := d.CandidatesOf(stmt.Tables())
	if err != nil {
		t.Fatal(err)
	}
	whole := &pollCounter{Context: context.Background()}
	if res, err := ev.monteCarlo(whole, stmt, cs, n, 1); err != nil || res.Stats.Queries != 1 {
		t.Fatalf("%+v, %v", res, err)
	}
	if whole.calls < n {
		t.Fatalf("%d polls over %d samples; want one per sample", whole.calls, n)
	}
	mid := &pollCounter{Context: context.Background(), at: whole.calls - n/2}
	res, err := ev.monteCarlo(mid, stmt, cs, n, 1)
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
	l, _, err := evaluator(d).buildLineage(ctx, stmt, cs, lineageWorlds)
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
