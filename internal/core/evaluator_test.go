package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"conquer/internal/cache"
	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/exec"
	"conquer/internal/metrics"
	"conquer/internal/qerr"
	"conquer/internal/rewrite"
	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/testdb"
	"conquer/internal/value"
)

// evaluator is an Evaluator over d on an engine at the defaults.
func evaluator(d *dirty.DB) Evaluator {
	return Evaluator{DB: d, Engine: engine.New(d.Store)}
}

// manyClusters builds one dirty relation of clusters three tuples each —
// 3,000 rows, so that scans span several morsels and run split — with
// uneven probabilities, so that summing them in another order can move a
// last bit.
func manyClusters(t testing.TB) (*dirty.DB, *storage.Table) {
	t.Helper()
	rel := schema.MustRelation("t",
		schema.Column{Name: "id", Type: value.KindString},
		schema.Column{Name: "val", Type: value.KindInt},
		schema.Column{Name: "prob", Type: value.KindFloat},
	)
	if err := rel.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	store := storage.NewDB()
	tb := store.MustCreateTable(rel)
	for c := 0; c < 1000; c++ {
		for k, p := range []float64{0.1, 0.3, 0.6} {
			tb.MustInsert(value.Str(fmt.Sprintf("c%d", c)), value.Int(int64((c*7+k)%10)), value.Float(p))
		}
	}
	return dirty.New(store), tb
}

// Every query of an evaluation runs at the evaluator's engine settings:
// the rungs' engine runs 3 workers, the rewriting rung answers over it,
// and every candidate the world engine runs reports 3 workers.
func TestEvaluatorRunsRungsAtItsEngineSettings(t *testing.T) {
	d, _ := manyClusters(t)
	ev := Evaluator{DB: d, Engine: engine.NewWithOptions(d.Store, engine.Options{Parallelism: 3})}
	stmt := sqlparse.MustParse("select id from t where val >= 0")
	ctx := context.Background()

	if o := ev.rungs(); o.Parallelism != 3 {
		t.Fatalf("the rungs run at parallelism %d, want 3", o.Parallelism)
	}
	res, err := ev.Eval(ctx, stmt, EvalOptions{Method: MethodRewrite})
	if err != nil || res.Len() != 1000 {
		t.Fatalf("%v answers, error %v", res, err)
	}

	cs, err := d.CandidatesOf(stmt.Tables())
	if err != nil {
		t.Fatal(err)
	}
	candidates := 0
	_, stats, err := ev.overWorlds(ctx, stmt, cs, sample(ctx, 4, 1), func(_ *dirty.Candidate, res *engine.Result) error {
		candidates++
		if st := res.Stats; st.Parallelism != 3 {
			return fmt.Errorf("a candidate ran at parallelism %d", st.Parallelism)
		}
		return nil
	})
	if err != nil || candidates != 4 || stats.Queries != 4 {
		t.Fatalf("world engine: %d candidates, %d queries, error %v", candidates, stats.Queries, err)
	}
}

// An evaluator refuses what it cannot run as asked: a budget or cache in
// EvalOptions (its engine's options are both), an engine over another
// store, an unknown method, a negative sample count. A forced method
// returns its error verbatim.
func TestEvaluatorRejectsWhatItCannotRun(t *testing.T) {
	d := testdb.Figure2()
	ev := evaluator(d)
	ctx := context.Background()
	stmt := sqlparse.MustParse("select id from customer")
	for name, c := range map[string]struct {
		ev   Evaluator
		opts EvalOptions
		want string
	}{
		"limits":        {ev, EvalOptions{Limits: exec.Limits{MaxCandidates: 1}}, "budget and cache"},
		"cache":         {ev, EvalOptions{Cache: cache.New(cache.Options{MaxBytes: 1 << 20})}, "budget and cache"},
		"other store":   {Evaluator{DB: d, Engine: engine.New(testdb.Figure2().Store)}, EvalOptions{}, "another store"},
		"no engine":     {Evaluator{DB: d}, EvalOptions{}, "needs a database and an engine"},
		"method":        {ev, EvalOptions{Method: MethodMonteCarlo + 1}, "unknown evaluation method"},
		"negative meth": {ev, EvalOptions{Method: -1}, "unknown evaluation method"},
		"negative n":    {ev, EvalOptions{Method: MethodMonteCarlo, Samples: -5}, "negative Monte-Carlo sample count"},
		"negative n ld": {ev, EvalOptions{Samples: -5}, "negative Monte-Carlo sample count"},
	} {
		res, err := c.ev.Eval(ctx, stmt, c.opts)
		if res != nil || err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: result %v, error %v; want an error saying %q", name, res, err, c.want)
		}
	}
	if _, err := (Evaluator{DB: d, Engine: engine.New(testdb.Figure2().Store)}).EstimateAggregate(ctx, stmt, AggregateCount, "", 10, 1); err == nil {
		t.Error("EstimateAggregate on an engine over another store should fail")
	}

	// Forced, a rung that cannot answer fails where the ladder would fall
	// through.
	few := Evaluator{DB: d, Engine: engine.NewWithLimits(d.Store, exec.Limits{MaxCandidates: 1, MaxSamples: 10})}
	if _, err := few.Eval(ctx, stmt, EvalOptions{Method: MethodExact}); !errors.Is(err, qerr.ErrTooManyCandidates) {
		t.Errorf("forced exact over budget: %v, want ErrTooManyCandidates", err)
	}
	var notRewritable *rewrite.NotRewritableError
	if _, err := ev.Eval(ctx, sqlparse.MustParse("select name from customer"), EvalOptions{Method: MethodRewrite}); !errors.As(err, &notRewritable) {
		t.Errorf("forced rewrite of a non-rewritable query: %v, want a NotRewritableError", err)
	}
	if _, err := few.Eval(ctx, stmt, EvalOptions{Method: MethodMonteCarlo, Samples: 11}); !errors.Is(err, qerr.ErrBudgetExceeded) {
		t.Errorf("forced monte-carlo above MaxSamples: %v, want ErrBudgetExceeded", err)
	}
	if res, err := few.Eval(ctx, sqlparse.MustParse("select name from customer"), EvalOptions{Samples: 11}); err != nil || res.Method != MethodMonteCarlo || res.Samples != 10 {
		t.Errorf("the ladder clips the sample count: %+v, %v", res, err)
	}
}

// One cache serves evaluators at parallelism 1 and 8, and at either
// value of the inert Shards, with one entry: a float SUM folds on the
// morsel grid at every worker count, so each gets back, bit for bit, what
// it computes itself. The budget still separates entries.
func TestEvalCacheSeparatesEngineSettings(t *testing.T) {
	d, _ := manyClusters(t)
	c := cache.New(cache.Options{MaxBytes: 1 << 24})
	stmt := sqlparse.MustParse("select id from t where val > 2")
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		for i, set := range []struct {
			par, shards int
			lim         exec.Limits
		}{{1, 1, exec.Limits{}}, {1, 4, exec.Limits{}}, {8, 1, exec.Limits{}}, {8, 4, exec.Limits{}}, {8, 1, exec.Limits{MaxCandidates: 1 << 20}}} {
			label := fmt.Sprintf("round %d, parallelism %d, shards %d, limits %+v", round, set.par, set.shards, set.lim)
			o := engine.Options{Parallelism: set.par, Shards: set.shards, Limits: set.lim}
			uncached, err := Evaluator{DB: d, Engine: engine.NewWithOptions(d.Store, o)}.Eval(ctx, stmt, EvalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			o.Cache = c
			got, err := Evaluator{DB: d, Engine: engine.NewWithOptions(d.Store, o)}.Eval(ctx, stmt, EvalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Cached != (round == 1 || (i > 0 && i < 4)) || got.Method != MethodRewrite || len(got.Answers) != len(uncached.Answers) {
				t.Fatalf("%s: cached %v, method %v, %d answers (uncached: %d)",
					label, got.Cached, got.Method, len(got.Answers), len(uncached.Answers))
			}
			for i, a := range got.Answers {
				w := uncached.Answers[i]
				if !value.RowsIdentical(a.Values, w.Values) || math.Float64bits(a.Prob) != math.Float64bits(w.Prob) {
					t.Fatalf("%s: answer %d is %v %v, its own uncached evaluation %v %v",
						label, i, a.Values, a.Prob, w.Values, w.Prob)
				}
			}
		}
	}
	if s := c.Stats(); s.Executions != 2 || s.ResultHits != 8 {
		t.Errorf("cache stats %+v: want 2 executions (one entry per budget) and 8 hits", s)
	}
}

// An evaluation writes one query-log line, whichever rung answered and
// however many queries it ran: the rung, the answers, the engine settings
// and the statement hash the engine's own lines use.
func TestEvalWritesOneQueryLogLine(t *testing.T) {
	d := testdb.Figure2()
	var buf strings.Builder
	ev := Evaluator{DB: d, Engine: engine.NewWithOptions(d.Store, engine.Options{Parallelism: 3, QueryLog: metrics.NewQueryLog(&buf)})}
	stmt := sqlparse.MustParse("select id from customer where balance > 10000")
	for _, m := range []Method{MethodNone, MethodRewrite, MethodMonteCarlo} {
		buf.Reset()
		res, err := ev.Eval(context.Background(), stmt, EvalOptions{Method: m, Samples: 20})
		if err != nil {
			t.Fatal(err)
		}
		line := buf.String()
		want := fmt.Sprintf(`{"sql_hash":%q,"method":%q,"rows":%d,`, metrics.HashQuery(stmt.SQL()), res.Method, res.Len())
		if strings.Count(line, "\n") != 1 || !strings.HasPrefix(line, want) || !strings.Contains(line, `"par":3`) || strings.Contains(line, "shards") {
			t.Errorf("method %v: query log\n%s\nwant one line starting %s with par 3", m, line, want)
		}
	}
}
