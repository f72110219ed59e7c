package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"conquer/internal/engine"
	"conquer/internal/exec"
	"conquer/internal/qerr"
	"conquer/internal/rewrite"
	"conquer/internal/sqlparse"
	"conquer/internal/testdb"
	"conquer/internal/value"
)

// chainOf renders a result's degradation chain as the facade prints it.
func chainOf(res *Result) []string {
	var out []string
	for _, d := range res.Degraded {
		out = append(out, d.String())
	}
	return out
}

// Thm 1 through the ladder, on the lineage corpus: a rewritable statement
// is answered by the rewriting alone — one query, no chain — with forced
// exact's answers within ProbEpsilon. Any other falls to exact, which gives
// forced exact's bits, and under a candidate budget below its count to
// Monte-Carlo, which gives forced Monte-Carlo's.
func TestLadderAsksTheRewritingFirst(t *testing.T) {
	ctx := context.Background()
	const n = 60
	rewritable, exactly, sampled := 0, 0, 0
	for _, c := range lineageCases(t) {
		stmt := sqlparse.MustParse(c.sql)
		label := fmt.Sprintf("%s %q", c.name, c.sql)
		ev := evaluator(c.d)
		exact, err := ev.Eval(ctx, stmt, EvalOptions{Method: MethodExact})
		if err != nil {
			t.Fatalf("%s: forced exact: %v", label, err)
		}
		got, err := ev.Eval(ctx, stmt, EvalOptions{})
		if err != nil {
			t.Fatalf("%s: ladder: %v", label, err)
		}
		if _, err := rewrite.RewriteClean(c.d.Store.Catalog, stmt); err == nil {
			rewritable++
			if got.Method != MethodRewrite || len(got.Degraded) != 0 || got.Stats.Queries != 1 {
				t.Errorf("%s: %v after %v in %d queries; want the rewriting alone, one query", label, got.Method, chainOf(got), got.Stats.Queries)
			}
			asExact := *got
			asExact.Method = MethodExact
			sameResult(t, label+" rewriting against exact", exact, &asExact, value.ProbEpsilon)
			continue
		}
		cs, err := c.d.CandidatesOf(stmt.Tables())
		if err != nil {
			t.Fatal(err)
		}
		count := cs.Count().Int64()
		if count > exactThreshold {
			t.Fatalf("%s: %d candidates, more than the ladder's exact threshold", label, count)
		}
		exactly++
		if !slices.Equal(chainOf(got), []string{"rewrite(not-rewritable)"}) {
			t.Errorf("%s: chain %v, want [rewrite(not-rewritable)]", label, chainOf(got))
		}
		sameResult(t, label+" ladder against forced exact", exact, got, 0)
		samePlanRuns(t, label+" ladder against forced exact", exact, got)

		if count < 2 {
			continue // no budget is below one candidate
		}
		sampled++
		few := Evaluator{DB: c.d, Engine: engine.NewWithLimits(c.d.Store, exec.Limits{MaxCandidates: count - 1})}
		seed := int64(len(c.sql))
		mc, err := few.Eval(ctx, stmt, EvalOptions{Method: MethodMonteCarlo, Samples: n, Seed: seed})
		if err != nil {
			t.Fatalf("%s: forced monte-carlo: %v", label, err)
		}
		got, err = few.Eval(ctx, stmt, EvalOptions{Samples: n, Seed: seed})
		if err != nil {
			t.Fatalf("%s: ladder under MaxCandidates %d: %v", label, count-1, err)
		}
		if want := []string{"rewrite(not-rewritable)", "exact(candidates)"}; !slices.Equal(chainOf(got), want) {
			t.Errorf("%s: under MaxCandidates %d chain %v, want %v", label, count-1, chainOf(got), want)
		}
		sameResult(t, label+" ladder against forced monte-carlo", mc, got, 0)
		samePlanRuns(t, label+" ladder against forced monte-carlo", mc, got)
	}
	t.Logf("%d statements answered by the rewriting, %d by exact, %d of them by Monte-Carlo under a budget", rewritable, exactly, sampled)
	if rewritable < 20 || exactly < 30 || sampled < 30 {
		t.Errorf("the corpus has %d rewritable statements and %d others, %d of them over more than one candidate; want >= 20, >= 30 and >= 30",
			rewritable, exactly, sampled)
	}
}

// A rewritable statement costs the ladder what the rewriting costs: no
// candidate count, no rung selection, no chain, even under a budget of
// one candidate that the statement's relation exceeds.
func TestLadderOnRewritableAllocatesAsForcedRewrite(t *testing.T) {
	d := testdb.Figure2()
	// Parallelism is pinned: AllocsPerRun runs at GOMAXPROCS 1.
	ev := Evaluator{DB: d, Engine: engine.NewWithOptions(d.Store, engine.Options{
		Limits: exec.Limits{MaxCandidates: 1}, Parallelism: 2,
	})}
	stmt := sqlparse.MustParse("select id from customer where balance > 10000")
	ctx := context.Background()
	allocs := func(m Method) float64 {
		return testing.AllocsPerRun(50, func() {
			if res, err := ev.Eval(ctx, stmt, EvalOptions{Method: m}); err != nil || res.Method != MethodRewrite {
				t.Fatalf("method %v: %+v, %v", m, res, err)
			}
		})
	}
	forced, ladder := allocs(MethodRewrite), allocs(MethodNone)
	t.Logf("the ladder allocates %.0f times, forced rewriting %.0f", ladder, forced)
	if ladder != forced {
		t.Errorf("the ladder allocates %.0f times on a rewritable statement, forced rewriting %.0f", ladder, forced)
	}
}

// The rewriting validates no cluster: a rewritable statement over a
// relation with a NULL identifier answers through the ladder as forced
// rewriting always has, while one outside the class, which the lower rungs
// must cluster, fails with ErrBadModel.
func TestLadderClustersOnlyBelowTheRewriting(t *testing.T) {
	d := testdb.Figure2()
	cust, _ := d.Store.Table("customer")
	if err := cust.UpdateColumn(3, "id", value.Null()); err != nil {
		t.Fatal(err)
	}
	ev := evaluator(d)
	ctx := context.Background()
	stmt := sqlparse.MustParse("select id from customer where balance > 10000")
	forced, err := ev.Eval(ctx, stmt, EvalOptions{Method: MethodRewrite})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.Eval(ctx, stmt, EvalOptions{})
	if err != nil || len(got.Degraded) != 0 {
		t.Fatalf("ladder: %+v, %v; want the rewriting's answer", got, err)
	}
	sameResult(t, "ladder against forced rewriting", forced, got, 0)
	if _, err := ev.Eval(ctx, sqlparse.MustParse("select name from customer where balance > 10000"), EvalOptions{}); !errors.Is(err, qerr.ErrBadModel) {
		t.Errorf("outside the rewritable class: %v, want ErrBadModel", err)
	}
}

// A NULL probability is a model error on every rung that reads it —
// ErrBadModel, 422 on the server — and never reaches enumeration or
// sampling, where reading it would panic (ErrInternal, a 500).
func TestInvalidProbabilityIsABadModel(t *testing.T) {
	d := testdb.Figure2()
	cust, _ := d.Store.Table("customer")
	if err := cust.UpdateColumn(2, "prob", value.Null()); err != nil {
		t.Fatal(err)
	}
	ev := evaluator(d)
	nonRewritable := sqlparse.MustParse("select name from customer where balance > 10000")
	for _, m := range []Method{MethodExact, MethodMonteCarlo, MethodNone} {
		res, err := ev.Eval(context.Background(), nonRewritable, EvalOptions{Method: m})
		if res != nil || !errors.Is(err, qerr.ErrBadModel) || strings.Contains(err.Error(), "recovered panic") {
			t.Errorf("method %v: result %v, error %v; want ErrBadModel", m, res, err)
		}
	}
	if err := d.Validate(); err == nil {
		t.Error("Validate accepts the NULL probability")
	}
}
