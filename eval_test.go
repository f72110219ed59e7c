package conquer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"conquer/internal/faultinject"
	"conquer/internal/storage"
)

// Eval on a small database answers a query outside the rewritable class
// with the exact evaluator and reports it.
func TestEvalPicksExactWhenSmall(t *testing.T) {
	db := paperDB(t)
	res, err := db.Eval(context.Background(), "select name from customer where balance > 10000", EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "exact" || len(res.Degraded) != 1 || res.Degraded[0] != "rewrite(not-rewritable)" {
		t.Errorf("method = %q after %v, want exact after rewrite(not-rewritable)", res.Method, res.Degraded)
	}
	if res.StdErr != 0 || res.Samples != 0 {
		t.Errorf("exact result carries estimate metadata: samples=%d stderr=%v", res.Samples, res.StdErr)
	}
	if got := res.Find("John"); !approx(got, 1.0) {
		t.Errorf("P(John) = %v", got)
	}
	if got := res.Find("Mary"); !approx(got, 0.2) {
		t.Errorf("P(Mary) = %v", got)
	}
}

// Eval answers a rewritable query with the paper's rewriting whatever the
// candidate budget — exact answers from one query.
func TestEvalDegradesToRewriting(t *testing.T) {
	db := paperDB(t)
	// 2 customer clusters x 2 + 1 order cluster x 2 -> 8 candidates;
	// a budget of 1 rules out enumeration.
	res, err := db.Eval(context.Background(), "select id from customer where balance > 10000",
		EvalOptions{Limits: Limits{MaxCandidates: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "rewrite" {
		t.Errorf("method = %q, want rewrite", res.Method)
	}
	if got := res.Find("c1"); !approx(got, 1.0) {
		t.Errorf("P(c1) = %v", got)
	}
}

// A non-rewritable query over budget degrades all the way to Monte-Carlo,
// and the result is flagged as an estimate with its error bound.
func TestEvalDegradesToMonteCarlo(t *testing.T) {
	db := paperDB(t)
	// "select name" does not project the identifier, violating condition 4
	// of the rewritable class.
	if ok, _, err := db.IsRewritable("select name from customer where balance > 10000"); err != nil || ok {
		t.Fatalf("fixture query unexpectedly rewritable (ok=%v, err=%v)", ok, err)
	}
	res, err := db.Eval(context.Background(), "select name from customer where balance > 10000",
		EvalOptions{Limits: Limits{MaxCandidates: 1}, Samples: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "monte-carlo" {
		t.Errorf("method = %q, want monte-carlo", res.Method)
	}
	if res.Samples != 400 {
		t.Errorf("samples = %d, want 400", res.Samples)
	}
	if res.StdErr <= 0 || res.StdErr > 0.025000001 {
		t.Errorf("stderr = %v, want (0, 1/(2*sqrt(400))]", res.StdErr)
	}
	// John appears in every candidate: P = 1 exactly, even sampled.
	if got := res.Find("John"); !approx(got, 1.0) {
		t.Errorf("P(John) = %v", got)
	}
	// Mary's true probability is 0.2; the estimate must be within a few
	// standard errors.
	if got := res.Find("Mary"); got < 0.2-4*res.StdErr || got > 0.2+4*res.StdErr {
		t.Errorf("P(Mary) = %v, want within 4 stderr of 0.2", got)
	}
}

// Filtering an estimate keeps it an estimate: AtLeast and
// ConsistentAnswers replace the answers and nothing else, so a forced
// Monte-Carlo result and one the ladder degraded to keep their method,
// sample count, error bound and degradation chain.
func TestFilteredEstimateKeepsItsMetadata(t *testing.T) {
	db := paperDB(t)
	const q = "select name from customer where balance > 10000"
	for _, opts := range []EvalOptions{
		{Method: "monte-carlo", Samples: 400, Seed: 7},
		{Limits: Limits{MaxCandidates: 1}, Samples: 400, Seed: 7},
	} {
		res, err := db.Eval(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Method != "monte-carlo" || res.StdErr <= 0 || (opts.Method == "" && len(res.Degraded) == 0) {
			t.Fatalf("fixture: method %q, stderr %v, degraded %v", res.Method, res.StdErr, res.Degraded)
		}
		for name, cut := range map[string]*CleanResult{
			"AtLeast(0.5)":      res.AtLeast(0.5),
			"ConsistentAnswers": ConsistentAnswers(res),
		} {
			got, want := *cut, *res
			got.Answers, want.Answers = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (method %q): got method %q, samples %d, stderr %v, degraded %v; want %q, %d, %v, %v",
					name, opts.Method, cut.Method, cut.Samples, cut.StdErr, cut.Degraded,
					res.Method, res.Samples, res.StdErr, res.Degraded)
			}
			if len(cut.Answers) != 1 || cut.Answers[0].Values[0] != "John" {
				t.Errorf("%s (method %q): answers %+v, want John alone", name, opts.Method, cut.Answers)
			}
		}
	}
}

// The deterministic seed makes degraded runs reproducible.
func TestEvalMonteCarloReproducible(t *testing.T) {
	db := paperDB(t)
	opts := EvalOptions{Limits: Limits{MaxCandidates: 1}, Samples: 100, Seed: 42}
	a, err := db.Eval(context.Background(), "select name from customer", opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Eval(context.Background(), "select name from customer", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Answers) != len(b.Answers) {
		t.Fatalf("answer counts differ: %d vs %d", len(a.Answers), len(b.Answers))
	}
	for i := range a.Answers {
		if !approx(a.Answers[i].Prob, b.Answers[i].Prob) {
			t.Errorf("answer %d: %v vs %v", i, a.Answers[i].Prob, b.Answers[i].Prob)
		}
	}
}

// Under fault injection the result records the full degradation chain:
// the query is outside the rewritable class, a budget fault fails the
// exact rung mid-enumeration, and Monte-Carlo answers — with every
// abandoned rung and its reason on CleanResult.Degraded, in ladder order.
func TestEvalRecordsDegradationChainUnderFault(t *testing.T) {
	db := paperDB(t)
	// The first scan during exact enumeration fails as a budget overrun;
	// the fault then clears itself so the surviving rungs run clean.
	sched := faultinject.New(faultinject.Rule{
		Op:     storage.OpScan,
		N:      1,
		Err:    fmt.Errorf("injected: %w", ErrBudgetExceeded),
		OnFire: func() { db.d.Store.SetInjector(nil) },
	})
	db.d.Store.SetInjector(sched)
	// A grouped statement is outside the rewritable class, so the rewriting
	// rung is skipped, and has no lineage, so exact enumerates.
	res, err := db.Eval(context.Background(), "select name, count(*) from customer where balance > 10000 group by name",
		EvalOptions{Samples: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "monte-carlo" {
		t.Errorf("method = %q, want monte-carlo", res.Method)
	}
	want := []string{"rewrite(not-rewritable)", "exact(budget)"}
	if len(res.Degraded) != len(want) {
		t.Fatalf("Degraded = %v, want %v", res.Degraded, want)
	}
	for i := range want {
		if res.Degraded[i] != want[i] {
			t.Errorf("Degraded[%d] = %q, want %q", i, res.Degraded[i], want[i])
		}
	}
	if res.Elapsed <= 0 {
		t.Errorf("Elapsed = %v, want > 0", res.Elapsed)
	}
}

// A first-rung success — the rewriting's — records no degradation.
func TestEvalNoDegradationWhenExactAnswers(t *testing.T) {
	db := paperDB(t)
	res, err := db.Eval(context.Background(), "select id from customer", EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) != 0 {
		t.Errorf("Degraded = %v, want empty", res.Degraded)
	}
}

// Monte-Carlo attaches a per-answer Wald standard error: zero for an
// answer observed in every sample (p-hat = 1), about
// sqrt(p(1-p)/n) for uncertain answers, and never above the worst-case
// bound 1/(2*sqrt(n)). Regression test: previously every answer carried
// only the shared worst-case bound.
func TestMonteCarloPerAnswerStdErr(t *testing.T) {
	db := paperDB(t)
	const n = 400
	res, err := db.Eval(context.Background(), "select name from customer where balance > 10000",
		EvalOptions{Method: "monte-carlo", Samples: n, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	bound := 1 / (2 * math.Sqrt(n))
	if !approx(res.StdErr, bound) {
		t.Errorf("result StdErr = %v, want worst-case bound %v", res.StdErr, bound)
	}
	var sawCertain, sawUncertain bool
	for _, a := range res.Answers {
		if a.StdErr < 0 || a.StdErr > bound+1e-12 {
			t.Errorf("answer %v: StdErr = %v outside [0, %v]", a.Values, a.StdErr, bound)
		}
		want := math.Sqrt(a.Prob * (1 - a.Prob) / n)
		if want > bound {
			want = bound
		}
		if !approx(a.StdErr, want) {
			t.Errorf("answer %v: StdErr = %v, want %v for p-hat %v", a.Values, a.StdErr, want, a.Prob)
		}
		switch {
		case approx(a.Prob, 1):
			sawCertain = true
			// p-hat is n additions of 1/n, so it can sit a few ulps off 1;
			// the error must be negligible, not exactly zero.
			if a.StdErr > 1e-6 {
				t.Errorf("certain answer %v: StdErr = %v, want ~0", a.Values, a.StdErr)
			}
		case a.Prob > 0 && a.Prob < 1:
			sawUncertain = true
			if a.StdErr <= 0 || approx(a.StdErr, bound) {
				t.Errorf("uncertain answer %v: StdErr = %v, want in (0, bound)", a.Values, a.StdErr)
			}
		}
	}
	if !sawCertain || !sawUncertain {
		t.Fatalf("fixture must produce both certain and uncertain answers (certain=%v uncertain=%v)",
			sawCertain, sawUncertain)
	}
	// Exact evaluation carries no per-answer error at all.
	exact, err := db.CleanAnswers("select id from customer where balance > 10000")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range exact.Answers {
		if a.StdErr != 0 {
			t.Errorf("exact answer %v: StdErr = %v, want 0", a.Values, a.StdErr)
		}
	}
}

// Cancellation aborts the ladder with the typed sentinel; it must never
// silently degrade.
func TestEvalCanceled(t *testing.T) {
	db := paperDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.Eval(ctx, "select id from customer", EvalOptions{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("error = %v, want errors.Is(err, ErrCanceled)", err)
	}
	if ErrorReason(err) != "canceled" {
		t.Errorf("reason = %q, want canceled", ErrorReason(err))
	}
}

// An expired timeout surfaces as ErrDeadline through the facade.
func TestEvalDeadline(t *testing.T) {
	db := paperDB(t)
	_, err := db.Eval(context.Background(), "select id from customer",
		EvalOptions{Limits: Limits{Timeout: time.Nanosecond}})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("error = %v, want errors.Is(err, ErrDeadline)", err)
	}
	if ErrorReason(err) != "deadline" {
		t.Errorf("reason = %q, want deadline", ErrorReason(err))
	}
}

// A fault injected into candidate materialization surfaces
// errors.Is-matchable through the public facade. The statement is
// grouped, so exact materializes its candidates (an SPJ one it answers
// from one lineage query).
func TestFacadeSurfacesMaterializeFault(t *testing.T) {
	db := paperDB(t)
	boom := errors.New("disk on fire")
	db.d.Store.SetInjector(faultinject.FailNth("customer", storage.OpInsert, 2, boom))
	const grouped = "select id, count(*) from customer group by id"
	_, err := db.Eval(context.Background(), grouped, EvalOptions{Method: "exact"})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want errors.Is(err, boom)", err)
	}
	// The same fault aborts Eval's exact rung; as a hard storage error
	// (not a resource budget) it must NOT be degraded away.
	_, err = db.Eval(context.Background(), grouped, EvalOptions{})
	if !errors.Is(err, boom) {
		t.Fatalf("Eval error = %v, want errors.Is(err, boom)", err)
	}
}

// The enumeration-limit error is typed: callers can dispatch on
// ErrTooManyCandidates rather than matching the message.
func TestExactOverLimitTyped(t *testing.T) {
	db := paperDB(t)
	_, err := db.Eval(context.Background(), "select id from customer",
		EvalOptions{Method: "exact", Limits: Limits{MaxCandidates: 1}})
	if !errors.Is(err, ErrTooManyCandidates) {
		t.Fatalf("error = %v, want errors.Is(err, ErrTooManyCandidates)", err)
	}
	if !IsResourceError(err) {
		t.Error("candidate overflow should be a resource error")
	}
	if ErrorReason(err) != "candidates" {
		t.Errorf("reason = %q, want candidates", ErrorReason(err))
	}
}

// QueryCtx builds its engine per call (the budget is the engine's); that
// engine runs under the facade's worker setting, like Query's.
func TestQueryCtxEngineHonoursParallelism(t *testing.T) {
	db := paperDB(t).SetParallelism(3)
	const q = "select custid from customer"
	want, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.newEngine(Limits{MaxOutputRows: 2}).Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || !strings.Contains(got, "Gather[n=3]") {
		t.Errorf("QueryCtx's engine plans\n%s\nQuery's plans\n%s", got, want)
	}
}

// Output budgets apply to plain queries through the facade.
func TestQueryCtxOutputBudget(t *testing.T) {
	db := paperDB(t)
	_, err := db.QueryCtx(context.Background(), "select custid from customer", Limits{MaxOutputRows: 2})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("error = %v, want errors.Is(err, ErrBudgetExceeded)", err)
	}
}

// Method names one evaluator or, empty, the ladder; any other value is an
// error that lists the accepted ones.
func TestEvalRejectsUnknownMethod(t *testing.T) {
	db := paperDB(t)
	res, err := db.Eval(context.Background(), "select id from customer", EvalOptions{Method: "enumerate"})
	if res != nil || err == nil || !strings.Contains(err.Error(), `"exact", "rewrite", "monte-carlo" or ""`) {
		t.Fatalf("result %v, error %v; want an error naming the accepted methods", res, err)
	}
}
