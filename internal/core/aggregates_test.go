package core

import (
	"context"
	"math"
	"testing"

	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/exec"
	"conquer/internal/sqlparse"
	"conquer/internal/testdb"
	"conquer/internal/value"
)

// E[COUNT] over the clean answers equals the candidate-weighted average
// answer-set size, computed here by direct enumeration.
func TestExpectedCountMatchesEnumeration(t *testing.T) {
	d := testdb.Figure2()
	q := sqlparse.MustParse("select id from customer where balance > 10000")
	res, err := ExactCtx(context.Background(), d, q, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	got := ExpectedCount(res)

	// Direct enumeration: Σ_cand P(cand)·|answers(cand)|. c1 answers in
	// every candidate; c2 only in those that pick Mary (probability 0.2),
	// so the expectation is 1.2.
	want := 0.0
	err = d.EnumerateCandidates(0, func(c *dirty.Candidate) bool {
		world, merr := d.Materialize(c)
		if merr != nil {
			t.Fatal(merr)
		}
		r, qerr := engine.New(world).QueryStmt(q)
		if qerr != nil {
			t.Fatal(qerr)
		}
		want += c.Prob * float64(len(distinctRows(r.Rows)))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(want-1.2) > 1e-9 {
		t.Fatalf("enumeration self-check: %v", want)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("E[COUNT] = %v, want %v", got, want)
	}
}

func TestExpectedSum(t *testing.T) {
	d := testdb.Figure2()
	// Sum of quantities of orders joined to >10K customers.
	q := sqlparse.MustParse(
		"select o.id, c.id, o.quantity from orders o, customer c where o.cidfk = c.id and c.balance > 10000")
	res, err := ExactCtx(context.Background(), d, q, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExpectedSum(res, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Answers: (o1,c1,3) p=1; (o2,c1,2) p=.5; (o2,c2,5) p=.1
	want := 3.0*1 + 2.0*0.5 + 5.0*0.1
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("E[SUM] = %v, want %v", got, want)
	}
	// Errors.
	if _, err := ExpectedSum(res, 99); err == nil {
		t.Error("out-of-range column should fail")
	}
	if _, err := ExpectedSum(res, 0); err == nil {
		t.Error("non-numeric column should fail")
	}
}

func TestExpectedSumSkipsNull(t *testing.T) {
	r := &Result{Columns: []string{"x"}}
	r.Answers = []Answer{
		{Values: []value.Value{value.Null()}, Prob: 0.5},
		{Values: []value.Value{value.Int(4)}, Prob: 0.5},
	}
	got, err := ExpectedSum(r, 0)
	if err != nil || got != 2 {
		t.Errorf("E[SUM] with NULL = %v, %v", got, err)
	}
}

// Monte-Carlo estimates of the linear aggregates converge to the
// closed-form expectations.
func TestEstimateAggregateConvergesToClosedForm(t *testing.T) {
	d := testdb.Figure2()
	q := sqlparse.MustParse(
		"select o.id, c.id, o.quantity from orders o, customer c where o.cidfk = c.id and c.balance > 10000")
	res, err := ExactCtx(context.Background(), d, q, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	wantCount := ExpectedCount(res)
	wantSum, err := ExpectedSum(res, 2)
	if err != nil {
		t.Fatal(err)
	}

	est, err := evaluator(d).EstimateAggregate(context.Background(), q, AggregateCount, -1, 20000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-wantCount) > 0.05 {
		t.Errorf("MC E[COUNT] = %v, closed form %v", est.Mean, wantCount)
	}
	if est.Samples != 20000 {
		t.Errorf("samples = %d", est.Samples)
	}

	est, err = evaluator(d).EstimateAggregate(context.Background(), q, AggregateSum, 2, 20000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-wantSum) > 0.1 {
		t.Errorf("MC E[SUM] = %v, closed form %v", est.Mean, wantSum)
	}
}

func TestEstimateAggregateNonLinear(t *testing.T) {
	d := testdb.Figure2()
	q := sqlparse.MustParse("select id, balance from customer where balance > 10000")
	// MIN(balance) over answers: candidates give balance sets
	// {20K or 30K} ∪ ({27K} with p .2). Enumerate outcomes:
	//   John=20K (p.7): Mary in (p.2) -> min 20K; out (p.8) -> 20K => 20K, p=.7
	//   John=30K (p.3): Mary in (.2) -> 27K (p .06); out -> 30K (p .24)
	// E[MIN] = .7*20000 + .06*27000 + .24*30000 = 14000+1620+7200 = 22820.
	est, err := evaluator(d).EstimateAggregate(context.Background(), q, AggregateMin, 1, 30000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-22820) > 150 {
		t.Errorf("MC E[MIN] = %v, want ~22820", est.Mean)
	}
	if est.StdDev <= 0 {
		t.Error("MIN varies across candidates; StdDev should be positive")
	}

	// AVG and MAX run without error and stay within the value range.
	for _, kind := range []AggregateKind{AggregateAvg, AggregateMax} {
		est, err := evaluator(d).EstimateAggregate(context.Background(), q, kind, 1, 2000, 12)
		if err != nil {
			t.Fatal(err)
		}
		if est.Mean < 20000 || est.Mean > 30000 {
			t.Errorf("kind %d mean %v outside value range", kind, est.Mean)
		}
	}
}

func TestEstimateAggregateErrors(t *testing.T) {
	d := testdb.Figure2()
	q := sqlparse.MustParse("select id, name from customer")
	if _, err := evaluator(d).EstimateAggregate(context.Background(), q, AggregateSum, 1, 10, 1); err == nil {
		t.Error("non-numeric sum should fail")
	}
	if _, err := evaluator(d).EstimateAggregate(context.Background(), q, AggregateSum, 99, 10, 1); err == nil {
		t.Error("out-of-range column should fail")
	}
	if _, err := evaluator(d).EstimateAggregate(context.Background(), q, AggregateCount, -1, 0, 1); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := evaluator(d).EstimateAggregate(context.Background(), q, AggregateKind(99), 0, 10, 1); err == nil {
		t.Error("unknown kind should fail")
	}
}
