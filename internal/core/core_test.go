package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"conquer/internal/dirty"
	"conquer/internal/exec"
	"conquer/internal/faultinject"
	"conquer/internal/qerr"
	"conquer/internal/rewrite"
	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/testdb"
	"conquer/internal/value"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// ---------------------------------------------------------------------------
// The paper's running examples
// ---------------------------------------------------------------------------

// Section 1 / Figure 1: card 111 is associated with a customer earning
// over $100K with probability 0.6.
func TestPaperFigure1(t *testing.T) {
	d := testdb.Figure1()
	q := sqlparse.MustParse(
		"select l.cardid from loyaltycard l, customer c where l.custfk = c.id and c.income > 100000")
	res, err := ExactCtx(context.Background(), d, q, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Find(value.Int(111)); !approx(got, 0.6) {
		t.Errorf("P(card 111) = %v, want 0.6", got)
	}
	// The same via rewriting; cardid is not the identifier, so the
	// rewritable formulation selects the identifiers too.
	q2 := sqlparse.MustParse(
		"select l.id, l.cardid from loyaltycard l, customer c where l.custfk = c.id and c.income > 100000")
	rw, err := ViaRewritingCtx(context.Background(), d, q2, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rw.Find(value.Str("t111"), value.Int(111)); !approx(got, 0.6) {
		t.Errorf("rewriting P(card 111) = %v, want 0.6", got)
	}
}

// Example 4: q1 = customers with balance > $10K. Clean answers:
// {(c1, 1), (c2, 0.2)}.
func TestPaperExample4(t *testing.T) {
	d := testdb.Figure2()
	q := sqlparse.MustParse("select id from customer where balance > 10000")
	res, err := ExactCtx(context.Background(), d, q, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Find(value.Str("c1")); !approx(got, 1.0) {
		t.Errorf("P(c1) = %v, want 1", got)
	}
	if got := res.Find(value.Str("c2")); !approx(got, 0.2) {
		t.Errorf("P(c2) = %v, want 0.2", got)
	}
	if res.Len() != 2 {
		t.Errorf("answers = %d", res.Len())
	}
}

// Example 5: the grouping-and-summing rewriting matches the exact answers
// for q1.
func TestPaperExample5(t *testing.T) {
	d := testdb.Figure2()
	q := sqlparse.MustParse("select id from customer where balance > 10000")
	exact, err := ExactCtx(context.Background(), d, q, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	rw, err := ViaRewritingCtx(context.Background(), d, q, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Equal(rw, 1e-9) {
		t.Errorf("rewriting != exact:\nexact: %+v\nrewrite: %+v", exact.Answers, rw.Answers)
	}
}

// Example 6: q2 over orders and customers. Clean answers:
// (o1,c1)=1, (o2,c1)=0.5, (o2,c2)=0.1.
func TestPaperExample6(t *testing.T) {
	d := testdb.Figure2()
	q := sqlparse.MustParse(
		"select o.id, c.id from orders o, customer c where o.cidfk = c.id and c.balance > 10000")
	for name, eval := range map[string]func() (*Result, error){
		"exact":     func() (*Result, error) { return ExactCtx(context.Background(), d, q, exec.Limits{}) },
		"rewriting": func() (*Result, error) { return ViaRewritingCtx(context.Background(), d, q, exec.Limits{}) },
	} {
		res, err := eval()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := res.Find(value.Str("o1"), value.Str("c1")); !approx(got, 1.0) {
			t.Errorf("%s P(o1,c1) = %v, want 1", name, got)
		}
		if got := res.Find(value.Str("o2"), value.Str("c1")); !approx(got, 0.5) {
			t.Errorf("%s P(o2,c1) = %v, want 0.5", name, got)
		}
		if got := res.Find(value.Str("o2"), value.Str("c2")); !approx(got, 0.1) {
			t.Errorf("%s P(o2,c2) = %v, want 0.1", name, got)
		}
		if res.Len() != 3 {
			t.Errorf("%s answers = %d", name, res.Len())
		}
	}
}

// Example 7: q3 is not rewritable; the naive rewriting double counts
// (returns c1 = 0.45) while the true clean answer is c1 = 0.3 and c2 has
// probability zero.
func TestPaperExample7(t *testing.T) {
	d := testdb.Figure2()
	q := sqlparse.MustParse(
		"select c.id from orders o, customer c where o.quantity < 5 and o.cidfk = c.id and c.balance > 25000")

	// Exact semantics: c1 = 0.3, c2 absent.
	exact, err := ExactCtx(context.Background(), d, q, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got := exact.Find(value.Str("c1")); !approx(got, 0.3) {
		t.Errorf("exact P(c1) = %v, want 0.3", got)
	}
	if got := exact.Find(value.Str("c2")); got != 0 {
		t.Errorf("exact P(c2) = %v, want 0", got)
	}

	// The rewriting refuses the query.
	if _, err := ViaRewritingCtx(context.Background(), d, q, exec.Limits{}); err == nil {
		t.Fatal("ViaRewriting must reject q3")
	}

	// The naive rewriting produces the wrong 0.45 — reproducing the
	// paper's double-counting demonstration.
	naive := rewrite.NaiveRewrite(d.Store.Catalog, q)
	res, err := evaluator(d).runRewritten(context.Background(), naive)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Find(value.Str("c1")); !approx(got, 0.45) {
		t.Errorf("naive P(c1) = %v, want the (incorrect) 0.45", got)
	}
}

// ---------------------------------------------------------------------------
// Cross-evaluator properties
// ---------------------------------------------------------------------------

func TestMonteCarloConvergesOnExample6(t *testing.T) {
	d := testdb.Figure2()
	q := sqlparse.MustParse(
		"select o.id, c.id from orders o, customer c where o.cidfk = c.id and c.balance > 10000")
	mc, err := MonteCarloCtx(context.Background(), d, q, 20000, 7, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactCtx(context.Background(), d, q, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range exact.Answers {
		got := mc.Find(a.Values...)
		if math.Abs(got-a.Prob) > 0.02 {
			t.Errorf("MC %v = %v, exact %v", a.Values, got, a.Prob)
		}
	}
}

func TestMonteCarloErrors(t *testing.T) {
	d := testdb.Figure2()
	q := sqlparse.MustParse("select id from customer")
	if _, err := MonteCarloCtx(context.Background(), d, q, 0, 1, exec.Limits{}); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := MonteCarloCtx(context.Background(), d, sqlparse.MustParse("select ghost from customer"), 2, 1, exec.Limits{}); err == nil {
		t.Error("bad query should fail")
	}
}

// randomDirtyDB builds a random two-relation dirty database with a foreign
// key from rel b to rel a, for property testing the rewriting against the
// exact evaluator.
func randomDirtyDB(rng *rand.Rand, nClustersA, nClustersB, maxDup int) *dirty.DB {
	store := storage.NewDB()
	aS := schema.MustRelation("parent",
		schema.Column{Name: "id", Type: value.KindString},
		schema.Column{Name: "score", Type: value.KindInt},
		schema.Column{Name: "prob", Type: value.KindFloat},
	)
	if err := aS.SetDirty("id", "prob"); err != nil {
		panic(err)
	}
	at := store.MustCreateTable(aS)
	aIDs := make([]string, 0, nClustersA)
	for i := 0; i < nClustersA; i++ {
		id := "a" + string(rune('0'+i))
		aIDs = append(aIDs, id)
		n := 1 + rng.Intn(maxDup)
		probs := randomProbs(rng, n)
		for j := 0; j < n; j++ {
			at.MustInsert(value.Str(id), value.Int(int64(rng.Intn(10))), value.Float(probs[j]))
		}
	}
	bS := schema.MustRelation("child",
		schema.Column{Name: "id", Type: value.KindString},
		schema.Column{Name: "afk", Type: value.KindString},
		schema.Column{Name: "qty", Type: value.KindInt},
		schema.Column{Name: "prob", Type: value.KindFloat},
	)
	if err := bS.SetDirty("id", "prob"); err != nil {
		panic(err)
	}
	bt := store.MustCreateTable(bS)
	for i := 0; i < nClustersB; i++ {
		id := "b" + string(rune('0'+i))
		n := 1 + rng.Intn(maxDup)
		probs := randomProbs(rng, n)
		for j := 0; j < n; j++ {
			bt.MustInsert(value.Str(id), value.Str(aIDs[rng.Intn(len(aIDs))]),
				value.Int(int64(rng.Intn(10))), value.Float(probs[j]))
		}
	}
	return dirty.New(store)
}

func randomProbs(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	sum := 0.0
	for i := range out {
		out[i] = rng.Float64() + 0.01
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Theorem 1 as a randomized property: on random dirty databases, the
// rewriting matches exact candidate enumeration for rewritable queries.
func TestTheorem1Property(t *testing.T) {
	queries := []string{
		"select id from parent where score > 4",
		"select b.id from child b, parent a where b.afk = a.id and a.score > 2",
		"select b.id, a.id from child b, parent a where b.afk = a.id and a.score > 2 and b.qty < 7",
		"select b.id, b.qty from child b, parent a where b.afk = a.id",
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		d := randomDirtyDB(rng, 2+rng.Intn(2), 2+rng.Intn(2), 3)
		if err := d.Validate(); err != nil {
			t.Fatalf("trial %d: fixture invalid: %v", trial, err)
		}
		for _, qs := range queries {
			q := sqlparse.MustParse(qs)
			exact, err := ExactCtx(context.Background(), d, q, exec.Limits{})
			if err != nil {
				t.Fatalf("trial %d %q exact: %v", trial, qs, err)
			}
			rw, err := ViaRewritingCtx(context.Background(), d, q, exec.Limits{})
			if err != nil {
				t.Fatalf("trial %d %q rewrite: %v", trial, qs, err)
			}
			if !exact.Equal(rw, 1e-9) {
				t.Errorf("trial %d query %q:\nexact:   %v\nrewrite: %v",
					trial, qs, exact.Answers, rw.Answers)
			}
		}
	}
}

// Probabilities of all candidates sum to 1, so a tautological query's
// answer probability is the full mass per root tuple group.
func TestAnswerProbabilityBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := randomDirtyDB(rng, 3, 3, 3)
	q := sqlparse.MustParse("select b.id from child b, parent a where b.afk = a.id")
	res, err := ViaRewritingCtx(context.Background(), d, q, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Answers {
		if a.Prob <= 0 || a.Prob > 1+1e-9 {
			t.Errorf("answer %v probability %v out of (0,1]", a.Values, a.Prob)
		}
		// No selection: every child id is certain.
		if !approx(a.Prob, 1.0) {
			t.Errorf("unfiltered child %v should have probability 1, got %v", a.Values, a.Prob)
		}
	}
}

// Consistent answers (Arenas et al.) = clean answers with probability 1:
// on Figure 2, the certain answers of Dfn-5 enumeration are exactly c1.
func TestConsistentAnswersSpecialCase(t *testing.T) {
	d := testdb.Figure2()
	q := sqlparse.MustParse("select id from customer where balance > 10000")
	res, err := ExactCtx(context.Background(), d, q, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var certain []Answer
	for _, a := range res.Answers {
		if a.Prob >= 1-1e-9 {
			certain = append(certain, a)
		}
	}
	if len(certain) != 1 || !value.RowsIdentical(certain[0].Values, []value.Value{value.Str("c1")}) || !approx(certain[0].Prob, 1) {
		t.Errorf("consistent answers = %+v, want exactly c1", certain)
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Columns: []string{"x"}}
	r.Answers = append(r.Answers, Answer{Values: []value.Value{value.Str("b")}, Prob: 0.5})
	r.Answers = append(r.Answers, Answer{Values: []value.Value{value.Str("a")}, Prob: 0.25})
	r.sortAnswers()
	if r.Answers[0].Values[0].AsString() != "a" {
		t.Error("sortAnswers order")
	}
	if r.Find(value.Str("zz")) != 0 {
		t.Error("Find miss should be 0")
	}
	other := &Result{Columns: []string{"x"}, Answers: []Answer{
		{Values: []value.Value{value.Str("a")}, Prob: 0.25},
	}}
	if r.Equal(other, 1e-9) {
		t.Error("different lengths should not be Equal")
	}
}

// The limit bounds the candidates of the relations the statement names —
// customer has 4, the whole database 8 — whether exact answers from the
// lineage or on the candidates, and the refusal comes before any query:
// with every scan failing, it is still the refusal, in enumeration's words.
func TestExactRespectsLimit(t *testing.T) {
	ctx := context.Background()
	for _, sql := range []string{"select id from customer", "select id, count(*) from customer group by id"} {
		d := testdb.Figure2()
		q := sqlparse.MustParse(sql)
		d.Store.SetInjector(faultinject.FailNth("", storage.OpScan, 1, errBoom))
		want := fmt.Sprintf("dirty: 4 candidate databases exceed enumeration limit 3: %v", qerr.ErrTooManyCandidates)
		if _, err := ExactCtx(ctx, d, q, exec.Limits{MaxCandidates: 3}); !errors.Is(err, qerr.ErrTooManyCandidates) || err.Error() != want {
			t.Errorf("%s: limit below customer's candidate count: %v, want %q", sql, err, want)
		}
		d.Store.SetInjector(nil)
		worlds := 4
		if _, err := rewrite.Lineage(d.Store.Catalog, q); err == nil {
			worlds = 1 // the lineage query
		}
		if res, err := ExactCtx(ctx, d, q, exec.Limits{MaxCandidates: 4}); err != nil || res.Stats.Queries != worlds {
			t.Errorf("%s: limit at customer's candidate count: %v, %v; want %d queries", sql, res, err, worlds)
		}
	}
}

func TestExactPropagatesQueryErrors(t *testing.T) {
	d := testdb.Figure2()
	if _, err := ExactCtx(context.Background(), d, sqlparse.MustParse("select ghost from customer"), exec.Limits{}); err == nil {
		t.Error("bad query should fail")
	}
}

func TestRunRewrittenValidation(t *testing.T) {
	d := testdb.Figure2()
	// Last column not numeric.
	bad := sqlparse.MustParse("select id, name from customer")
	if _, err := evaluator(d).runRewritten(context.Background(), bad); err == nil {
		t.Error("non-numeric trailing column should fail")
	}
}

// The Figure-3 sanity check: summing rewritten probabilities over all
// groups of an unfiltered root-only projection recovers 1 per cluster.
func TestProbabilityMassPerCluster(t *testing.T) {
	d := testdb.Figure2()
	res, err := ViaRewritingCtx(context.Background(), d, sqlparse.MustParse("select id from customer"), exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Answers {
		if !approx(a.Prob, 1.0) {
			t.Errorf("cluster %v mass %v, want 1", a.Values, a.Prob)
		}
	}
}

func TestNotRewritableErrorMessage(t *testing.T) {
	d := testdb.Figure2()
	_, err := ViaRewritingCtx(context.Background(), d, sqlparse.MustParse(
		"select c.id from orders o, customer c where o.cidfk = c.id"), exec.Limits{})
	if err == nil || !strings.Contains(err.Error(), "condition 4") {
		t.Errorf("error should explain condition 4: %v", err)
	}
}

// Adding a conjunct can only shrink an answer's probability: the
// candidates supporting the stricter query are a subset of those
// supporting the looser one.
func TestSelectionMonotonicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		d := randomDirtyDB(rng, 3, 3, 3)
		loose := sqlparse.MustParse(
			"select b.id from child b, parent a where b.afk = a.id and a.score > 2")
		strict := sqlparse.MustParse(
			"select b.id from child b, parent a where b.afk = a.id and a.score > 2 and b.qty < 6")
		lr, err := ViaRewritingCtx(context.Background(), d, loose, exec.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		sr, err := ViaRewritingCtx(context.Background(), d, strict, exec.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range sr.Answers {
			if got := lr.Find(a.Values...); a.Prob > got+1e-9 {
				t.Errorf("trial %d: stricter query raised P(%v): %v > %v",
					trial, a.Values, a.Prob, got)
			}
		}
	}
}

// The expected count of the stricter query is likewise bounded.
func TestExpectedCountMonotonicity(t *testing.T) {
	d := testdb.Figure2()
	loose, err := ExactCtx(context.Background(), d, sqlparse.MustParse("select id from customer where balance > 10000"), exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := ExactCtx(context.Background(), d, sqlparse.MustParse("select id from customer where balance > 25000"), exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if probMass(strict) > probMass(loose)+1e-9 {
		t.Errorf("E[COUNT] not monotone: %v > %v", probMass(strict), probMass(loose))
	}
}

// probMass is the sum of r's probabilities: the expected answer count.
func probMass(r *Result) float64 {
	total := 0.0
	for _, a := range r.Answers {
		total += a.Prob
	}
	return total
}
