package conquer

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// paperDB builds the Figure 2 database through the public API.
func paperDB(t testing.TB) *Database {
	t.Helper()
	db := New()
	db.MustCreateTable("customer",
		Columns("custid STRING", "name STRING", "balance FLOAT"),
		WithDirty("id", "prob"))
	db.MustInsert("customer", "m1", "John", 20000.0, "c1", 0.7)
	db.MustInsert("customer", "m2", "John", 30000.0, "c1", 0.3)
	db.MustInsert("customer", "m3", "Mary", 27000.0, "c2", 0.2)
	db.MustInsert("customer", "m4", "Marion", 5000.0, "c2", 0.8)

	db.MustCreateTable("orders",
		Columns("orderid STRING", "cidfk STRING", "quantity INT"),
		WithDirty("id", "prob"),
		WithForeignKey("cidfk", "customer", "custid"))
	db.MustInsert("orders", "11", "c1", 3, "o1", 1.0)
	db.MustInsert("orders", "12", "c1", 2, "o2", 0.5)
	db.MustInsert("orders", "13", "c2", 5, "o2", 0.5)
	return db
}

func TestPublicAPIQuickstart(t *testing.T) {
	db := paperDB(t)
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := db.CleanAnswers("select id from customer where balance > 10000")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Find("c1"); !approx(got, 1.0) {
		t.Errorf("P(c1) = %v", got)
	}
	if got := res.Find("c2"); !approx(got, 0.2) {
		t.Errorf("P(c2) = %v", got)
	}
	if res.Find("ghost") != 0 {
		t.Error("missing answer should be 0")
	}
}

func TestPublicAPIJoinCleanAnswers(t *testing.T) {
	db := paperDB(t)
	res, err := db.CleanAnswers(
		"select o.id, c.id from orders o, customer c where o.cidfk = c.id and c.balance > 10000")
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]string]float64{
		{"o1", "c1"}: 1.0, {"o2", "c1"}: 0.5, {"o2", "c2"}: 0.1,
	}
	for k, p := range want {
		if got := res.Find(k[0], k[1]); !approx(got, p) {
			t.Errorf("P(%v) = %v, want %v", k, got, p)
		}
	}
}

func TestPublicAPIExactAndMonteCarlo(t *testing.T) {
	db := paperDB(t)
	q := "select id from customer where balance > 10000"
	exact, err := db.Eval(context.Background(), q, EvalOptions{Method: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := db.Eval(context.Background(), q, EvalOptions{Method: "monte-carlo", Samples: 20000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range exact.Answers {
		if math.Abs(mc.Find(a.Values...)-a.Prob) > 0.02 {
			t.Errorf("MC diverges for %v", a.Values)
		}
	}
}

func TestPublicAPIRewriteSQL(t *testing.T) {
	db := paperDB(t)
	sql, err := db.RewriteSQL("select id from customer where balance > 10000")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "SUM(customer.prob)") || !strings.Contains(sql, "GROUP BY id") {
		t.Errorf("rewritten SQL: %s", sql)
	}
}

func TestPublicAPIIsRewritable(t *testing.T) {
	db := paperDB(t)
	ok, _, err := db.IsRewritable("select id from customer")
	if err != nil || !ok {
		t.Errorf("q1 should be rewritable: %v %v", ok, err)
	}
	ok, reasons, err := db.IsRewritable(
		"select c.id from orders o, customer c where o.cidfk = c.id")
	if err != nil {
		t.Fatal(err)
	}
	if ok || len(reasons) == 0 {
		t.Errorf("Example-7 query should be rejected with reasons: %v %v", ok, reasons)
	}
	if _, _, err := db.IsRewritable("not sql"); err == nil {
		t.Error("bad SQL should error")
	}
}

func TestPublicAPICleanAnswersAugmented(t *testing.T) {
	db := paperDB(t)
	// Example 7's query: rejected plainly, repaired by augmentation.
	q := "select c.id from orders o, customer c where o.quantity < 5 and o.cidfk = c.id and c.balance > 25000"
	if _, err := db.CleanAnswers(q); err == nil {
		t.Fatal("plain CleanAnswers must reject q3")
	}
	res, augmented, err := db.CleanAnswersAugmented(q)
	if err != nil {
		t.Fatal(err)
	}
	if !augmented {
		t.Error("q3 should be augmented")
	}
	// Augmented answers are per (order, customer): (o1, c1) with John's
	// 30K tuple -> 0.3; o2's c1 tuple also quantifies but with quantity 2
	// < 5 and balance 30K -> (o2, c1) = 0.15.
	if got := res.Find("o1", "c1"); !approx(got, 0.3) {
		t.Errorf("P(o1, c1) = %v, want 0.3", got)
	}
	if got := res.Find("o2", "c1"); !approx(got, 0.15) {
		t.Errorf("P(o2, c1) = %v, want 0.15", got)
	}
	// Exact enumeration of the augmented query agrees.
	exact, err := db.Eval(context.Background(), "select o.id, c.id from orders o, customer c where o.quantity < 5 and o.cidfk = c.id and c.balance > 25000", EvalOptions{Method: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range exact.Answers {
		if got := res.Find(a.Values...); !approx(got, a.Prob) {
			t.Errorf("augmented vs exact mismatch at %v: %v vs %v", a.Values, got, a.Prob)
		}
	}
	// A rewritable query passes through unaugmented.
	_, augmented, err = db.CleanAnswersAugmented("select id from customer")
	if err != nil || augmented {
		t.Errorf("pass-through: augmented=%v err=%v", augmented, err)
	}
	// Other violations still fail.
	if _, _, err := db.CleanAnswersAugmented("select o.id, c.id from orders o, customer c"); err == nil {
		t.Error("disconnected join graph must still fail")
	}
	if _, _, err := db.CleanAnswersAugmented("not sql"); err == nil {
		t.Error("bad SQL must fail")
	}
}

func TestPublicAPIQueryAndExplain(t *testing.T) {
	db := paperDB(t)
	rows, err := db.Query("select custid, balance from customer order by balance desc limit 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 2 || rows.Rows[0][0].(string) != "m2" {
		t.Errorf("rows = %v", rows.Rows)
	}
	plan, err := db.Explain("select id from customer where balance > 10000")
	if err != nil || !strings.Contains(plan, "Scan") {
		t.Errorf("explain: %v %v", plan, err)
	}
}

func TestPublicAPIMatchAndAssign(t *testing.T) {
	db := New()
	db.MustCreateTable("people",
		Columns("name STRING", "city STRING"),
		WithDirty("id", "prob"))
	db.MustInsert("people", "John Smith", "Toronto", nil, nil)
	db.MustInsert("people", "Jon Smith", "Toronto", nil, nil)
	db.MustInsert("people", "Mary Jones", "Ottawa", nil, nil)
	n, err := db.MatchTuples("people", []string{"name", "city"}, "p", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("clusters = %d", n)
	}
	if err := db.AssignProbabilities("people", []string{"name", "city"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Validate(); err != nil {
		t.Errorf("pipeline output should validate: %v", err)
	}
	res, err := db.CleanAnswers("select id from people where city = 'Toronto'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Find("p0") <= 0 {
		t.Error("John cluster should be a clean answer")
	}
}

func TestPublicAPIPropagate(t *testing.T) {
	db := New()
	db.MustCreateTable("customer",
		Columns("custid STRING", "name STRING"),
		WithDirty("id", "prob"))
	db.MustInsert("customer", "m1", "John", "c1", 0.6)
	db.MustInsert("customer", "m2", "John", "c1", 0.4)
	db.MustCreateTable("orders",
		Columns("custfk STRING"),
		WithDirty("id", "prob"),
		WithForeignKey("custfk", "customer", "custid"))
	db.MustInsert("orders", "m2", "o1", 1.0)
	changed, err := db.Propagate()
	if err != nil {
		t.Fatal(err)
	}
	if changed != 1 {
		t.Errorf("changed = %d", changed)
	}
	rows, err := db.Query("select custfk from orders")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Rows[0][0].(string) != "c1" {
		t.Errorf("propagated fk = %v", rows.Rows[0][0])
	}
}

func TestPublicAPICandidateCount(t *testing.T) {
	db := paperDB(t)
	n, err := db.CandidateCount()
	if err != nil || n != "8" {
		t.Errorf("candidates = %q (%v), want 8", n, err)
	}
}

func TestPublicAPIConsistentAnswers(t *testing.T) {
	db := paperDB(t)
	res, err := db.CleanAnswers("select id from customer where balance > 10000")
	if err != nil {
		t.Fatal(err)
	}
	cons := ConsistentAnswers(res)
	if len(cons.Answers) != 1 || cons.Find("c1") != 1.0 {
		t.Errorf("consistent answers: %+v", cons.Answers)
	}
}

// An answer every candidate yields is certain, even where its cluster's
// probabilities sum to 1 only within the tolerance Validate allows.
func TestConsistentAnswersKeepAClusterThatSumsToOneWithinTolerance(t *testing.T) {
	db := New()
	db.MustCreateTable("t", Columns("v INT"), WithDirty("id", "prob"))
	db.MustInsert("t", 1, "a", 0.5)
	db.MustInsert("t", 2, "a", 0.5-5e-7)
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := db.CleanAnswers("select id from t")
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Find("a"); !approx(p, 1-5e-7) {
		t.Fatalf("P(a) = %v, want the cluster's sum", p)
	}
	if cons := ConsistentAnswers(res); len(cons.Answers) != 1 || cons.Answers[0].Values[0] != "a" {
		t.Errorf("consistent answers %+v, want a", cons.Answers)
	}
}

func TestPublicAPICSVRoundTrip(t *testing.T) {
	db := paperDB(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "cust.csv")
	if err := db.SaveCSV("customer", path); err != nil {
		t.Fatal(err)
	}
	db2 := New()
	db2.MustCreateTable("customer",
		Columns("custid STRING", "name STRING", "balance FLOAT"),
		WithDirty("id", "prob"))
	if err := db2.LoadCSV("customer", path); err != nil {
		t.Fatal(err)
	}
	res, err := db2.CleanAnswers("select id from customer where balance > 10000")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Find("c2"), 0.2) {
		t.Error("CSV round trip lost data")
	}
	if err := db.SaveCSV("ghost", path); err == nil {
		t.Error("unknown table save should fail")
	}
	if err := db2.LoadCSV("ghost", path); err == nil {
		t.Error("unknown table load should fail")
	}
}

func TestPublicAPINormalize(t *testing.T) {
	db := New()
	db.MustCreateTable("t", Columns("a STRING"), WithDirty("id", "prob"))
	db.MustInsert("t", "x", "c1", 3.0)
	db.MustInsert("t", "y", "c1", 1.0)
	if err := db.Validate(); err == nil {
		t.Error("unnormalized should fail validation")
	}
	if err := db.NormalizeProbabilities(); err != nil {
		t.Fatal(err)
	}
	if err := db.Validate(); err != nil {
		t.Errorf("normalized should validate: %v", err)
	}
}

func TestPublicAPIErrors(t *testing.T) {
	db := New()
	if err := db.CreateTable("t", Columns("a BLOB")); err == nil {
		t.Error("bad type should fail")
	}
	if err := db.Insert("ghost", 1); err == nil {
		t.Error("unknown table insert should fail")
	}
	db.MustCreateTable("t", Columns("a INT"))
	if err := db.Insert("t", struct{}{}); err == nil {
		t.Error("unsupported Go type should fail")
	}
	if _, err := db.CleanAnswers("select a from t"); err == nil {
		t.Error("clean relation should be rejected by the rewriting")
	}
	if _, err := db.CleanAnswers("not sql"); err == nil {
		t.Error("bad SQL should fail")
	}
	if _, err := db.Eval(context.Background(), "not sql", EvalOptions{Method: "exact"}); err == nil {
		t.Error("bad SQL exact should fail")
	}
	if _, err := db.Eval(context.Background(), "not sql", EvalOptions{Method: "monte-carlo", Samples: 10, Seed: 1}); err == nil {
		t.Error("bad SQL MC should fail")
	}
	if _, err := db.RewriteSQL("not sql"); err == nil {
		t.Error("bad SQL rewrite should fail")
	}
	if _, err := db.MatchTuples("ghost", nil, "p", 0); err == nil {
		t.Error("unknown table match should fail")
	}
	if err := db.AssignProbabilities("ghost", nil); err == nil {
		t.Error("unknown table assign should fail")
	}
}

func TestCleanResultString(t *testing.T) {
	db := paperDB(t)
	res, err := db.CleanAnswers("select id from customer where balance > 10000")
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.Contains(s, "prob") || !strings.Contains(s, "c1") {
		t.Errorf("String():\n%s", s)
	}
}

func TestColumnsParser(t *testing.T) {
	cols := Columns("a INT", "b", "c FLOAT")
	if cols[0].Type != "INT" || cols[1].Type != "STRING" || cols[2].Name != "c" {
		t.Errorf("Columns = %+v", cols)
	}
}

func TestTopKAndAtLeast(t *testing.T) {
	db := paperDB(t)
	res, err := db.CleanAnswers(
		"select o.id, c.id from orders o, customer c where o.cidfk = c.id and c.balance > 10000")
	if err != nil {
		t.Fatal(err)
	}
	top := res.TopK(2)
	if len(top) != 2 || !approx(top[0].Prob, 1.0) || !approx(top[1].Prob, 0.5) {
		t.Errorf("TopK(2) = %+v", top)
	}
	if len(res.TopK(99)) != 3 || len(res.TopK(-1)) != 0 {
		t.Error("TopK bounds")
	}
	cut := res.AtLeast(0.5)
	if len(cut.Answers) != 2 {
		t.Errorf("AtLeast(0.5) = %+v", cut.Answers)
	}
	if len(res.AtLeast(0.0).Answers) != 3 {
		t.Error("AtLeast(0) keeps everything")
	}
}

func TestColumnsBlankSpec(t *testing.T) {
	db := New()
	if err := db.CreateTable("t", Columns("")); err == nil {
		t.Error("blank column spec should be rejected by CreateTable")
	}
}

func TestPublicAPIUncertaintyBits(t *testing.T) {
	db := paperDB(t)
	bits, err := db.UncertaintyBits()
	if err != nil {
		t.Fatal(err)
	}
	if bits <= 0 || bits > 4 {
		t.Errorf("uncertainty = %v bits, expected a small positive value", bits)
	}
}
