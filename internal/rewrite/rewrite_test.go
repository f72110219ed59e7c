package rewrite

import (
	"errors"
	"strings"
	"testing"

	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/testdb"
	"conquer/internal/value"
)

func fig2Catalog() *schema.Catalog { return testdb.Figure2().Store.Catalog }

func TestAnalyzeSingleRelation(t *testing.T) {
	// Paper q1: rewritable, root = the single relation.
	a, err := Analyze(fig2Catalog(), sqlparse.MustParse("select id from customer where balance > 10000"))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Rewritable {
		t.Fatalf("q1 should be rewritable: %v", a.Reasons)
	}
	if a.Root != "customer" {
		t.Errorf("root = %q", a.Root)
	}
}

func TestAnalyzeForeignKeyJoin(t *testing.T) {
	// Paper q2: order joins customer through cidfk = id; root is order.
	a, err := Analyze(fig2Catalog(), sqlparse.MustParse(
		"select o.id, c.id from orders o, customer c where o.cidfk = c.id and c.balance > 10000"))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Rewritable {
		t.Fatalf("q2 should be rewritable: %v", a.Reasons)
	}
	if a.Root != "o" {
		t.Errorf("root = %q, want o", a.Root)
	}
	if len(a.Edges) != 1 || a.Edges[0].Kind != EdgeFKToID || a.Edges[0].From != "o" || a.Edges[0].To != "c" {
		t.Errorf("edges = %+v", a.Edges)
	}
}

func TestAnalyzeExample7NotRewritable(t *testing.T) {
	// Paper q3 (Example 7): root identifier (order.id) not selected.
	a, err := Analyze(fig2Catalog(), sqlparse.MustParse(
		"select c.id from orders o, customer c where o.quantity < 5 and o.cidfk = c.id and c.balance > 25000"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rewritable {
		t.Fatal("q3 must not be rewritable (Example 7)")
	}
	joined := strings.Join(ReasonTexts(a.Reasons), "; ")
	if !strings.Contains(joined, "condition 4") {
		t.Errorf("reasons should cite condition 4: %v", a.Reasons)
	}
}

func TestAnalyzeReversedJoinDirection(t *testing.T) {
	// Same join written id = fk still yields arc o -> c.
	a, err := Analyze(fig2Catalog(), sqlparse.MustParse(
		"select o.id from orders o, customer c where c.id = o.cidfk"))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Rewritable || a.Root != "o" {
		t.Errorf("rewritable=%v root=%q reasons=%v", a.Rewritable, a.Root, a.Reasons)
	}
}

func TestAnalyzeNonIdentifierJoin(t *testing.T) {
	a, err := Analyze(fig2Catalog(), sqlparse.MustParse(
		"select o.id from orders o, customer c where o.orderid = c.custid"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rewritable {
		t.Fatal("non-identifier join must violate condition 1")
	}
	if !strings.Contains(strings.Join(ReasonTexts(a.Reasons), ";"), "condition 1") {
		t.Errorf("reasons: %v", a.Reasons)
	}
}

func TestAnalyzeDisconnected(t *testing.T) {
	a, err := Analyze(fig2Catalog(), sqlparse.MustParse(
		"select o.id, c.id from orders o, customer c"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rewritable {
		t.Fatal("cross join must violate condition 2")
	}
}

func TestAnalyzeNonSPJInput(t *testing.T) {
	cat := fig2Catalog()
	cases := []string{
		"select distinct id from customer",
		"select id from customer group by id",
		"select id from customer limit 3",
		"select sum(prob) from customer",
		"select * from customer",
	}
	for _, q := range cases {
		a, err := Analyze(cat, sqlparse.MustParse(q))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if a.Rewritable {
			t.Errorf("%q should not be rewritable", q)
		}
	}
}

func TestAnalyzeNonEqualityJoin(t *testing.T) {
	a, err := Analyze(fig2Catalog(), sqlparse.MustParse(
		"select o.id from orders o, customer c where o.cidfk = c.id and o.quantity > c.balance"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rewritable {
		t.Fatal("non-equality cross-relation predicate must be rejected")
	}
}

func TestAnalyzeCleanRelationRejected(t *testing.T) {
	d := testdb.Figure2()
	clean := schema.MustRelation("nation", schema.Column{Name: "nid", Type: value.KindString})
	d.Store.MustCreateTable(clean)
	a, err := Analyze(d.Store.Catalog, sqlparse.MustParse("select nid from nation"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rewritable {
		t.Fatal("clean relation should be rejected until marked dirty")
	}
}

func TestAnalyzeSelfJoin(t *testing.T) {
	a, err := Analyze(fig2Catalog(), sqlparse.MustParse(
		"select c1.id, c2.id from customer c1, customer c2 where c1.id = c2.id"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rewritable {
		t.Fatal("self join must violate condition 3")
	}
	if !strings.Contains(strings.Join(ReasonTexts(a.Reasons), ";"), "condition 3") {
		t.Errorf("reasons: %v", a.Reasons)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	cat := fig2Catalog()
	if _, err := Analyze(cat, sqlparse.MustParse("select x from ghost")); err == nil {
		t.Error("unknown relation should error")
	}
	if _, err := Analyze(cat, sqlparse.MustParse("select ghost from customer")); err == nil {
		t.Error("unknown column should error")
	}
	if _, err := Analyze(cat, sqlparse.MustParse("select a.id from customer a, orders a")); err == nil {
		t.Error("duplicate alias should error")
	}
	if _, err := Analyze(cat, sqlparse.MustParse("select id from customer c, orders o where id = 'c1'")); err == nil {
		t.Error("ambiguous column should error")
	}
}

func TestRewriteCleanSingleRelation(t *testing.T) {
	// Example 5's rewriting.
	rw, err := RewriteClean(fig2Catalog(), sqlparse.MustParse("select id from customer where balance > 10000"))
	if err != nil {
		t.Fatal(err)
	}
	sql := rw.SQL()
	want := "SELECT id, SUM(customer.prob) AS prob FROM customer WHERE balance > 10000 GROUP BY id"
	if sql != want {
		t.Errorf("rewritten SQL:\n got %s\nwant %s", sql, want)
	}
}

func TestRewriteCleanJoin(t *testing.T) {
	// Example 6's rewriting: product of both relations' probabilities.
	rw, err := RewriteClean(fig2Catalog(), sqlparse.MustParse(
		"select o.id, c.id from orders o, customer c where o.cidfk = c.id and c.balance > 10000"))
	if err != nil {
		t.Fatal(err)
	}
	sql := rw.SQL()
	for _, want := range []string{"SUM(o.prob * c.prob) AS prob", "GROUP BY o.id, c.id"} {
		if !strings.Contains(sql, want) {
			t.Errorf("rewritten SQL missing %q: %s", want, sql)
		}
	}
	// The rewritten SQL must itself parse.
	if _, err := sqlparse.Parse(sql); err != nil {
		t.Errorf("rewritten SQL does not reparse: %v", err)
	}
}

func TestRewriteCleanPreservesOrderBy(t *testing.T) {
	rw, err := RewriteClean(fig2Catalog(), sqlparse.MustParse(
		"select o.id, c.id from orders o, customer c where o.cidfk = c.id order by o.id desc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rw.OrderBy) != 1 || !rw.OrderBy[0].Desc {
		t.Errorf("ORDER BY not preserved: %+v", rw.OrderBy)
	}
}

func TestRewriteCleanDoesNotMutateInput(t *testing.T) {
	stmt := sqlparse.MustParse("select id from customer where balance > 10000")
	before := stmt.SQL()
	if _, err := RewriteClean(fig2Catalog(), stmt); err != nil {
		t.Fatal(err)
	}
	if stmt.SQL() != before {
		t.Error("RewriteClean must not mutate the input statement")
	}
}

func TestRewriteCleanRejectsExample7(t *testing.T) {
	_, err := RewriteClean(fig2Catalog(), sqlparse.MustParse(
		"select c.id from orders o, customer c where o.quantity < 5 and o.cidfk = c.id and c.balance > 25000"))
	var nre *NotRewritableError
	if !errors.As(err, &nre) {
		t.Fatalf("want NotRewritableError, got %v", err)
	}
	if len(nre.Reasons) == 0 || !strings.Contains(nre.Error(), "not rewritable") {
		t.Errorf("error detail: %v", nre)
	}
}

func TestNaiveRewriteBuildsWithoutCheck(t *testing.T) {
	// Example 7's (incorrect) naive rewriting still constructs.
	rw := NaiveRewrite(fig2Catalog(), sqlparse.MustParse(
		"select c.id from orders o, customer c where o.quantity < 5 and o.cidfk = c.id and c.balance > 25000"))
	if !strings.Contains(rw.SQL(), "SUM(o.prob * c.prob)") {
		t.Errorf("naive rewrite SQL: %s", rw.SQL())
	}
}

func TestAnalyzeIdentifierToIdentifierJoin(t *testing.T) {
	// Two relations sharing identifiers joined id = id contract into one
	// node and stay rewritable when either identifier is selected.
	store := testdb.Figure2()
	profS := schema.MustRelation("profile",
		schema.Column{Name: "id", Type: value.KindString},
		schema.Column{Name: "segment", Type: value.KindString},
		schema.Column{Name: "prob", Type: value.KindFloat},
	)
	if err := profS.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	store.Store.MustCreateTable(profS)

	a, err := Analyze(store.Store.Catalog, sqlparse.MustParse(
		"select c.id from customer c, profile p where c.id = p.id"))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Rewritable {
		t.Fatalf("id=id join should be rewritable: %v", a.Reasons)
	}
	if len(a.Edges) != 1 || a.Edges[0].Kind != EdgeIDToID {
		t.Errorf("edges: %+v", a.Edges)
	}
	// Chain below a contracted node: orders -> (customer = profile).
	a2, err := Analyze(store.Store.Catalog, sqlparse.MustParse(
		"select o.id from orders o, customer c, profile p where o.cidfk = c.id and c.id = p.id"))
	if err != nil {
		t.Fatal(err)
	}
	if !a2.Rewritable {
		t.Fatalf("contracted chain should be rewritable: %v", a2.Reasons)
	}
	if a2.Root != "o" {
		t.Errorf("root = %q", a2.Root)
	}
}

func TestAnalyzeMultipleParents(t *testing.T) {
	// Two relations both pointing fk->id at the same target: the target
	// has in-degree 2, so the graph is not a tree.
	store := testdb.Figure2()
	shipS := schema.MustRelation("shipment",
		schema.Column{Name: "id", Type: value.KindString},
		schema.Column{Name: "custref", Type: value.KindString},
		schema.Column{Name: "prob", Type: value.KindFloat},
	)
	if err := shipS.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	store.Store.MustCreateTable(shipS)
	a, err := Analyze(store.Store.Catalog, sqlparse.MustParse(
		"select o.id, s.id from orders o, customer c, shipment s where o.cidfk = c.id and s.custref = c.id"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rewritable {
		t.Fatal("diamond-shaped graph must violate condition 2")
	}
}

// RewriteClean (not just Analyze) must reject self joins with a typed
// NotRewritableError naming condition 3 — the join-graph restriction the
// paper's Dfn 6/Dfn 7 impose so RewriteClean's probability arithmetic
// stays sound.
func TestRewriteCleanRejectsSelfJoin(t *testing.T) {
	_, err := RewriteClean(fig2Catalog(), sqlparse.MustParse(
		"select c1.id, c2.id from customer c1, customer c2 where c1.id = c2.id"))
	if err == nil {
		t.Fatal("self join must not rewrite")
	}
	var nre *NotRewritableError
	if !errors.As(err, &nre) {
		t.Fatalf("want *NotRewritableError, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), "condition 3") {
		t.Errorf("error should cite condition 3, got %v", err)
	}
}

// Unknown relations and columns must be reported by name, and must NOT be
// classified as "not rewritable" — they are catalog errors, not Dfn 7
// violations.
func TestRewriteCleanUnknownRelation(t *testing.T) {
	cat := fig2Catalog()
	_, err := RewriteClean(cat, sqlparse.MustParse("select id from ghost"))
	if err == nil {
		t.Fatal("unknown relation must fail")
	}
	if !strings.Contains(err.Error(), `"ghost"`) {
		t.Errorf("error should name the relation, got %v", err)
	}
	var nre *NotRewritableError
	if errors.As(err, &nre) {
		t.Errorf("unknown relation is a catalog error, not a NotRewritableError: %v", err)
	}

	_, err = RewriteClean(cat, sqlparse.MustParse("select ghostcol from customer"))
	if err == nil {
		t.Fatal("unknown column must fail")
	}
	if !strings.Contains(err.Error(), "ghostcol") {
		t.Errorf("error should name the column, got %v", err)
	}
}
