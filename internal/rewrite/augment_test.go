package rewrite

import (
	"strings"
	"testing"

	"conquer/internal/sqlparse"
)

func TestAugmentAndRewriteAddsRootIdentifier(t *testing.T) {
	cat := fig2Catalog()
	// Example 7's query: only condition 4 is violated.
	stmt := sqlparse.MustParse(
		"select c.id from orders o, customer c where o.quantity < 5 and o.cidfk = c.id and c.balance > 25000")
	aug, augmented, err := Augment(cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !augmented {
		t.Fatal("q3 should require augmentation")
	}
	rw, err := RewriteClean(cat, aug)
	if err != nil {
		t.Fatalf("the augmented query should be rewritable: %v", err)
	}
	sql := rw.SQL()
	if !strings.HasPrefix(sql, "SELECT o.id, c.id") {
		t.Errorf("root identifier should be prepended: %s", sql)
	}
	if !strings.Contains(sql, "GROUP BY o.id, c.id") {
		t.Errorf("group by should cover the augmented list: %s", sql)
	}
	// The input statement is untouched.
	if strings.Contains(stmt.SQL(), "o.id") {
		t.Error("Augment must not mutate its input")
	}
}

func TestAugmentAndRewritePassThrough(t *testing.T) {
	cat := fig2Catalog()
	stmt := sqlparse.MustParse("select id from customer where balance > 10000")
	aug, augmented, err := Augment(cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if augmented || aug != stmt {
		t.Errorf("an already rewritable query should come back as it is: augmented=%v, %s", augmented, aug.SQL())
	}
}

func TestAugmentAndRewriteCannotFixOtherConditions(t *testing.T) {
	cat := fig2Catalog()
	// Non-identifier join: condition 1 violated; augmentation cannot help.
	stmt := sqlparse.MustParse(
		"select o.id from orders o, customer c where o.orderid = c.custid")
	if _, _, err := Augment(cat, stmt); err == nil {
		t.Error("condition-1 violation must still fail")
	}
	// Disconnected graph.
	stmt = sqlparse.MustParse("select o.id, c.id from orders o, customer c")
	if _, _, err := Augment(cat, stmt); err == nil {
		t.Error("disconnected graph must still fail")
	}
	// Bad SQL-level input propagates the analyze error.
	stmt = sqlparse.MustParse("select ghost from customer")
	if _, _, err := Augment(cat, stmt); err == nil {
		t.Error("unknown column must fail")
	}
}
