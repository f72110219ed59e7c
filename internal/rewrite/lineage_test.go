package rewrite

import (
	"strings"
	"testing"

	"conquer/internal/sqlparse"
	"conquer/internal/testdb"
)

// A lineage query is the statement without DISTINCT and ORDER BY, its
// select list followed, per dirty alias, by the identifier and every other
// column the statement reads from the alias in schema order — from the
// select list and WHERE, not ORDER BY. A relation named twice gets both
// aliases; a clean relation none; SELECT * reads every column. The select
// list is cloned with room for the lineage columns; their names, their
// references and the aliases are each carved from one counted block, and
// the columns read are one vector on the stack: 11, 12, 10 and 8
// allocations here. A vector per FROM position, references collected by
// appending and every alias's columns grown by appending cost 16, 25, 24
// and 12; a list regrown by appending and a reference allocated per column
// on top of that cost 19, 32, 31 and 18.
func TestLineageQueries(t *testing.T) {
	fig1, fig2 := testdb.Figure1().Store.Catalog, testdb.Figure2().Store.Catalog
	for _, c := range []struct {
		sql, want, aliases string
		allocs             float64
	}{
		{"select id from customer where balance > 10000",
			"SELECT id, customer.id, customer.balance FROM customer WHERE balance > 10000",
			"customer[id balance]", 11},
		{"select distinct c.id from orders o, customer c where o.quantity < 5 and o.cidfk = c.id and c.balance > 25000 order by c.name",
			"SELECT c.id, o.id, o.cidfk, o.quantity, c.id, c.balance FROM orders o, customer c WHERE o.quantity < 5 AND o.cidfk = c.id AND c.balance > 25000",
			"orders[id cidfk quantity] customer[id balance]", 12},
		{"select a.custid, b.custid from customer a, customer b where a.name = b.name and a.id = b.id",
			"SELECT a.custid, b.custid, a.id, a.custid, a.name, b.id, b.custid, b.name FROM customer a, customer b WHERE a.name = b.name AND a.id = b.id",
			"customer[id custid name] customer[id custid name]", 10},
		{"select * from loyaltycard",
			"SELECT *, loyaltycard.id, loyaltycard.cardid, loyaltycard.custfk, loyaltycard.prob FROM loyaltycard",
			"loyaltycard[id cardid custfk prob]", 8},
	} {
		cat := fig2
		if strings.Contains(c.sql, "loyaltycard") {
			cat = fig1
		}
		lq, err := Lineage(cat, sqlparse.MustParse(c.sql))
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got := lq.Stmt.SQL(); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.sql, got, c.want)
		}
		var aliases []string
		for _, a := range lq.Aliases {
			aliases = append(aliases, a.Relation+"["+strings.Join(a.Columns, " ")+"]")
		}
		if got := strings.Join(aliases, " "); got != c.aliases {
			t.Errorf("%s: aliases %s, want %s", c.sql, got, c.aliases)
		}
		stmt := sqlparse.MustParse(c.sql)
		if n := testing.AllocsPerRun(20, func() { _, _ = Lineage(cat, stmt) }); n > c.allocs {
			t.Errorf("%s: the lineage query allocates %.0f times, ceiling %.0f", c.sql, n, c.allocs)
		}
	}
}

// Only an SPJ statement has a lineage query, and only one whose columns
// resolve; the statement itself is never mutated.
func TestLineageRefusesNonSPJ(t *testing.T) {
	cat := fig2Catalog()
	for _, sql := range []string{
		"select name, count(*) from customer group by name",
		"select count(*) from customer",
		"select name from customer group by name having count(*) > 1",
		"select id from customer order by id limit 1",
		"select nosuch from customer",
		"select id from nosuch",
	} {
		if lq, err := Lineage(cat, sqlparse.MustParse(sql)); err == nil {
			t.Errorf("%s: lineage %s, want an error", sql, lq.Stmt.SQL())
		}
	}
	stmt := sqlparse.MustParse("select distinct id from customer order by id")
	before := stmt.SQL()
	if _, err := Lineage(cat, stmt); err != nil || stmt.SQL() != before {
		t.Errorf("Lineage changed its statement to %s (error %v)", stmt.SQL(), err)
	}
}
