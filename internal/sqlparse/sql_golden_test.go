package sqlparse

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// testdata/sql_golden.json freezes what SQL() printed before every node
// wrote through sqlWriter: a throwaway test at commit cedbed8, the last
// one with the per-node string concatenation, recorded Parse(src).SQL()
// for the thirteen TPC-H statements of the evaluation and their
// rewritings (named; a rewriting enters as its own printed text, which
// parses back to the tree RewriteClean built), every statement this
// package's own tests parse, and FuzzParse's seeds. The text is a cache
// key and what RewriteSQL hands to users, so the printer may get cheaper
// but not different; FuzzParse's round trip checks that it still parses,
// this that it is the same bytes.
func TestSQLMatchesGolden(t *testing.T) {
	golden := loadGolden(t)
	named := 0
	for _, g := range golden {
		stmt, err := Parse(g.Src)
		if err != nil {
			t.Errorf("Parse(%q): %v", g.Src, err)
			continue
		}
		if g.Name != "" {
			named++
		}
		if got := stmt.SQL(); got != g.SQL {
			t.Errorf("%s Parse(%q).SQL()\n got %q\nwant %q", g.Name, g.Src, got, g.SQL)
		}
		// Every node's own SQL() is the same writer: the pieces of the
		// select list must be the pieces of the whole.
		for _, it := range stmt.Select {
			if it.Star {
				continue
			}
			if reparsed, err := Parse("select " + it.Expr.SQL() + " from t"); err != nil {
				t.Errorf("%q: select item %q does not parse: %v", g.Src, it.Expr.SQL(), err)
			} else if reparsed.Select[0].Expr.SQL() != it.Expr.SQL() {
				t.Errorf("%q: select item prints %q, then %q", g.Src, it.Expr.SQL(), reparsed.Select[0].Expr.SQL())
			}
		}
	}
	if named != 26 || len(golden) < 80 {
		t.Errorf("golden file has %d statements, %d of them TPC-H; want at least 80 and 26", len(golden), named)
	}
}

// goldenStmt is one statement of testdata/sql_golden.json; only the TPC-H
// ones are named.
type goldenStmt struct{ Name, Src, SQL string }

func loadGolden(t *testing.T) []goldenStmt {
	t.Helper()
	raw, err := os.ReadFile("testdata/sql_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []goldenStmt
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	return golden
}

// Every cached read prints its statement (the cache key) and every clean
// answer from SQL text parses it first, so neither may regrow per-node or
// per-token allocations: printing costs the text (43 allocations for Q9
// when every node concatenated its children), lexing all-lower-case text
// costs the token slice (upper-casing every word, copying every symbol and
// growing the slice was 114 more for Q9), and what is left of parsing is
// the tree itself.
func TestPrintingAndLexingAllocationFloors(t *testing.T) {
	measured := 0
	for _, g := range loadGolden(t) {
		if g.Name != "Q9" && g.Name != "Q9.clean" {
			continue
		}
		measured++
		name, src := g.Name, strings.ToLower(g.Src)
		stmt := MustParse(src)
		if n := testing.AllocsPerRun(20, func() { _ = stmt.SQL() }); n > 1 {
			t.Errorf("%s: SQL() allocates %.0f times, want 1 (the text)", name, n)
		}
		if n := testing.AllocsPerRun(20, func() { _ = stmt.Where.SQL() }); n > 1 {
			t.Errorf("%s: Where.SQL() allocates %.0f times, want 1 (the text)", name, n)
		}
		if n := testing.AllocsPerRun(20, func() { _, _ = lex(src) }); n > 1 {
			t.Errorf("%s: lexing allocates %.0f times, want 1 (the token slice)", name, n)
		}
		nodes := 0
		count := func(e Expr) { WalkExpr(e, func(Expr) bool { nodes++; return true }) }
		for _, it := range stmt.Select {
			count(it.Expr)
		}
		count(stmt.Where)
		for _, g := range stmt.GroupBy {
			count(g)
		}
		for _, o := range stmt.OrderBy {
			count(o.Expr)
		}
		// A node each, and half as much again for the statement, the
		// token slice, an upper-cased function name and the growth of the
		// select, FROM, GROUP BY, ORDER BY and argument lists (Q9: 47 for
		// 36 nodes; 161 before).
		ceiling := float64(nodes * 3 / 2)
		n := testing.AllocsPerRun(20, func() { MustParse(src) })
		t.Logf("%s: %d expression nodes, Parse allocates %.0f times", name, nodes, n)
		if n > ceiling {
			t.Errorf("%s: Parse allocates %.0f times for %d expression nodes, ceiling %.0f", name, n, nodes, ceiling)
		}
	}
	if measured != 2 {
		t.Errorf("measured %d statements, want Q9 and its rewriting", measured)
	}
}
