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

// Every cached read prints its statement (the cache key), every clean
// answer from SQL text parses it first, and every rewriting clones it, so
// none of them may regrow per-node or per-token allocations: printing
// costs the text (43 allocations for Q9 when every node concatenated its
// children), lexing all-lower-case text costs the token slice (upper-casing
// every word, copying every symbol and growing the slice was 114 more for
// Q9), and parsing and cloning cost the statement, its clause lists, one
// block each of column references, literals and binary operators, and the
// nodes of the other kinds, parsing the token slice besides and a clone
// carving its lists from one more block
// (Parse: Q9 9, Q9.clean 12 with its SUM call, its argument list and its
// GROUP BY; Clone: 8 and 10. They were 47 and 77, and 43 and 72, while
// every node and every list growth was an allocation of its own; Parse was
// 161 for Q9 before that).
func TestPrintingAndLexingAllocationFloors(t *testing.T) {
	const parseCeiling, cloneCeiling = 12, 10
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
		parse := testing.AllocsPerRun(20, func() { MustParse(src) })
		clone := testing.AllocsPerRun(20, func() { _ = stmt.Clone() })
		t.Logf("%s: Parse allocates %.0f times, Clone %.0f", name, parse, clone)
		if parse > parseCeiling {
			t.Errorf("%s: Parse allocates %.0f times, ceiling %d", name, parse, parseCeiling)
		}
		if clone > cloneCeiling {
			t.Errorf("%s: Clone allocates %.0f times, ceiling %d", name, clone, cloneCeiling)
		}
	}
	if measured != 2 {
		t.Errorf("measured %d statements, want Q9 and its rewriting", measured)
	}
}
