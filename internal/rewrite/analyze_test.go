package rewrite

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/testdb"
	"conquer/internal/value"
)

// graphCatalog holds n dirty relations r0 … r(n-1). Relation ri has the
// columns id, prob and one foreign-key column rifj for every other j, so
// every column but id and prob has a name of its own.
func graphCatalog(t *testing.T, n int) *schema.Catalog {
	t.Helper()
	cat := schema.NewCatalog()
	for i := range n {
		cols := []schema.Column{{Name: "id", Type: value.KindString}, {Name: "prob", Type: value.KindFloat}}
		for j := range n {
			if j != i {
				cols = append(cols, schema.Column{Name: fmt.Sprintf("r%df%d", i, j), Type: value.KindString})
			}
		}
		rel := schema.MustRelation(fmt.Sprintf("r%d", i), cols...)
		if err := rel.SetDirty("id", "prob"); err != nil {
			t.Fatal(err)
		}
		if err := cat.Add(rel); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// diamondCatalog is Figure 2 with a shipment relation whose custref
// references customer, as orders' cidfk does.
func diamondCatalog(t *testing.T) *schema.Catalog {
	t.Helper()
	store := testdb.Figure2()
	ship := schema.MustRelation("shipment",
		schema.Column{Name: "id", Type: value.KindString},
		schema.Column{Name: "custref", Type: value.KindString},
		schema.Column{Name: "prob", Type: value.KindFloat},
	)
	if err := ship.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	store.Store.MustCreateTable(ship)
	return store.Store.Catalog
}

// TestAnalyzeReasonsAreDeterministic analyses each shape 100 times and
// wants one reason list, the pinned one. The diamond's graph is connected,
// so it names its target and never says "disconnected"; with two targets
// the first in FROM order is named.
func TestAnalyzeReasonsAreDeterministic(t *testing.T) {
	graph, diamond, fig2 := graphCatalog(t, 5), diamondCatalog(t), fig2Catalog()
	cases := []struct {
		name string
		cat  *schema.Catalog
		sql  string
		want []string
	}{
		{"diamond", diamond,
			"select o.id, s.id from orders o, customer c, shipment s where o.cidfk = c.id and s.custref = c.id",
			[]string{"relation c is the join target of multiple relations (condition 2 of Dfn 7)"}},
		{"two targets", graph,
			"select r0.id from r0, r3, r2, r1, r4 where r0.r0f1 = r1.id and r2.r2f1 = r1.id and r2.r2f3 = r3.id and r4.r4f3 = r3.id",
			[]string{"relation r3 is the join target of multiple relations (condition 2 of Dfn 7)"}},
		{"cross join", fig2,
			"select o.id, c.id from orders o, customer c",
			[]string{"join graph is disconnected (condition 2 of Dfn 7)"}},
		{"cycle apart from the root", graph,
			"select r0.id from r0, r1, r2 where r1.r1f2 = r2.id and r2.r2f1 = r1.id",
			[]string{"join graph has a cycle (condition 2 of Dfn 7)"}},
		{"cycle inside a node", graph,
			"select r0.id from r0, r1 where r0.id = r1.id and r0.r0f1 = r1.id",
			[]string{"join graph has a cycle through r0.r0f1 = r1.id (condition 2 of Dfn 7)"}},
		{"conditions 1, 3 and 4", fig2,
			"select o.orderid from orders o, customer c1, customer c2 where o.cidfk = c1.id and c1.id = c2.id and o.orderid = c2.custid",
			[]string{
				"relation customer appears more than once (self joins violate condition 3 of Dfn 7)",
				"join o.orderid = c2.custid involves no identifier (condition 1 of Dfn 7)",
				"the identifier of root relation o is not in the select clause (condition 4 of Dfn 7)",
			}},
	}
	for _, tc := range cases {
		stmt := sqlparse.MustParse(tc.sql)
		seen := map[string]int{}
		for range 100 {
			a, err := Analyze(tc.cat, stmt)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			seen[strings.Join(ReasonTexts(a.Reasons), " | ")]++
		}
		want := strings.Join(tc.want, " | ")
		if len(seen) != 1 || seen[want] != 100 {
			t.Errorf("%s: reasons over 100 runs %v, want %q every time", tc.name, seen, want)
		}
	}
}

// TestAnalyzeMatchesTheMapOracle compares Analyze with the map-based
// contraction it replaced (oracleRootedTree, oracleIdentifierSelected) on
// every join graph over three and four relations with at most as many
// conjuncts as relations, each an FK→ID or an ID–ID join, in two FROM
// orders and under two select lists. Rewritable and Root agree on every
// graph. Reasons agree wherever no contracted node has in-degree two or
// more; there the oracle names such a node or calls the graph
// disconnected, whichever its map order meets first, and Analyze must
// name the node.
func TestAnalyzeMatchesTheMapOracle(t *testing.T) {
	for _, n := range []int{3, 4} {
		cat := graphCatalog(t, n)
		var conjuncts []string
		for i := range n {
			for j := range n {
				if i != j {
					conjuncts = append(conjuncts, fmt.Sprintf("r%d.r%df%d = r%d.id", i, i, j, j))
				}
				if i < j {
					conjuncts = append(conjuncts, fmt.Sprintf("r%d.id = r%d.id", i, j))
				}
			}
		}
		froms := make([]string, n)
		ids := make([]string, n)
		for i := range n {
			froms[i], ids[i] = fmt.Sprintf("r%d", i), fmt.Sprintf("r%d.id", i)
		}
		reversed := slices.Clone(froms)
		slices.Reverse(reversed)
		graphs, exact := 0, 0
		for _, where := range subsets(conjuncts, n) {
			for _, from := range [][]string{froms, reversed} {
				for _, sel := range []string{"r0.id", strings.Join(ids, ", ")} {
					sql := "select " + sel + " from " + strings.Join(from, ", ")
					if len(where) > 0 {
						sql += " where " + strings.Join(where, " and ")
					}
					graphs++
					if compareWithOracle(t, cat, sql) {
						exact++
					}
				}
			}
		}
		t.Logf("%d relations: %d statements, reasons compared on %d", n, graphs, exact)
	}
}

// subsets lists every subset of xs with at most k elements, in order.
func subsets(xs []string, k int) [][]string {
	out := [][]string{nil}
	for _, x := range xs {
		for _, s := range out {
			if len(s) < k {
				out = append(out, append(slices.Clone(s), x))
			}
		}
	}
	return out
}

// compareWithOracle checks one statement against the oracle and reports
// whether its reasons were compared in full.
func compareWithOracle(t *testing.T, cat *schema.Catalog, sql string) bool {
	t.Helper()
	stmt := sqlparse.MustParse(sql)
	a, err := Analyze(cat, stmt)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	var aliases []string
	rels := map[string]*schema.Relation{}
	for _, tr := range stmt.From {
		alias := strings.ToLower(tr.Alias)
		aliases = append(aliases, alias)
		rels[alias], _ = cat.Relation(tr.Table)
	}
	var reasons []string
	root, treeErr := oracleRootedTree(aliases, a.Edges)
	switch {
	case treeErr != "":
		reasons = []string{treeErr}
	case !oracleIdentifierSelected(stmt, root, aliases, a.Edges, rels):
		reasons = []string{fmt.Sprintf("the identifier of root relation %s is not in the select clause (condition 4 of Dfn 7)", root)}
	}
	if a.Rewritable != (len(reasons) == 0) || a.Root != root {
		t.Errorf("%s: rewritable %v root %q, the oracle %v %q", sql, a.Rewritable, a.Root, len(reasons) == 0, root)
	}
	got := ReasonTexts(a.Reasons)
	if maxContractedInDegree(aliases, a.Edges) < 2 {
		if !slices.Equal(got, reasons) {
			t.Errorf("%s: reasons %q, the oracle %q", sql, got, reasons)
		}
		return true
	}
	if !slices.Equal(got, reasons) && (len(got) != 1 ||
		!strings.Contains(got[0], "is the join target of multiple relations") ||
		reasons[0] != "join graph is disconnected (condition 2 of Dfn 7)") {
		t.Errorf("%s: reasons %q, the oracle %q", sql, got, reasons)
	}
	return false
}

// maxContractedInDegree is the largest number of FK arcs into one node of
// the contracted graph, counting no arc inside a node.
func maxContractedInDegree(aliases []string, edges []Edge) int {
	parent := map[string]string{}
	for _, a := range aliases {
		parent[a] = a
	}
	find := func(x string) string {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		if e.Kind == EdgeIDToID {
			parent[find(e.From)] = find(e.To)
		}
	}
	indeg, most := map[string]int{}, 0
	for _, e := range edges {
		if f, to := find(e.From), find(e.To); e.Kind == EdgeFKToID && f != to {
			indeg[to]++
			most = max(most, indeg[to])
		}
	}
	return most
}

// oracleRootedTree is condition 2 as Analyze checked it over alias maps
// until the analysis moved to FROM positions, kept as the differential
// test's oracle. Where a node has in-degree two or more, its answer
// depends on map order.
func oracleRootedTree(aliases []string, edges []Edge) (string, string) {
	// Union-find over aliases; id-id edges contract nodes.
	parent := make(map[string]string, len(aliases))
	for _, a := range aliases {
		parent[a] = a
	}
	var find func(string) string
	find = func(x string) string {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(x, y string) { parent[find(x)] = find(y) }
	for _, e := range edges {
		if e.Kind == EdgeIDToID {
			union(e.From, e.To)
		}
	}

	// Node set after contraction.
	nodes := make(map[string]bool)
	for _, a := range aliases {
		nodes[find(a)] = true
	}

	// FK arcs between contracted nodes.
	type arc struct{ from, to string }
	var arcs []arc
	indeg := make(map[string]int)
	for _, e := range edges {
		if e.Kind != EdgeFKToID {
			continue
		}
		f, t := find(e.From), find(e.To)
		if f == t {
			return "", fmt.Sprintf("join graph has a cycle through %s (condition 2 of Dfn 7)", e.Expr.SQL())
		}
		arcs = append(arcs, arc{f, t})
		indeg[t]++
	}

	// A rooted tree over n nodes needs exactly n-1 arcs, each non-root
	// node in-degree 1, and connectivity.
	n := len(nodes)
	if len(arcs) != n-1 {
		if len(arcs) < n-1 {
			return "", "join graph is disconnected (condition 2 of Dfn 7)"
		}
		return "", "join graph has redundant join paths (condition 2 of Dfn 7)"
	}
	root := ""
	pred := make(map[string]string) // node -> its unique predecessor
	for _, ar := range arcs {
		pred[ar.to] = ar.from
	}
	for node := range nodes {
		switch indeg[node] {
		case 0:
			if root != "" {
				return "", "join graph is disconnected (condition 2 of Dfn 7)"
			}
			root = node
		case 1:
			// interior or leaf node: fine
		default:
			return "", fmt.Sprintf("relation %s is the join target of multiple relations (condition 2 of Dfn 7)", node)
		}
	}
	if root == "" {
		return "", "join graph has a cycle (condition 2 of Dfn 7)"
	}
	// Every node must reach the root through its unique chain of
	// predecessors; otherwise some component is a cycle detached from the
	// root.
	for node := range nodes {
		cur, steps := node, 0
		for cur != root {
			next, ok := pred[cur]
			if !ok || steps > n {
				return "", "join graph has a cycle (condition 2 of Dfn 7)"
			}
			cur = next
			steps++
		}
	}
	return root, ""
}

// oracleIdentifierSelected is condition 4 as Analyze checked it until the
// analysis moved to FROM positions: the identifier of the root node (any
// relation contracted into it) appears as a select item.
func oracleIdentifierSelected(stmt *sqlparse.SelectStmt, root string, aliases []string, edges []Edge, rels map[string]*schema.Relation) bool {
	// Rebuild the contraction to find all aliases in the root node.
	parent := make(map[string]string, len(aliases))
	for _, a := range aliases {
		parent[a] = a
	}
	var find func(string) string
	find = func(x string) string {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, e := range edges {
		if e.Kind == EdgeIDToID {
			parent[find(e.From)] = find(e.To)
		}
	}
	rootMembers := make(map[string]bool)
	for _, a := range aliases {
		if find(a) == find(root) {
			rootMembers[a] = true
		}
	}
	for _, it := range stmt.Select {
		cr, ok := it.Expr.(*sqlparse.ColumnRef)
		if !ok {
			continue
		}
		alias := strings.ToLower(cr.Qualifier)
		if alias == "" {
			// Unqualified: find the unique owner among root members.
			for a := range rootMembers {
				if rels[a].HasColumn(cr.Name) {
					alias = a
					break
				}
			}
		}
		if !rootMembers[alias] {
			continue
		}
		rel := rels[alias]
		if rel != nil && rel.Identifier != "" && strings.ToLower(cr.Name) == rel.Identifier {
			return true
		}
	}
	return false
}
