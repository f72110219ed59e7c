// Package rewrite implements the paper's query-rewriting machinery (§3):
// the join graph of an SPJ query (Dfn 6), the class of rewritable queries
// (Dfn 7), and the RewriteClean transformation (Fig. 4) that turns a
// rewritable query over a dirty database into an ordinary SQL query
// computing the clean answers — GROUP BY the selected attributes, SUM the
// product of the tuple probabilities.
package rewrite

import (
	"fmt"
	"strings"

	"conquer/internal/schema"
	"conquer/internal/sqlparse"
)

// ProbAlias is the output column name given to the clean-answer
// probability in rewritten queries.
const ProbAlias = "prob"

// EdgeKind classifies an equality join conjunct by which sides are cluster
// identifiers.
type EdgeKind uint8

const (
	// EdgeFKToID joins a non-identifier attribute to an identifier: the
	// arcs of the paper's join graph (Dfn 6).
	EdgeFKToID EdgeKind = iota
	// EdgeIDToID joins two identifiers (key-key join); the joined
	// relations act as one node of the join graph.
	EdgeIDToID
	// EdgeNonID joins two non-identifier attributes; it violates
	// condition 1 of Dfn 7.
	EdgeNonID
)

// Edge is one classified equality join conjunct between two FROM entries.
type Edge struct {
	Kind EdgeKind
	// From and To are FROM aliases. For EdgeFKToID, From holds the
	// non-identifier side and To the identifier side (the arc direction of
	// Dfn 6). For the other kinds the order follows the SQL text.
	From, To string
	Expr     *sqlparse.BinaryExpr
}

// Analysis is the result of inspecting a query against Dfn 7. When
// Rewritable is false, Reasons lists every violated condition.
type Analysis struct {
	Stmt  *sqlparse.SelectStmt
	Edges []Edge
	// Root is the alias of the join-graph root (condition 4's relation)
	// when the graph is a rooted tree; empty otherwise.
	Root       string
	Rewritable bool
	Reasons    []string
}

// Analyze classifies stmt against the catalog and checks the conditions of
// Dfn 7. It returns an error only for queries it cannot inspect at all
// (unknown tables or columns); violations of the rewritability conditions
// are reported in the Analysis.
func Analyze(cat *schema.Catalog, stmt *sqlparse.SelectStmt) (*Analysis, error) {
	a := &Analysis{Stmt: stmt}
	fail := func(format string, args ...any) {
		a.Reasons = append(a.Reasons, fmt.Sprintf(format, args...))
	}

	// Structural requirements: plain SPJ input.
	if stmt.Distinct {
		fail("query uses DISTINCT; only plain SPJ queries are rewritable")
	}
	if len(stmt.GroupBy) > 0 {
		fail("query uses GROUP BY; only plain SPJ queries are rewritable")
	}
	if stmt.Limit >= 0 {
		fail("query uses LIMIT; only plain SPJ queries are rewritable")
	}
	for _, it := range stmt.Select {
		if it.Star {
			fail("SELECT * is not supported by the rewriting; name the attributes")
			continue
		}
		if sqlparse.HasAggregate(it.Expr) {
			fail("query aggregates %s; aggregation is future work in the paper", it.Expr.SQL())
		}
	}

	// Resolve FROM entries; condition 3: each relation at most once.
	sc, err := newScope(cat, stmt.From, make(map[string]*schema.Relation))
	if err != nil {
		return nil, err
	}
	seenTable := make(map[string]bool)
	for _, alias := range sc.aliases {
		rel := sc.rels[alias]
		if seenTable[rel.Name] {
			fail("relation %s appears more than once (self joins violate condition 3 of Dfn 7)", rel.Name)
		}
		seenTable[rel.Name] = true
		if !rel.IsDirty() {
			fail("relation %s has no identifier/probability columns; mark it dirty first", rel.Name)
		}
	}

	// Validate every column reference in the statement.
	var exprs []sqlparse.Expr
	for _, it := range stmt.Select {
		if it.Expr != nil {
			exprs = append(exprs, it.Expr)
		}
	}
	if stmt.Where != nil {
		exprs = append(exprs, stmt.Where)
	}
	for _, o := range stmt.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	for _, e := range exprs {
		var resolveErr error
		sqlparse.WalkExpr(e, func(x sqlparse.Expr) bool {
			if cr, ok := x.(*sqlparse.ColumnRef); ok {
				if _, _, err := sc.resolve(cr); err != nil && resolveErr == nil {
					resolveErr = err
				}
			}
			return true
		})
		if resolveErr != nil {
			// ORDER BY may legitimately reference a select alias rather
			// than a base column; tolerate that case only.
			if isSelectAlias(stmt, e) {
				continue
			}
			return nil, resolveErr
		}
	}

	// Classify WHERE conjuncts.
	for _, conj := range sqlparse.Conjuncts(stmt.Where) {
		touched, err := sc.touchedAliases(conj)
		if err != nil {
			return nil, err
		}
		if len(touched) <= 1 {
			continue // selection on one relation: always fine
		}
		if len(touched) > 2 {
			fail("predicate %s spans more than two relations", conj.SQL())
			continue
		}
		be, ok := conj.(*sqlparse.BinaryExpr)
		if !ok || be.Op != sqlparse.OpEq {
			fail("join predicate %s is not an equality (the class allows only equality joins)", conj.SQL())
			continue
		}
		lc, lok := be.L.(*sqlparse.ColumnRef)
		rc, rok := be.R.(*sqlparse.ColumnRef)
		if !lok || !rok {
			fail("join predicate %s must equate two columns", conj.SQL())
			continue
		}
		la, lrel, err := sc.resolve(lc)
		if err != nil {
			return nil, err
		}
		ra, rrel, err := sc.resolve(rc)
		if err != nil {
			return nil, err
		}
		lIsID := lrel.Identifier != "" && strings.ToLower(lc.Name) == lrel.Identifier
		rIsID := rrel.Identifier != "" && strings.ToLower(rc.Name) == rrel.Identifier
		switch {
		case lIsID && rIsID:
			a.Edges = append(a.Edges, Edge{Kind: EdgeIDToID, From: la, To: ra, Expr: be})
		case !lIsID && rIsID:
			a.Edges = append(a.Edges, Edge{Kind: EdgeFKToID, From: la, To: ra, Expr: be})
		case lIsID && !rIsID:
			a.Edges = append(a.Edges, Edge{Kind: EdgeFKToID, From: ra, To: la, Expr: be})
		default:
			a.Edges = append(a.Edges, Edge{Kind: EdgeNonID, From: la, To: ra, Expr: be})
			fail("join %s involves no identifier (condition 1 of Dfn 7)", conj.SQL())
		}
	}

	// Conditions 2 and 4 need the contracted join graph: identifier-to-
	// identifier joins merge their endpoints into one node.
	root, treeErr := rootedTree(sc.aliases, a.Edges)
	if treeErr != "" {
		fail("%s", treeErr)
	} else {
		// Condition 4: the identifier of some relation in the root node
		// must appear in the select clause.
		a.Root = root
		if !identifierSelected(stmt, root, sc.aliases, a.Edges, sc.rels) {
			fail("the identifier of root relation %s is not in the select clause (condition 4 of Dfn 7)", root)
		}
	}

	a.Rewritable = len(a.Reasons) == 0
	return a, nil
}

// isSelectAlias reports whether e is a bare column reference naming one of
// the statement's select aliases.
func isSelectAlias(stmt *sqlparse.SelectStmt, e sqlparse.Expr) bool {
	cr, ok := e.(*sqlparse.ColumnRef)
	if !ok || cr.Qualifier != "" {
		return false
	}
	name := strings.ToLower(cr.Name)
	for _, it := range stmt.Select {
		if strings.ToLower(it.Alias) == name {
			return true
		}
	}
	return false
}

// scope resolves the column references of one FROM list.
type scope struct {
	rels    map[string]*schema.Relation // alias -> schema
	aliases []string                    // in FROM order
}

// newScope resolves FROM entries against the catalog. The caller makes
// rels, so that the map can stay on its stack.
func newScope(cat *schema.Catalog, from []sqlparse.TableRef, rels map[string]*schema.Relation) (scope, error) {
	var aliases []string
	for _, tr := range from {
		alias := strings.ToLower(tr.Alias)
		rel, ok := cat.Relation(tr.Table)
		if !ok {
			return scope{}, fmt.Errorf("rewrite: unknown relation %q", tr.Table)
		}
		if _, dup := rels[alias]; dup {
			return scope{}, fmt.Errorf("rewrite: duplicate alias %q", alias)
		}
		rels[alias] = rel
		aliases = append(aliases, alias)
	}
	return scope{rels: rels, aliases: aliases}, nil
}

// resolve names the alias, and its relation, a column reference reads.
func (sc *scope) resolve(cr *sqlparse.ColumnRef) (string, *schema.Relation, error) {
	if cr.Qualifier != "" {
		q := strings.ToLower(cr.Qualifier)
		rel, ok := sc.rels[q]
		if !ok {
			return "", nil, fmt.Errorf("rewrite: unknown alias %q", cr.Qualifier)
		}
		if !rel.HasColumn(cr.Name) {
			return "", nil, fmt.Errorf("rewrite: %s has no column %q", rel.Name, cr.Name)
		}
		return q, rel, nil
	}
	found := ""
	var foundRel *schema.Relation
	for _, alias := range sc.aliases {
		if sc.rels[alias].HasColumn(cr.Name) {
			if found != "" {
				return "", nil, fmt.Errorf("rewrite: ambiguous column %q", cr.Name)
			}
			found, foundRel = alias, sc.rels[alias]
		}
	}
	if found == "" {
		return "", nil, fmt.Errorf("rewrite: unknown column %q", cr.Name)
	}
	return found, foundRel, nil
}

// touchedAliases lists the FROM aliases a conjunct references.
func (sc *scope) touchedAliases(e sqlparse.Expr) ([]string, error) {
	seen := make(map[string]bool)
	var order []string
	var walkErr error
	sqlparse.WalkExpr(e, func(x sqlparse.Expr) bool {
		cr, ok := x.(*sqlparse.ColumnRef)
		if !ok {
			return true
		}
		alias, _, err := sc.resolve(cr)
		if err != nil {
			if walkErr == nil {
				walkErr = err
			}
			return false
		}
		if !seen[alias] {
			seen[alias] = true
			order = append(order, alias)
		}
		return true
	})
	return order, walkErr
}

// rootedTree checks condition 2 of Dfn 7 on the contracted join graph and
// returns the root alias, or a human-readable violation.
func rootedTree(aliases []string, edges []Edge) (string, string) {
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

// identifierSelected checks condition 4: the identifier of the root node
// (any relation contracted into it) appears as a select item.
func identifierSelected(stmt *sqlparse.SelectStmt, root string, aliases []string, edges []Edge, rels map[string]*schema.Relation) bool {
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

// RewriteClean applies the paper's Figure-4 transformation: given a
// rewritable SPJ query q, it returns the query
//
//	SELECT A1, ..., An, SUM(R1.prob * ... * Rm.prob) AS prob
//	FROM R1, ..., Rm WHERE W GROUP BY A1, ..., An
//
// preserving any ORDER BY of the original. It fails with the analysis
// reasons when q is not rewritable (Thm 1 then does not apply).
func RewriteClean(cat *schema.Catalog, stmt *sqlparse.SelectStmt) (*sqlparse.SelectStmt, error) {
	a, err := Analyze(cat, stmt)
	if err != nil {
		return nil, err
	}
	if !a.Rewritable {
		return nil, &NotRewritableError{Reasons: a.Reasons}
	}
	return rewrite(cat, stmt), nil
}

// NotRewritableError reports why a query falls outside the rewritable
// class of Dfn 7.
type NotRewritableError struct {
	Reasons []string
}

// Error implements error.
func (e *NotRewritableError) Error() string {
	return "rewrite: query is not rewritable: " + strings.Join(e.Reasons, "; ")
}

// rewrite builds the Figure-4 output for an already validated query.
func rewrite(cat *schema.Catalog, stmt *sqlparse.SelectStmt) *sqlparse.SelectStmt {
	out := stmt.CloneWithRoom(1) // the SUM item
	// GROUP BY every select expression.
	out.GroupBy = make([]sqlparse.Expr, len(out.Select))
	for i, it := range out.Select {
		out.GroupBy[i] = sqlparse.CloneExpr(it.Expr)
	}
	// SUM of the product of the probability columns of all (dirty)
	// relations in the FROM clause, its nodes from one block per kind:
	// a relation adds at most one of each, so neither block is regrown
	// and the nodes keep their addresses.
	refs := make([]sqlparse.ColumnRef, 0, len(out.From))
	muls := make([]sqlparse.BinaryExpr, 0, max(len(out.From)-1, 0))
	var product sqlparse.Expr
	for _, tr := range out.From {
		rel, ok := cat.Relation(tr.Table)
		if !ok || rel.Prob == "" {
			continue
		}
		refs = append(refs, sqlparse.ColumnRef{Qualifier: strings.ToLower(tr.Alias), Name: rel.Prob})
		ref := &refs[len(refs)-1]
		if product == nil {
			product = ref
		} else {
			muls = append(muls, sqlparse.BinaryExpr{Op: sqlparse.OpMul, L: product, R: ref})
			product = &muls[len(muls)-1]
		}
	}
	out.Select = append(out.Select, sqlparse.SelectItem{
		Expr:  &sqlparse.FuncCall{Name: "SUM", Args: []sqlparse.Expr{product}},
		Alias: ProbAlias,
	})
	return out
}

// NaiveRewrite builds the grouping-and-summing query of Figure 4 without
// checking rewritability. It exists to demonstrate Example 7: applied to a
// non-rewritable query it produces wrong clean answers.
func NaiveRewrite(cat *schema.Catalog, stmt *sqlparse.SelectStmt) *sqlparse.SelectStmt {
	return rewrite(cat, stmt)
}
