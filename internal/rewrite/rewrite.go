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

// condition is one way a statement falls outside the rewritable class.
type condition uint8

// The conditions a Reason records; the comment names what its expr or
// name holds.
const (
	_                   condition = iota
	condDistinct                  // DISTINCT
	condGroupBy                   // GROUP BY
	condLimit                     // LIMIT
	condStar                      // SELECT *
	condAggregate                 // expr: the aggregating select item
	condSelfJoin                  // name: the relation named twice (condition 3)
	condNotDirty                  // name: the relation without identifier/probability
	condWidePredicate             // expr: a conjunct over more than two relations
	condNotEquality               // expr: a join conjunct other than =
	condNotColumns                // expr: an equality join not between two columns
	condNoIdentifier              // expr: a join of two non-identifiers (condition 1)
	condCycleThrough              // expr: an arc inside one contracted node (condition 2)
	condDisconnected              // condition 2
	condRedundantPaths            // condition 2
	condMultipleTargets           // name: the alias two arcs point into (condition 2)
	condCycle                     // condition 2
	condRootUnselected            // name: the root's alias (condition 4)
)

// Reason is one violated condition of a refused statement: the condition,
// the offending expression and the relation or alias it names. Analyze
// records reasons without formatting them; String spells one out.
type Reason struct {
	cond condition
	expr sqlparse.Expr
	name string
}

// reasonText spells each condition out: the text before its reason's
// expression or name, and the text after it.
var reasonText = [...][2]string{
	condDistinct:        {"query uses DISTINCT; only plain SPJ queries are rewritable"},
	condGroupBy:         {"query uses GROUP BY; only plain SPJ queries are rewritable"},
	condLimit:           {"query uses LIMIT; only plain SPJ queries are rewritable"},
	condStar:            {"SELECT * is not supported by the rewriting; name the attributes"},
	condAggregate:       {"query aggregates ", "; aggregation is future work in the paper"},
	condSelfJoin:        {"relation ", " appears more than once (self joins violate condition 3 of Dfn 7)"},
	condNotDirty:        {"relation ", " has no identifier/probability columns; mark it dirty first"},
	condWidePredicate:   {"predicate ", " spans more than two relations"},
	condNotEquality:     {"join predicate ", " is not an equality (the class allows only equality joins)"},
	condNotColumns:      {"join predicate ", " must equate two columns"},
	condNoIdentifier:    {"join ", " involves no identifier (condition 1 of Dfn 7)"},
	condCycleThrough:    {"join graph has a cycle through ", " (condition 2 of Dfn 7)"},
	condDisconnected:    {"join graph is disconnected (condition 2 of Dfn 7)"},
	condRedundantPaths:  {"join graph has redundant join paths (condition 2 of Dfn 7)"},
	condMultipleTargets: {"relation ", " is the join target of multiple relations (condition 2 of Dfn 7)"},
	condCycle:           {"join graph has a cycle (condition 2 of Dfn 7)"},
	condRootUnselected:  {"the identifier of root relation ", " is not in the select clause (condition 4 of Dfn 7)"},
}

// String is the reason's text.
func (r Reason) String() string {
	t := reasonText[r.cond]
	if r.expr != nil {
		return t[0] + r.expr.SQL() + t[1]
	}
	return t[0] + r.name + t[1]
}

// ReasonTexts spells out every reason, in order.
func ReasonTexts(rs []Reason) []string {
	if len(rs) == 0 {
		return nil
	}
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.String()
	}
	return out
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
	Reasons    []Reason

	rootRel *schema.Relation // the relation Root ranges over
	// rootUnselected records that condition 4 failed: the identifier of
	// Root is not in the select clause, which Augment repairs.
	rootUnselected bool
}

// Analyze classifies stmt against the catalog and checks the conditions of
// Dfn 7. It returns an error only for queries it cannot inspect at all
// (unknown tables or columns); violations of the rewritability conditions
// are reported in the Analysis. The join graph is walked over FROM
// positions, so the reasons depend on the statement alone.
func Analyze(cat *schema.Catalog, stmt *sqlparse.SelectStmt) (*Analysis, error) {
	a := &Analysis{Stmt: stmt}
	fail := func(r Reason) { a.Reasons = append(a.Reasons, r) }

	// Structural requirements: plain SPJ input.
	if stmt.Distinct {
		fail(Reason{cond: condDistinct})
	}
	if len(stmt.GroupBy) > 0 {
		fail(Reason{cond: condGroupBy})
	}
	if stmt.Limit >= 0 {
		fail(Reason{cond: condLimit})
	}
	for _, it := range stmt.Select {
		if it.Star {
			fail(Reason{cond: condStar})
			continue
		}
		if sqlparse.HasAggregate(it.Expr) {
			fail(Reason{cond: condAggregate, expr: it.Expr})
		}
	}

	// Resolve FROM entries; condition 3: each relation at most once.
	sc, err := newScope(cat, stmt.From)
	if err != nil {
		return nil, err
	}
	for i, s := range sc {
		if sc.repeats(i) {
			fail(Reason{cond: condSelfJoin, name: s.rel.Name})
		}
		if !s.rel.IsDirty() {
			fail(Reason{cond: condNotDirty, name: s.rel.Name})
		}
	}

	// Validate every column reference in the statement.
	for _, it := range stmt.Select {
		if err := sc.validate(stmt, it.Expr); err != nil {
			return nil, err
		}
	}
	if err := sc.validate(stmt, stmt.Where); err != nil {
		return nil, err
	}
	for _, o := range stmt.OrderBy {
		if err := sc.validate(stmt, o.Expr); err != nil {
			return nil, err
		}
	}

	// Classify WHERE conjuncts into the edges of the join graph.
	conjs := sqlparse.Conjuncts(stmt.Where)
	g := newJoinGraph(sc, len(conjs))
	for _, conj := range conjs {
		n, err := sc.sources(conj)
		if err != nil {
			return nil, err
		}
		if n <= 1 {
			continue // selection on one relation: always fine
		}
		if n > 2 {
			fail(Reason{cond: condWidePredicate, expr: conj})
			continue
		}
		be, ok := conj.(*sqlparse.BinaryExpr)
		if !ok || be.Op != sqlparse.OpEq {
			fail(Reason{cond: condNotEquality, expr: conj})
			continue
		}
		lc, lok := be.L.(*sqlparse.ColumnRef)
		rc, rok := be.R.(*sqlparse.ColumnRef)
		if !lok || !rok {
			fail(Reason{cond: condNotColumns, expr: conj})
			continue
		}
		l, lcol, err := sc.resolve(lc)
		if err != nil {
			return nil, err
		}
		r, rcol, err := sc.resolve(rc)
		if err != nil {
			return nil, err
		}
		lIsID, rIsID := sc[l].isIdentifier(lcol), sc[r].isIdentifier(rcol)
		kind := EdgeNonID
		switch {
		case lIsID && rIsID:
			kind = EdgeIDToID
		case !lIsID && rIsID:
			kind = EdgeFKToID
		case lIsID && !rIsID:
			kind, l, r = EdgeFKToID, r, l
		default:
			fail(Reason{cond: condNoIdentifier, expr: conj})
		}
		if a.Edges == nil {
			a.Edges = make([]Edge, 0, len(conjs))
		}
		a.Edges = append(a.Edges, Edge{Kind: kind, From: sc[l].alias, To: sc[r].alias, Expr: be})
		g.ends = append(g.ends, l, r)
	}

	// Conditions 2 and 4 read the contracted join graph: identifier-to-
	// identifier joins merge their endpoints into one node.
	g.contract(a.Edges)
	root, treeErr := g.rootedTree(a.Edges)
	if treeErr.cond != 0 {
		fail(treeErr)
	} else {
		// Condition 4: the identifier of some relation in the root node
		// must appear in the select clause.
		a.Root, a.rootRel = sc[root].alias, sc[root].rel
		if !g.identifierSelected(stmt, root) {
			a.rootUnselected = true
			fail(Reason{cond: condRootUnselected, name: a.Root})
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

// scope resolves the column references of one FROM list: one source per
// FROM position.
type scope []source

// source is the FROM entry at one position: its lower-cased alias and its
// relation.
type source struct {
	alias string
	rel   *schema.Relation
}

// newScope resolves FROM entries against the catalog.
func newScope(cat *schema.Catalog, from []sqlparse.TableRef) (scope, error) {
	sc := make(scope, len(from))
	for i, tr := range from {
		alias := strings.ToLower(tr.Alias)
		rel, ok := cat.Relation(tr.Table)
		if !ok {
			return nil, fmt.Errorf("rewrite: unknown relation %q", tr.Table)
		}
		for _, s := range sc[:i] {
			if s.alias == alias {
				return nil, fmt.Errorf("rewrite: duplicate alias %q", alias)
			}
		}
		sc[i] = source{alias: alias, rel: rel}
	}
	return sc, nil
}

// repeats reports whether the relation at position i sits at an earlier
// position too.
func (sc scope) repeats(i int) bool {
	for _, s := range sc[:i] {
		if s.rel.Name == sc[i].rel.Name {
			return true
		}
	}
	return false
}

// isIdentifier reports whether column col of the source's relation is its
// cluster identifier.
func (s source) isIdentifier(col int) bool {
	return s.rel.Columns[col].Name == s.rel.Identifier
}

// resolve names the FROM position a column reference reads and the
// column's index in that position's relation.
func (sc scope) resolve(cr *sqlparse.ColumnRef) (pos, col int, err error) {
	if cr.Qualifier != "" {
		q := strings.ToLower(cr.Qualifier)
		for i, s := range sc {
			if s.alias != q {
				continue
			}
			if col = s.rel.ColumnIndex(cr.Name); col < 0 {
				return -1, -1, fmt.Errorf("rewrite: %s has no column %q", s.rel.Name, cr.Name)
			}
			return i, col, nil
		}
		return -1, -1, fmt.Errorf("rewrite: unknown alias %q", cr.Qualifier)
	}
	pos = -1
	for i, s := range sc {
		if c := s.rel.ColumnIndex(cr.Name); c >= 0 {
			if pos >= 0 {
				return -1, -1, fmt.Errorf("rewrite: ambiguous column %q", cr.Name)
			}
			pos, col = i, c
		}
	}
	if pos < 0 {
		return -1, -1, fmt.Errorf("rewrite: unknown column %q", cr.Name)
	}
	return pos, col, nil
}

// validate resolves every column reference of e and returns the first
// failure. A bare select alias is not resolved: ORDER BY may legitimately
// name one rather than a base column.
func (sc scope) validate(stmt *sqlparse.SelectStmt, e sqlparse.Expr) error {
	if isSelectAlias(stmt, e) {
		return nil
	}
	var err error
	sqlparse.WalkExpr(e, func(x sqlparse.Expr) bool {
		if cr, ok := x.(*sqlparse.ColumnRef); ok && err == nil {
			_, _, err = sc.resolve(cr)
		}
		return true
	})
	return err
}

// sources counts the distinct FROM positions a conjunct reads, exactly up
// to two; three stands for "more".
func (sc scope) sources(e sqlparse.Expr) (n int, err error) {
	var seen [2]int
	sqlparse.WalkExpr(e, func(x sqlparse.Expr) bool {
		cr, ok := x.(*sqlparse.ColumnRef)
		if !ok || err != nil {
			return err == nil
		}
		pos, _, rerr := sc.resolve(cr)
		switch {
		case rerr != nil:
			err = rerr
		case n == 0 || (n == 1 && pos != seen[0]):
			seen[n] = pos
			n++
		case n == 2 && pos != seen[0] && pos != seen[1]:
			n = 3
		}
		return err == nil
	})
	return n, err
}

// joinGraph is the join graph of Dfn 6 over FROM positions, contracted: an
// identifier-to-identifier join merges its endpoints into one node, which
// its union-find representative names, and the foreign-key arcs join
// nodes. Its vectors share one block.
type joinGraph struct {
	sc     scope
	ends   []int // positions of edge i's From and To, at 2i and 2i+1
	parent []int // union-find over positions
	indeg  []int // arcs into a node, at its representative
	pred   []int // a node's predecessor on its arc, at its representative
}

// newJoinGraph makes the graph over sc's positions, with room for an edge
// per conjunct.
func newJoinGraph(sc scope, conjuncts int) joinGraph {
	n := len(sc)
	block := make([]int, 3*n+2*conjuncts)
	g := joinGraph{
		sc:     sc,
		parent: block[:n:n],
		indeg:  block[n : 2*n : 2*n],
		pred:   block[2*n : 3*n : 3*n],
		ends:   block[3*n : 3*n],
	}
	for p := range g.parent {
		g.parent[p] = p
	}
	return g
}

// find returns the representative of position x's node.
func (g *joinGraph) find(x int) int {
	for g.parent[x] != x {
		x = g.parent[x]
	}
	return x
}

// contract merges the endpoints of every identifier-to-identifier edge;
// the To side's representative names the merged node.
func (g *joinGraph) contract(edges []Edge) {
	for i, e := range edges {
		if e.Kind == EdgeIDToID {
			g.parent[g.find(g.ends[2*i])] = g.find(g.ends[2*i+1])
		}
	}
}

// rootedTree checks condition 2 of Dfn 7 and returns the root node's
// representative, or the violation (a zero Reason when there is none).
// Nodes are visited in the FROM order of their first position.
func (g *joinGraph) rootedTree(edges []Edge) (int, Reason) {
	nodes, arcs := 0, 0
	for p := range g.parent {
		if g.find(p) == p {
			nodes++
		}
	}
	for i, e := range edges {
		if e.Kind != EdgeFKToID {
			continue
		}
		f, t := g.find(g.ends[2*i]), g.find(g.ends[2*i+1])
		if f == t {
			return -1, Reason{cond: condCycleThrough, expr: e.Expr}
		}
		g.indeg[t]++
		g.pred[t] = f
		arcs++
	}

	// A rooted tree over n nodes needs exactly n-1 arcs, each non-root
	// node in-degree 1, and connectivity.
	if arcs < nodes-1 {
		return -1, Reason{cond: condDisconnected}
	}
	if arcs > nodes-1 {
		return -1, Reason{cond: condRedundantPaths}
	}
	root := -1
	for p := range g.parent {
		switch node := g.find(p); {
		case g.indeg[node] > 1:
			return -1, Reason{cond: condMultipleTargets, name: g.sc[node].alias}
		case g.indeg[node] == 0:
			root = node
		}
	}
	// n-1 arcs of in-degree at most 1 leave exactly one node without a
	// predecessor. Every node must reach it through its chain of
	// predecessors; otherwise some component is a cycle detached from it.
	for p := range g.parent {
		for node, steps := g.find(p), 0; node != root; node, steps = g.pred[node], steps+1 {
			if steps == nodes {
				return -1, Reason{cond: condCycle}
			}
		}
	}
	return root, Reason{}
}

// identifierSelected checks condition 4: the identifier of a relation in
// the root node — root or any position contracted into it — appears as a
// select item.
func (g *joinGraph) identifierSelected(stmt *sqlparse.SelectStmt, root int) bool {
	for _, it := range stmt.Select {
		cr, ok := it.Expr.(*sqlparse.ColumnRef)
		if !ok {
			continue
		}
		pos, col, err := g.sc.resolve(cr)
		if err == nil && g.find(pos) == root && g.sc[pos].isIdentifier(col) {
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
	Reasons []Reason
}

// Error implements error; the reasons are spelled out here, not when the
// statement is refused.
func (e *NotRewritableError) Error() string {
	return "rewrite: query is not rewritable: " + strings.Join(ReasonTexts(e.Reasons), "; ")
}

// rewrite builds the Figure-4 output for an already validated query.
func rewrite(cat *schema.Catalog, stmt *sqlparse.SelectStmt) *sqlparse.SelectStmt {
	out := stmt.CloneWithRoom(1) // the SUM item
	// GROUP BY every select expression: the clone's own trees, which no
	// one mutates once the statement is built.
	out.GroupBy = make([]sqlparse.Expr, len(out.Select))
	for i, it := range out.Select {
		out.GroupBy[i] = it.Expr
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
