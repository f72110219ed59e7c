package rewrite

import (
	"fmt"

	"conquer/internal/schema"
	"conquer/internal/sqlparse"
)

// LineageQuery is the lineage query of an SPJ statement (DESIGN.md §17):
// each of its rows is one answer of the statement, the select list,
// followed by what derives it — for every dirty FROM alias, the cluster
// and the tuple of it, up to what the statement can tell apart.
type LineageQuery struct {
	Stmt *sqlparse.SelectStmt
	// Aliases are the statement's dirty FROM aliases, in FROM order; their
	// Columns follow the select list in the output, in this order.
	Aliases []LineageAlias
}

// LineageAlias is one dirty FROM alias of a lineage query.
type LineageAlias struct {
	// Relation is the catalog relation the alias ranges over.
	Relation string
	// Columns are the alias's output columns: the identifier, then every
	// other column of Relation the statement reads from the alias, in
	// schema order.
	Columns []string
}

// Lineage builds the lineage query of stmt: stmt without DISTINCT and
// ORDER BY, which change no candidate database's answer set, with every
// dirty alias's lineage columns appended to the select list. Two tuples
// of one cluster that agree on every column the statement reads from an
// alias are indistinguishable to it, so no row id is needed, and a
// relation named twice is two aliases over the same clusters. Lineage
// fails for a statement outside SPJ — GROUP BY, an aggregate, HAVING or
// LIMIT, whose answers on a candidate are not the union of what each
// combination of its tuples derives — and for a column it cannot resolve.
func Lineage(cat *schema.Catalog, stmt *sqlparse.SelectStmt) (*LineageQuery, error) {
	switch {
	case len(stmt.GroupBy) > 0 || stmt.Having != nil:
		return nil, fmt.Errorf("rewrite: a grouped statement has no lineage query")
	case stmt.Limit >= 0:
		return nil, fmt.Errorf("rewrite: a statement with LIMIT has no lineage query")
	}
	sc, err := newScope(cat, stmt.From)
	if err != nil {
		return nil, err
	}
	// read[i][j]: the statement reads column j of FROM position i.
	read := make([][]bool, len(sc))
	for i, s := range sc {
		read[i] = make([]bool, len(s.rel.Columns))
	}
	var refs []*sqlparse.ColumnRef
	collect := func(x sqlparse.Expr) bool {
		if cr, ok := x.(*sqlparse.ColumnRef); ok {
			refs = append(refs, cr)
		}
		return true
	}
	for _, it := range stmt.Select {
		if it.Star {
			for _, cols := range read {
				for j := range cols {
					cols[j] = true
				}
			}
			continue
		}
		if sqlparse.HasAggregate(it.Expr) {
			return nil, fmt.Errorf("rewrite: a statement aggregating %s has no lineage query", it.Expr.SQL())
		}
		sqlparse.WalkExpr(it.Expr, collect)
	}
	sqlparse.WalkExpr(stmt.Where, collect)
	for _, cr := range refs {
		pos, col, err := sc.resolve(cr)
		if err != nil {
			return nil, err
		}
		read[pos][col] = true
	}

	// Counted first, the lineage columns get room in the cloned select list
	// and one block for their references.
	room := 0
	for i, s := range sc {
		if rel := s.rel; rel.IsDirty() {
			read[i][rel.IdentifierIndex()] = true
			for _, r := range read[i] {
				if r {
					room++
				}
			}
		}
	}
	out := stmt.CloneWithRoom(room)
	out.Distinct, out.OrderBy = false, nil
	lq := &LineageQuery{Stmt: out}
	cols := make([]sqlparse.ColumnRef, 0, room)
	for i, s := range sc {
		rel := s.rel
		if !rel.IsDirty() {
			continue
		}
		id := rel.IdentifierIndex()
		la := LineageAlias{Relation: rel.Name, Columns: []string{rel.Identifier}}
		for j, c := range rel.Columns {
			if read[i][j] && j != id {
				la.Columns = append(la.Columns, c.Name)
			}
		}
		for _, c := range la.Columns {
			cols = append(cols, sqlparse.ColumnRef{Qualifier: s.alias, Name: c})
			out.Select = append(out.Select, sqlparse.SelectItem{Expr: &cols[len(cols)-1]})
		}
		lq.Aliases = append(lq.Aliases, la)
	}
	return lq, nil
}
