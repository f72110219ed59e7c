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
	for _, it := range stmt.Select {
		if !it.Star && sqlparse.HasAggregate(it.Expr) {
			return nil, fmt.Errorf("rewrite: a statement aggregating %s has no lineage query", it.Expr.SQL())
		}
	}
	// read[at[i]+j]: the statement reads column j of FROM position i. One
	// block serves every position; it and the offsets at[i] sit on the
	// stack for a FROM list of up to eight positions and 128 columns.
	var fewAt [8]int
	var fewRead [128]bool
	at, width := fewAt[:0], 0
	for _, s := range sc {
		at = append(at, width)
		width += len(s.rel.Columns)
	}
	read := fewRead[:]
	if width > len(read) {
		read = make([]bool, width)
	}
	read = read[:width]
	collect := func(x sqlparse.Expr) bool {
		if cr, ok := x.(*sqlparse.ColumnRef); ok && err == nil {
			var pos, col int
			if pos, col, err = sc.resolve(cr); err == nil {
				read[at[pos]+col] = true
			}
		}
		return err == nil
	}
	for _, it := range stmt.Select {
		if it.Star {
			for i := range read {
				read[i] = true
			}
			continue
		}
		sqlparse.WalkExpr(it.Expr, collect)
	}
	sqlparse.WalkExpr(stmt.Where, collect)
	if err != nil {
		return nil, err
	}

	// Counted first, the lineage columns get room in the cloned select
	// list, their names one block and their references another.
	room, dirty := 0, 0
	for i, s := range sc {
		if rel := s.rel; rel.IsDirty() {
			dirty++
			read[at[i]+rel.IdentifierIndex()] = true
			for _, r := range read[at[i] : at[i]+len(rel.Columns)] {
				if r {
					room++
				}
			}
		}
	}
	out := stmt.CloneWithRoom(room)
	out.Distinct, out.OrderBy = false, nil
	lq := &LineageQuery{Stmt: out, Aliases: make([]LineageAlias, 0, dirty)}
	names := make([]string, 0, room)
	cols := make([]sqlparse.ColumnRef, 0, room)
	for i, s := range sc {
		rel := s.rel
		if !rel.IsDirty() {
			continue
		}
		id, first := rel.IdentifierIndex(), len(names)
		names = append(names, rel.Identifier)
		for j, c := range rel.Columns {
			if read[at[i]+j] && j != id {
				names = append(names, c.Name)
			}
		}
		la := LineageAlias{Relation: rel.Name, Columns: names[first:len(names):len(names)]}
		for _, c := range la.Columns {
			cols = append(cols, sqlparse.ColumnRef{Qualifier: s.alias, Name: c})
			out.Select = append(out.Select, sqlparse.SelectItem{Expr: &cols[len(cols)-1]})
		}
		lq.Aliases = append(lq.Aliases, la)
	}
	return lq, nil
}
