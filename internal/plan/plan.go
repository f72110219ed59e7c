// Package plan translates parsed SELECT statements into physical operator
// trees: it resolves names against the database, pushes single-table
// predicates below joins, picks a greedy join order over the equi-join
// edges, and assembles projection, aggregation, sorting, DISTINCT and
// LIMIT on top.
package plan

import (
	"fmt"
	"slices"
	"strings"

	"conquer/internal/exec"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// Options tunes physical planning. No field changes the tree: the worker
// count arrives with each run (exec.Governor.SetWorkers).
type Options struct {
	// Parallelism is inert: the worker count is the run's, not the
	// plan's, and nothing in this module reads it. It stays only because
	// the benchmark module compiles against it; ROADMAP item 3(b) deletes
	// it.
	Parallelism int
	// Shards and Sharder are inert: scans are not partitioned, and
	// nothing in this module reads them. They stay only because the
	// benchmark module compiles against them; ROADMAP item 3(b) deletes
	// them.
	Shards  int
	Sharder func(*storage.Table) exec.ShardView
	// BatchSize must be zero: the executor has one batch size, and Plan
	// refuses any other value rather than ignore it. The field stays only
	// because the benchmark module compiles against it.
	BatchSize int
}

// Plan builds an executable operator tree for stmt over db.
func Plan(db *storage.DB, stmt *sqlparse.SelectStmt, opts Options) (exec.Operator, error) {
	if opts.BatchSize != 0 {
		return nil, fmt.Errorf("plan: batch size %d: the executor's batch size is fixed; leave Options.BatchSize zero", opts.BatchSize)
	}
	return (&planner{db: db, stmt: stmt}).plan()
}

// planner plans one statement. Its lists are counted, or bounded, before
// they are allocated, each once at its length: a statement's plan costs a
// block per list, not an allocation per conjunct, edge or key (DESIGN.md
// §11, "Plan per statement").
type planner struct {
	db   *storage.DB
	stmt *sqlparse.SelectStmt
	// ands is the unused tail of the block the AND nodes of the pushed-down
	// and residual predicates are carved from.
	ands []sqlparse.BinaryExpr
}

// tableSource tracks one FROM entry through join planning.
type tableSource struct {
	ref      sqlparse.TableRef
	alias    string // lower-cased ref.Alias
	table    *storage.Table
	scan     *exec.Scan    // the entry's scan, from the statement's one block of them
	filter   sqlparse.Expr // the single-table conjuncts, ANDed in WHERE order; nil when none
	nFilters int
	joined   bool // part of the join tree built so far
}

// joinEdge is one equi-join conjunct `col = col` between two FROM
// entries, named by their positions in the FROM list.
type joinEdge struct {
	left, right       int
	leftCol, rightCol int // key column positions within the two tables
	leftKey, rightKey sqlparse.Expr
}

func (p *planner) plan() (exec.Operator, error) {
	if len(p.stmt.From) == 0 {
		return nil, fmt.Errorf("plan: query has no FROM clause")
	}
	sources, err := p.resolveFrom()
	if err != nil {
		return nil, err
	}
	edges, residual, err := p.classifyWhere(sources)
	if err != nil {
		return nil, err
	}
	lv := p.liveColumns(sources, edges, residual)
	root, err := p.buildJoinTree(sources, edges, &lv)
	if err != nil {
		return nil, err
	}
	if residual != nil {
		root, err = exec.NewFilter(root, residual)
		if err != nil {
			return nil, err
		}
	}
	in := root.Schema()
	items := p.expandStars(in)
	root, err = p.buildOutput(root, items)
	if err != nil {
		return nil, err
	}
	// Parallelize a splittable pipeline root (scan→filter→project plans;
	// aggregate plans instead parallelize inside HashAggregate) with a
	// Gather exchange below DISTINCT/ORDER BY/LIMIT. It is planned at every
	// worker count: a run on one worker runs the pipeline as its one part.
	if exec.CanSplit(root) {
		root = exec.NewGather(root)
	}
	if p.stmt.Distinct {
		root = exec.NewDistinct(root)
	}
	root, limitFused, err := p.buildSort(root, items, in)
	if err != nil {
		return nil, err
	}
	if p.stmt.Limit >= 0 && !limitFused {
		root = exec.NewLimit(root, p.stmt.Limit)
	}
	return root, nil
}

// resolveFrom returns the FROM entries, from one block, and their scans,
// from another.
func (p *planner) resolveFrom() ([]tableSource, error) {
	out := make([]tableSource, len(p.stmt.From))
	for i, ref := range p.stmt.From {
		alias := strings.ToLower(ref.Alias)
		for _, s := range out[:i] {
			if s.alias == alias {
				return nil, fmt.Errorf("plan: duplicate table alias %q", alias)
			}
		}
		tb, ok := p.db.Table(ref.Table)
		if !ok {
			return nil, fmt.Errorf("plan: unknown table %q", ref.Table)
		}
		out[i] = tableSource{ref: ref, alias: alias, table: tb}
	}
	scans := exec.NewScans(len(out), func(i int) (*storage.Table, string) { return out[i].table, out[i].alias })
	for i := range out {
		out[i].scan = &scans[i]
	}
	return out, nil
}

// classifyWhere splits the WHERE conjuncts into per-table filters (ANDed
// onto their sources), equi-join edges, and the residual predicate
// evaluated after all joins (nil when there is none). A statement has at
// most as many edges, and needs fewer AND nodes, than it has conjuncts, so
// the edges and the nodes each take one block of that length.
func (p *planner) classifyWhere(sources []tableSource) ([]joinEdge, sqlparse.Expr, error) {
	conjuncts := sqlparse.Conjuncts(p.stmt.Where)
	if len(conjuncts) == 0 {
		return nil, nil, nil
	}
	edges := make([]joinEdge, 0, len(conjuncts))
	p.ands = make([]sqlparse.BinaryExpr, len(conjuncts))
	var residual sqlparse.Expr
	for _, conj := range conjuncts {
		first, n, err := referencedSources(conj, sources)
		if err != nil {
			return nil, nil, err
		}
		switch n {
		case 1:
			s := &sources[first]
			s.filter = p.and(s.filter, conj)
			s.nFilters++
			continue
		case 2:
			if e, ok := asEquiJoin(conj, sources); ok {
				edges = append(edges, e)
				continue
			}
		}
		// Constant predicates (evaluated once per row after the joins) and
		// multi-table predicates that are no equi-join.
		residual = p.and(residual, conj)
	}
	return edges, residual, nil
}

// and returns l AND r, its node carved from p.ands; a nil l is no
// conjunct yet, and r alone is returned. Conjuncts ANDed one by one make a
// left-deep chain, which prints as they were written.
func (p *planner) and(l, r sqlparse.Expr) sqlparse.Expr {
	if l == nil {
		return r
	}
	n := &p.ands[0]
	p.ands = p.ands[1:]
	*n = sqlparse.BinaryExpr{Op: sqlparse.OpAnd, L: l, R: r}
	return n
}

// referencedSources counts the distinct FROM entries a conjunct touches
// (exactly up to two; three stands for "more") and returns the first one
// met, resolving unqualified columns to the unique table that has the
// column.
func referencedSources(e sqlparse.Expr, sources []tableSource) (first, n int, err error) {
	var seen [2]int
	sqlparse.WalkExpr(e, func(x sqlparse.Expr) bool {
		cr, ok := x.(*sqlparse.ColumnRef)
		if !ok {
			return true
		}
		src, _, rerr := resolveColumn(cr, sources)
		switch {
		case rerr != nil:
			if err == nil {
				err = rerr
			}
		case n == 0 || (n == 1 && src != seen[0]):
			seen[n] = src
			n++
		case n == 2 && src != seen[0] && src != seen[1]:
			n = 3
		}
		return true
	})
	return seen[0], n, err
}

// resolveColumn finds the FROM entry owning a column reference and the
// column's position in that entry's table.
func resolveColumn(cr *sqlparse.ColumnRef, sources []tableSource) (src, col int, err error) {
	if cr.Qualifier != "" {
		q := strings.ToLower(cr.Qualifier)
		for i, s := range sources {
			if s.alias == q {
				c := s.table.Schema.ColumnIndex(cr.Name)
				if c < 0 {
					return -1, -1, fmt.Errorf("plan: table %s has no column %q", s.ref.Alias, cr.Name)
				}
				return i, c, nil
			}
		}
		return -1, -1, fmt.Errorf("plan: unknown table alias %q", cr.Qualifier)
	}
	src = -1
	for i, s := range sources {
		if c := s.table.Schema.ColumnIndex(cr.Name); c >= 0 {
			if src >= 0 {
				return -1, -1, fmt.Errorf("plan: ambiguous column %q", cr.Name)
			}
			src, col = i, c
		}
	}
	if src < 0 {
		return -1, -1, fmt.Errorf("plan: unknown column %q", cr.Name)
	}
	return src, col, nil
}

// asEquiJoin recognizes `col = col` conjuncts joining two distinct tables.
func asEquiJoin(e sqlparse.Expr, sources []tableSource) (joinEdge, bool) {
	be, ok := e.(*sqlparse.BinaryExpr)
	if !ok || be.Op != sqlparse.OpEq {
		return joinEdge{}, false
	}
	lc, lok := be.L.(*sqlparse.ColumnRef)
	rc, rok := be.R.(*sqlparse.ColumnRef)
	if !lok || !rok {
		return joinEdge{}, false
	}
	ls, lcol, err1 := resolveColumn(lc, sources)
	rs, rcol, err2 := resolveColumn(rc, sources)
	if err1 != nil || err2 != nil || ls == rs {
		return joinEdge{}, false
	}
	return joinEdge{left: ls, right: rs, leftCol: lcol, rightCol: rcol, leftKey: be.L, rightKey: be.R}, true
}

// liveness tracks, while buildJoinTree composes the join tree, which
// source columns an operator not yet planned still reads, so that every
// join copies only those into its output rows (DESIGN.md §16). Columns
// are numbered over the concatenation of the FROM entries' tables.
// Everything lives in one backing array; the zero value tracks nothing
// and keeps every column of every join.
type liveness struct {
	off []int // off[i] = number of FROM entry i's first column; off[len] = total
	// refs counts, per column, the readers still to come: references from
	// the select list, GROUP BY, HAVING and the residual predicates, plus
	// one per join edge not yet turned into a join's keys.
	refs  []int
	root  []int // column number of each output column of the tree built so far
	lists []int // unused tail of the backing array for the joins' output lists
}

// liveColumns counts the column references above the join tree. It
// returns the zero liveness, and every join keeps the identity output,
// for a single table (no join to narrow) and for SELECT * (every column
// is output).
//
// A reference marks every source column it could name, the way
// RowSchema.Resolve matches (name, and qualifier when given): an
// ambiguous reference keeps all its candidates and an unknown one keeps
// none, so the operator that compiles it reports exactly the error it
// reports over unpruned rows. ORDER BY is absent because its keys bind to
// the projection's output, never to join columns; single-table filters
// run below the joins, on stored rows.
func (p *planner) liveColumns(sources []tableSource, edges []joinEdge, residual sqlparse.Expr) liveness {
	if len(sources) < 2 {
		return liveness{}
	}
	for _, it := range p.stmt.Select {
		if it.Star {
			return liveness{}
		}
	}
	n, total := len(sources), 0
	for _, s := range sources {
		total += len(s.table.Schema.Columns)
	}
	buf := make([]int, n+1+total*(n+1))
	lv := liveness{off: buf[:n+1]}
	buf = buf[n+1:]
	lv.refs, buf = buf[:total:total], buf[total:]
	lv.root, lv.lists = buf[:0:total], buf[total:]
	for i, s := range sources {
		lv.off[i+1] = lv.off[i] + len(s.table.Schema.Columns)
	}
	mark := func(x sqlparse.Expr) bool {
		cr, ok := x.(*sqlparse.ColumnRef)
		if !ok {
			return true
		}
		q := strings.ToLower(cr.Qualifier)
		for i, s := range sources {
			if q != "" && s.alias != q {
				continue
			}
			if c := s.table.Schema.ColumnIndex(cr.Name); c >= 0 {
				lv.refs[lv.off[i]+c]++
			}
		}
		return true
	}
	for _, it := range p.stmt.Select {
		sqlparse.WalkExpr(it.Expr, mark)
	}
	for _, g := range p.stmt.GroupBy {
		sqlparse.WalkExpr(g, mark)
	}
	sqlparse.WalkExpr(p.stmt.Having, mark)
	sqlparse.WalkExpr(residual, mark)
	for _, e := range edges {
		lv.refs[lv.off[e.left]+e.leftCol]++
		lv.refs[lv.off[e.right]+e.rightCol]++
	}
	return lv
}

// start makes FROM entry src, scanned at full width, the tree so far.
func (lv *liveness) start(src int) {
	if lv.refs == nil {
		return
	}
	for c := lv.off[src]; c < lv.off[src+1]; c++ {
		lv.root = append(lv.root, c)
	}
}

// release drops the reference edge e held on its two key columns: it is
// about to become a join's keys, which bind to the join's inputs.
func (lv *liveness) release(e joinEdge) {
	if lv.refs == nil {
		return
	}
	lv.refs[lv.off[e.left]+e.leftCol]--
	lv.refs[lv.off[e.right]+e.rightCol]--
}

// join extends the tree by a join with FROM entry src and returns the
// join's output list: the positions, in tree‖src, of the columns still
// referenced. nil means all of them.
func (lv *liveness) join(src int) []int {
	if lv.refs == nil {
		return nil
	}
	nLeft, nRight := len(lv.root), lv.off[src+1]-lv.off[src]
	out, kept := lv.lists[:0], lv.root[:0]
	for i, c := range lv.root {
		if lv.refs[c] > 0 {
			out, kept = append(out, i), append(kept, c)
		}
	}
	for i := 0; i < nRight; i++ {
		if c := lv.off[src] + i; lv.refs[c] > 0 {
			out, kept = append(out, nLeft+i), append(kept, c)
		}
	}
	lv.root, lv.lists = kept, lv.lists[len(out):]
	if len(out) == nLeft+nRight {
		return nil
	}
	return out[:len(out):len(out)]
}

// scan builds the leaf for one FROM entry: its scan under the pushed-down
// single-table filters.
func (p *planner) scan(s *tableSource) (exec.Operator, error) {
	if s.filter == nil {
		return s.scan, nil
	}
	f, err := exec.NewFilter(s.scan, s.filter)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// buildJoinTree greedily composes the sources along equi-join edges,
// starting from the source with the most filters (cheapest after
// filtering, as a crude cardinality proxy) and preferring connected joins;
// disconnected components fall back to cross joins. Each join's output is
// narrowed to the columns lv still counts as referenced. Every edge
// becomes a key pair of exactly one join, so the joins' key lists are
// carved from one block of two keys per edge; edges is consumed.
func (p *planner) buildJoinTree(sources []tableSource, edges []joinEdge, lv *liveness) (exec.Operator, error) {
	// Pick the start: most filters wins; ties go to FROM order.
	start := 0
	for i, s := range sources {
		if s.nFilters > sources[start].nFilters {
			start = i
		}
	}
	root, err := p.scan(&sources[start])
	if err != nil {
		return nil, err
	}
	sources[start].joined = true
	lv.start(start)
	pending := edges
	keys := make([]sqlparse.Expr, 2*len(edges))

	for n := 1; n < len(sources); n++ {
		// Gather every pending edge connecting the joined set to one new
		// table; all its edges become the (multi-key) join condition.
		next := -1
		for _, e := range pending {
			switch {
			case sources[e.left].joined && !sources[e.right].joined:
				next = e.right
			case sources[e.right].joined && !sources[e.left].joined:
				next = e.left
			}
			if next >= 0 {
				break
			}
		}
		if next < 0 {
			// Disconnected: the next remaining table in FROM order, which
			// no pending edge reaches, so the key lists below stay empty.
			next = 0
			for sources[next].joined {
				next++
			}
		}

		// This join's edges: k of them, each leaving pending, whose
		// outer keys take the first k slots of keys and inner keys the
		// next k.
		k := 0
		for _, e := range pending {
			if sources[e.left].joined && e.right == next || sources[e.right].joined && e.left == next {
				k++
			}
		}
		outerKeys, innerKeys := keys[:0:k], keys[k:k:2*k]
		keys = keys[2*k:]
		rest := pending[:0]
		for _, e := range pending {
			switch {
			case sources[e.left].joined && e.right == next:
				outerKeys = append(outerKeys, e.leftKey)
				innerKeys = append(innerKeys, e.rightKey)
			case sources[e.right].joined && e.left == next:
				outerKeys = append(outerKeys, e.rightKey)
				innerKeys = append(innerKeys, e.leftKey)
			default:
				rest = append(rest, e)
				continue
			}
			lv.release(e)
		}
		pending = rest

		root, err = p.join(root, &sources[next], outerKeys, innerKeys, lv.join(next))
		if err != nil {
			return nil, err
		}
		sources[next].joined = true
	}

	// Every edge was consumed by the step that joined its second table
	// (a cycle's closing edge as one more key of that step's join), so
	// none can be left over.
	if len(pending) > 0 {
		return nil, fmt.Errorf("plan: internal error: %d join edges left unplanned", len(pending))
	}
	return root, nil
}

// join attaches src to the outer plan using the key lists (empty for a
// cross join), keeping the columns listed in cols (nil = all).
func (p *planner) join(outer exec.Operator, src *tableSource, outerKeys, innerKeys []sqlparse.Expr, cols []int) (exec.Operator, error) {
	inner, err := p.scan(src)
	if err != nil {
		return nil, err
	}
	j, err := exec.NewHashJoin(outer, inner, outerKeys, innerKeys, cols)
	if err != nil {
		return nil, err
	}
	return j, nil
}

// buildOutput constructs projection or aggregation of items over the join
// result; the operator's schema names the output columns (for ORDER BY
// alias resolution).
func (p *planner) buildOutput(root exec.Operator, items []sqlparse.SelectItem) (exec.Operator, error) {
	hasAgg := false
	for _, it := range items {
		if sqlparse.HasAggregate(it.Expr) {
			hasAgg = true
			break
		}
	}
	if hasAgg || len(p.stmt.GroupBy) > 0 {
		return p.buildAggregate(root, items)
	}
	if p.stmt.Having != nil {
		return nil, fmt.Errorf("plan: HAVING requires GROUP BY")
	}
	cols := make([]exec.ProjectionCol, len(items))
	for i, it := range items {
		cols[i] = exec.ProjectionCol{Expr: it.Expr, Col: outputCol(it, root.Schema(), i)}
	}
	return exec.NewProject(root, cols)
}

// expandStars replaces SELECT * with explicit column references; a
// select list without * is returned as it is.
func (p *planner) expandStars(rs exec.RowSchema) []sqlparse.SelectItem {
	n, stars := 0, 0
	for _, it := range p.stmt.Select {
		if it.Star {
			n += len(rs)
			stars++
		} else {
			n++
		}
	}
	if stars == 0 {
		return p.stmt.Select
	}
	out := make([]sqlparse.SelectItem, 0, n)
	refs := make([]sqlparse.ColumnRef, stars*len(rs))
	for _, it := range p.stmt.Select {
		if !it.Star {
			out = append(out, it)
			continue
		}
		for _, c := range rs {
			refs[0] = sqlparse.ColumnRef{Qualifier: c.Qualifier, Name: c.Name}
			out = append(out, sqlparse.SelectItem{Expr: &refs[0]})
			refs = refs[1:]
		}
	}
	return out
}

// outputCol derives the output column descriptor for a select item.
func outputCol(it sqlparse.SelectItem, rs exec.RowSchema, pos int) exec.ColInfo {
	name := it.Alias
	if name == "" {
		if cr, ok := it.Expr.(*sqlparse.ColumnRef); ok {
			name = cr.Name
		} else {
			name = fmt.Sprintf("col%d", pos+1)
		}
	}
	return exec.ColInfo{Name: strings.ToLower(name), Type: inferType(it.Expr, rs)}
}

// inferType approximates the output kind of an expression; used only for
// result metadata, never for execution decisions.
func inferType(e sqlparse.Expr, rs exec.RowSchema) value.Kind {
	switch e := e.(type) {
	case *sqlparse.ColumnRef:
		if i, err := rs.Resolve(e.Qualifier, e.Name); err == nil {
			return rs[i].Type
		}
	case *sqlparse.Literal:
		return e.Val.Kind()
	case *sqlparse.BinaryExpr:
		if e.Op.IsComparison() || e.Op == sqlparse.OpAnd || e.Op == sqlparse.OpOr {
			return value.KindBool
		}
		lt, rt := inferType(e.L, rs), inferType(e.R, rs)
		if lt == value.KindFloat || rt == value.KindFloat {
			return value.KindFloat
		}
		return value.KindInt
	case *sqlparse.NegExpr:
		return inferType(e.X, rs)
	case *sqlparse.NotExpr, *sqlparse.InExpr, *sqlparse.BetweenExpr, *sqlparse.LikeExpr, *sqlparse.IsNullExpr:
		return value.KindBool
	case *sqlparse.FuncCall:
		switch e.Name {
		case "COUNT":
			return value.KindInt
		case "AVG":
			return value.KindFloat
		case "SUM", "MIN", "MAX":
			if len(e.Args) == 1 {
				return inferType(e.Args[0], rs)
			}
		}
	}
	return value.KindNull
}

// buildAggregate plans GROUP BY + aggregates. Every select item must be
// either an aggregate call or the same expression as a GROUP BY key
// (sameExpr), matching standard SQL validation.
func (p *planner) buildAggregate(root exec.Operator, items []sqlparse.SelectItem) (exec.Operator, error) {
	rs, groups := root.Schema(), p.stmt.GroupBy
	// A group key's columns are resolved first, and a select item's when it
	// matches no key, so that an ambiguous or unknown column is reported as
	// such rather than as an item and a key that fail to match.
	for _, g := range groups {
		if err := resolves(g, rs); err != nil {
			return nil, err
		}
	}
	groupCols := make([]exec.ColInfo, len(groups))
	// outs[i] is the aggregate output column select item i reads: a group
	// key's position, or len(groups) plus an aggregate's.
	outs := make([]int, len(items))
	aggs := make([]exec.AggSpec, 0, countAggregates(items, p.stmt.Having))
	for i, it := range items {
		ci := outputCol(it, rs, i)
		if fc, ok := it.Expr.(*sqlparse.FuncCall); ok && sqlparse.IsAggregateName(fc.Name) {
			spec, err := aggSpec(fc)
			if err != nil {
				return nil, err
			}
			spec.Col = ci
			outs[i] = len(groups) + len(aggs)
			aggs = append(aggs, spec)
			continue
		}
		if sqlparse.HasAggregate(it.Expr) {
			return nil, fmt.Errorf("plan: aggregates must be top-level select items (got %s)", it.Expr.SQL())
		}
		gi := slices.IndexFunc(groups, func(g sqlparse.Expr) bool { return sameExpr(g, it.Expr, rs) })
		if gi < 0 {
			if err := resolves(it.Expr, rs); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("plan: select item %s is neither aggregated nor grouped", it.Expr.SQL())
		}
		groupCols[gi] = ci // select alias names the group output
		outs[i] = gi
	}
	// A group output no select item names is named after its expression.
	for i, g := range groups {
		if groupCols[i].Name != "" {
			continue
		}
		name := fmt.Sprintf("group%d", i+1)
		if cr, ok := g.(*sqlparse.ColumnRef); ok {
			name = cr.Name
		}
		groupCols[i] = exec.ColInfo{Name: name, Type: inferType(g, rs)}
	}

	// HAVING: aggregates referenced only in the predicate become hidden
	// aggregate outputs, stripped again by the final projection.
	selectAggCount := len(aggs)
	var having sqlparse.Expr
	if p.stmt.Having != nil {
		var err error
		having, err = p.rewriteHaving(p.stmt.Having, groupCols, &aggs, rs)
		if err != nil {
			return nil, err
		}
	}

	agg, err := exec.NewHashAggregate(root, groups, groupCols, aggs)
	if err != nil {
		return nil, err
	}

	var filtered exec.Operator = agg
	if having != nil {
		f, err := exec.NewFilter(agg, having)
		if err != nil {
			return nil, err
		}
		filtered = f
	}

	// Reorder aggregate output into select order when needed; hidden
	// HAVING aggregates always force the stripping projection.
	needsReorder := len(aggs) > selectAggCount || len(items) != len(groups)+len(aggs)
	for i, src := range outs {
		if src != i {
			needsReorder = true
		}
	}
	if !needsReorder {
		return filtered, nil
	}
	cols := make([]exec.ProjectionCol, len(items))
	refs := make([]sqlparse.ColumnRef, len(items))
	aggSchema := agg.Schema()
	for i, src := range outs {
		refs[i] = sqlparse.ColumnRef{Name: aggSchema[src].Name}
		cols[i] = exec.ProjectionCol{
			Expr: &refs[i],
			Col:  exec.ColInfo{Name: outputCol(items[i], rs, i).Name, Type: aggSchema[src].Type},
		}
	}
	return exec.NewProject(filtered, cols)
}

// resolves reports the first column reference of e that does not resolve
// to exactly one column of rs.
func resolves(e sqlparse.Expr, rs exec.RowSchema) (err error) {
	sqlparse.WalkExpr(e, func(x sqlparse.Expr) bool {
		if cr, ok := x.(*sqlparse.ColumnRef); ok && err == nil {
			_, err = rs.Resolve(cr.Qualifier, cr.Name)
		}
		return err == nil
	})
	return err
}

// countAggregates bounds the aggregate outputs of a statement: its
// aggregate select items, and every aggregate call of its HAVING.
func countAggregates(items []sqlparse.SelectItem, having sqlparse.Expr) int {
	n := 0
	for _, it := range items {
		if fc, ok := it.Expr.(*sqlparse.FuncCall); ok && sqlparse.IsAggregateName(fc.Name) {
			n++
		}
	}
	sqlparse.WalkExpr(having, func(x sqlparse.Expr) bool {
		if fc, ok := x.(*sqlparse.FuncCall); ok && sqlparse.IsAggregateName(fc.Name) {
			n++
			return false
		}
		return true
	})
	return n
}

// aggSpec is the aggregate fc computes, its output column unset.
func aggSpec(fc *sqlparse.FuncCall) (exec.AggSpec, error) {
	f, err := exec.ParseAggFunc(fc.Name)
	if err != nil {
		return exec.AggSpec{}, err
	}
	spec := exec.AggSpec{Func: f}
	switch {
	case fc.Star:
		if f != exec.AggCount {
			return exec.AggSpec{}, fmt.Errorf("plan: %s(*) is not valid", fc.Name)
		}
	case len(fc.Args) != 1:
		return exec.AggSpec{}, fmt.Errorf("plan: %s expects one argument", fc.Name)
	default:
		spec.Arg = fc.Args[0]
	}
	return spec, nil
}

// rewriteHaving translates a HAVING predicate into an expression over the
// aggregate's output schema: aggregate calls become references to
// (possibly hidden, freshly appended) aggregate outputs, and expressions
// the same as a GROUP BY key (sameExpr over base) become references to
// that key's output column. Anything else is left for compilation against
// the aggregate schema, which rejects references to non-grouped base
// columns.
func (p *planner) rewriteHaving(e sqlparse.Expr, groupCols []exec.ColInfo, aggs *[]exec.AggSpec, base exec.RowSchema) (sqlparse.Expr, error) {
	// Group-key match first: a bare column that is also a group key maps
	// to the group output.
	for i, g := range p.stmt.GroupBy {
		if sameExpr(g, e, base) {
			return &sqlparse.ColumnRef{Name: groupCols[i].Name}, nil
		}
	}
	rewrite := func(x sqlparse.Expr) (sqlparse.Expr, error) {
		return p.rewriteHaving(x, groupCols, aggs, base)
	}
	switch e := e.(type) {
	case *sqlparse.FuncCall:
		if !sqlparse.IsAggregateName(e.Name) {
			return nil, fmt.Errorf("plan: unknown function %s in HAVING", e.Name)
		}
		spec, err := aggSpec(e)
		if err != nil {
			return nil, err
		}
		// Reuse an existing spec computing the same aggregate.
		for _, existing := range *aggs {
			if existing.Func == spec.Func && sameArg(existing.Arg, spec.Arg, base) {
				return &sqlparse.ColumnRef{Name: existing.Col.Name}, nil
			}
		}
		spec.Col = exec.ColInfo{
			Name: fmt.Sprintf("_having%d", len(*aggs)+1),
			Type: inferType(e, base),
		}
		*aggs = append(*aggs, spec)
		return &sqlparse.ColumnRef{Name: spec.Col.Name}, nil
	case *sqlparse.BinaryExpr:
		l, err := rewrite(e.L)
		if err != nil {
			return nil, err
		}
		r, err := rewrite(e.R)
		if err != nil {
			return nil, err
		}
		return &sqlparse.BinaryExpr{Op: e.Op, L: l, R: r}, nil
	case *sqlparse.NotExpr:
		x, err := rewrite(e.X)
		if err != nil {
			return nil, err
		}
		return &sqlparse.NotExpr{X: x}, nil
	case *sqlparse.NegExpr:
		x, err := rewrite(e.X)
		if err != nil {
			return nil, err
		}
		return &sqlparse.NegExpr{X: x}, nil
	case *sqlparse.InExpr:
		x, err := rewrite(e.X)
		if err != nil {
			return nil, err
		}
		out := &sqlparse.InExpr{X: x, Not: e.Not, List: make([]sqlparse.Expr, len(e.List))}
		for i, it := range e.List {
			if out.List[i], err = rewrite(it); err != nil {
				return nil, err
			}
		}
		return out, nil
	case *sqlparse.BetweenExpr:
		x, err := rewrite(e.X)
		if err != nil {
			return nil, err
		}
		lo, err := rewrite(e.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := rewrite(e.Hi)
		if err != nil {
			return nil, err
		}
		return &sqlparse.BetweenExpr{X: x, Lo: lo, Hi: hi, Not: e.Not}, nil
	case *sqlparse.LikeExpr:
		x, err := rewrite(e.X)
		if err != nil {
			return nil, err
		}
		return &sqlparse.LikeExpr{X: x, Pattern: e.Pattern, Not: e.Not}, nil
	case *sqlparse.IsNullExpr:
		x, err := rewrite(e.X)
		if err != nil {
			return nil, err
		}
		return &sqlparse.IsNullExpr{X: x, Not: e.Not}, nil
	default:
		// Literals and non-grouped column references pass through; the
		// latter fail later at compile time unless they name a group
		// output.
		return sqlparse.CloneExpr(e), nil
	}
}

// sameArg compares aggregate arguments (nil for COUNT(*)) by sameExpr.
func sameArg(a, b sqlparse.Expr, rs exec.RowSchema) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return sameExpr(a, b, rs)
}

// sameExpr reports whether a and b are the same expression over rows of
// rs: two column references are the same when they resolve to one column
// of rs (t.a and a, say, when only t has an a), two literals when they are
// of one kind and value, and any other two nodes when they are of one kind
// with the same operator, flags and pattern and, pairwise, the same
// operands. A column reference that does not resolve is the same as none:
// compiling it reports why.
func sameExpr(a, b sqlparse.Expr, rs exec.RowSchema) bool {
	switch a := a.(type) {
	case *sqlparse.ColumnRef:
		b, ok := b.(*sqlparse.ColumnRef)
		if !ok {
			return false
		}
		i, err := rs.Resolve(a.Qualifier, a.Name)
		if err != nil {
			return false
		}
		j, err := rs.Resolve(b.Qualifier, b.Name)
		return err == nil && i == j
	case *sqlparse.Literal:
		b, ok := b.(*sqlparse.Literal)
		return ok && a.Val.Kind() == b.Val.Kind() && value.Identical(a.Val, b.Val)
	case *sqlparse.BinaryExpr:
		b, ok := b.(*sqlparse.BinaryExpr)
		return ok && a.Op == b.Op && sameExpr(a.L, b.L, rs) && sameExpr(a.R, b.R, rs)
	case *sqlparse.NotExpr:
		b, ok := b.(*sqlparse.NotExpr)
		return ok && sameExpr(a.X, b.X, rs)
	case *sqlparse.NegExpr:
		b, ok := b.(*sqlparse.NegExpr)
		return ok && sameExpr(a.X, b.X, rs)
	case *sqlparse.FuncCall:
		b, ok := b.(*sqlparse.FuncCall)
		return ok && a.Name == b.Name && a.Star == b.Star && sameExprs(a.Args, b.Args, rs)
	case *sqlparse.InExpr:
		b, ok := b.(*sqlparse.InExpr)
		return ok && a.Not == b.Not && sameExpr(a.X, b.X, rs) && sameExprs(a.List, b.List, rs)
	case *sqlparse.BetweenExpr:
		b, ok := b.(*sqlparse.BetweenExpr)
		return ok && a.Not == b.Not && sameExpr(a.X, b.X, rs) && sameExpr(a.Lo, b.Lo, rs) && sameExpr(a.Hi, b.Hi, rs)
	case *sqlparse.LikeExpr:
		b, ok := b.(*sqlparse.LikeExpr)
		return ok && a.Not == b.Not && a.Pattern == b.Pattern && sameExpr(a.X, b.X, rs)
	case *sqlparse.IsNullExpr:
		b, ok := b.(*sqlparse.IsNullExpr)
		return ok && a.Not == b.Not && sameExpr(a.X, b.X, rs)
	}
	return false
}

// sameExprs is sameExpr over two lists, pairwise.
func sameExprs(a, b []sqlparse.Expr, rs exec.RowSchema) bool {
	return slices.EqualFunc(a, b, func(x, y sqlparse.Expr) bool { return sameExpr(x, y, rs) })
}

// buildSort resolves ORDER BY keys against the output of root, whose
// select list is items over rows of in: a key may name an output column
// (or select alias) directly, or repeat a select item's expression
// (sameExpr over in), which sorts by that item's output position.
// Expressions over non-projected columns are not supported after
// projection, mirroring many real engines. When a positive LIMIT
// accompanies the ORDER BY, it becomes the Sort's Limit — a bounded top-N
// heap (limitFused reports that the caller's Limit is already applied).
func (p *planner) buildSort(root exec.Operator, items []sqlparse.SelectItem, in exec.RowSchema) (op exec.Operator, limitFused bool, err error) {
	if len(p.stmt.OrderBy) == 0 {
		return root, false, nil
	}
	out := root.Schema()
	keys := make([]exec.SortKey, len(p.stmt.OrderBy))
	for i, o := range p.stmt.OrderBy {
		pos := -1
		if cr, ok := o.Expr.(*sqlparse.ColumnRef); ok && cr.Qualifier == "" {
			pos = slices.IndexFunc(out, func(c exec.ColInfo) bool { return strings.EqualFold(c.Name, cr.Name) })
		}
		if pos < 0 {
			pos = slices.IndexFunc(items, func(it sqlparse.SelectItem) bool { return sameExpr(it.Expr, o.Expr, in) })
		}
		if pos >= 0 {
			keys[i] = exec.SortKeyPos(pos, o.Desc)
		} else {
			// Last resort: compile directly against the output schema (for
			// refs that survived projection under their bare name).
			keys[i] = exec.SortKeyExpr(o.Expr, o.Desc)
		}
	}
	srt, err := exec.NewSort(root, keys)
	if err != nil {
		return nil, false, err
	}
	srt.Limit = p.stmt.Limit
	return srt, srt.Limit > 0, nil
}
