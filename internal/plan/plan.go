// Package plan translates parsed SELECT statements into physical operator
// trees: it resolves names against the database, pushes single-table
// predicates below joins, picks a greedy join order over the equi-join
// edges, and assembles projection, aggregation, sorting, DISTINCT and
// LIMIT on top.
package plan

import (
	"fmt"
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

type planner struct {
	db   *storage.DB
	stmt *sqlparse.SelectStmt
}

// tableSource tracks one FROM entry through join planning.
type tableSource struct {
	ref     sqlparse.TableRef
	alias   string // lower-cased ref.Alias
	table   *storage.Table
	filters []sqlparse.Expr // single-table conjuncts
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
	if len(residual) > 0 {
		root, err = exec.NewFilter(root, sqlparse.AndAll(residual))
		if err != nil {
			return nil, err
		}
	}
	root, outNames, err := p.buildOutput(root)
	if err != nil {
		return nil, err
	}
	// Parallelize a splittable pipeline root (scan→filter→project plans;
	// aggregate plans instead parallelize inside HashAggregate) with a
	// Gather exchange below DISTINCT/ORDER BY/LIMIT. It is planned at every
	// worker count: a run on one worker passes straight through it.
	if exec.CanSplit(root) {
		root = exec.NewGather(root)
	}
	if p.stmt.Distinct {
		root = exec.NewDistinct(root)
	}
	root, limitFused, err := p.buildSort(root, outNames)
	if err != nil {
		return nil, err
	}
	if p.stmt.Limit >= 0 && !limitFused {
		root = exec.NewLimit(root, p.stmt.Limit)
	}
	return root, nil
}

func (p *planner) resolveFrom() ([]*tableSource, error) {
	out := make([]*tableSource, 0, len(p.stmt.From))
	for _, ref := range p.stmt.From {
		alias := strings.ToLower(ref.Alias)
		for _, s := range out {
			if s.alias == alias {
				return nil, fmt.Errorf("plan: duplicate table alias %q", alias)
			}
		}
		tb, ok := p.db.Table(ref.Table)
		if !ok {
			return nil, fmt.Errorf("plan: unknown table %q", ref.Table)
		}
		out = append(out, &tableSource{ref: ref, alias: alias, table: tb})
	}
	return out, nil
}

// classifyWhere splits the WHERE conjuncts into per-table filters (attached
// to sources), equi-join edges, and residual predicates evaluated after all
// joins.
func (p *planner) classifyWhere(sources []*tableSource) ([]joinEdge, []sqlparse.Expr, error) {
	var edges []joinEdge
	var residual []sqlparse.Expr
	for _, conj := range sqlparse.Conjuncts(p.stmt.Where) {
		first, n, err := referencedSources(conj, sources)
		if err != nil {
			return nil, nil, err
		}
		switch n {
		case 1:
			sources[first].filters = append(sources[first].filters, conj)
		case 2:
			if e, ok := asEquiJoin(conj, sources); ok {
				edges = append(edges, e)
				continue
			}
			fallthrough
		default:
			// Constant predicates (evaluated once per row after the
			// joins) and multi-table predicates that are no equi-join.
			residual = append(residual, conj)
		}
	}
	return edges, residual, nil
}

// referencedSources counts the distinct FROM entries a conjunct touches
// (exactly up to two; three stands for "more") and returns the first one
// met, resolving unqualified columns to the unique table that has the
// column.
func referencedSources(e sqlparse.Expr, sources []*tableSource) (first, n int, err error) {
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
func resolveColumn(cr *sqlparse.ColumnRef, sources []*tableSource) (src, col int, err error) {
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
func asEquiJoin(e sqlparse.Expr, sources []*tableSource) (joinEdge, bool) {
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
func (p *planner) liveColumns(sources []*tableSource, edges []joinEdge, residual []sqlparse.Expr) liveness {
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
	for _, r := range residual {
		sqlparse.WalkExpr(r, mark)
	}
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
	sc := exec.NewScan(s.table, s.ref.Alias)
	if len(s.filters) == 0 {
		return sc, nil
	}
	f, err := exec.NewFilter(sc, sqlparse.AndAll(s.filters))
	if err != nil {
		return nil, err
	}
	return f, nil
}

// buildJoinTree greedily composes the sources along equi-join edges,
// starting from the source with the most filters (cheapest after
// filtering, as a crude cardinality proxy) and preferring connected joins;
// disconnected components fall back to cross joins. Each join's output is
// narrowed to the columns lv still counts as referenced.
func (p *planner) buildJoinTree(sources []*tableSource, edges []joinEdge, lv *liveness) (exec.Operator, error) {
	// Pick the start: most filters wins; ties go to FROM order.
	start := 0
	for i, s := range sources {
		if len(s.filters) > len(sources[start].filters) {
			start = i
		}
	}
	root, err := p.scan(sources[start])
	if err != nil {
		return nil, err
	}
	joined := make([]bool, len(sources))
	joined[start] = true
	lv.start(start)
	pending := append([]joinEdge(nil), edges...)

	for n := 1; n < len(sources); n++ {
		// Gather every pending edge connecting the joined set to one new
		// table; all its edges become the (multi-key) join condition.
		next := -1
		for _, e := range pending {
			switch {
			case joined[e.left] && !joined[e.right]:
				next = e.right
			case joined[e.right] && !joined[e.left]:
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
			for joined[next] {
				next++
			}
		}

		var outerKeys, innerKeys []sqlparse.Expr
		rest := pending[:0]
		for _, e := range pending {
			switch {
			case joined[e.left] && e.right == next:
				outerKeys = append(outerKeys, e.leftKey)
				innerKeys = append(innerKeys, e.rightKey)
			case joined[e.right] && e.left == next:
				outerKeys = append(outerKeys, e.rightKey)
				innerKeys = append(innerKeys, e.leftKey)
			default:
				rest = append(rest, e)
				continue
			}
			lv.release(e)
		}
		pending = rest

		root, err = p.join(root, sources[next], outerKeys, innerKeys, lv.join(next))
		if err != nil {
			return nil, err
		}
		joined[next] = true
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
	j, err := exec.NewHashJoin(outer, inner, outerKeys, innerKeys)
	if err != nil {
		return nil, err
	}
	if err := j.Narrow(cols); err != nil {
		return nil, err
	}
	return j, nil
}

// buildOutput constructs projection or aggregation over the join result and
// returns the operator plus output column names (for ORDER BY alias
// resolution).
func (p *planner) buildOutput(root exec.Operator) (exec.Operator, []string, error) {
	items, err := p.expandStars(root.Schema())
	if err != nil {
		return nil, nil, err
	}
	hasAgg := false
	for _, it := range items {
		if sqlparse.HasAggregate(it.Expr) {
			hasAgg = true
			break
		}
	}
	if !hasAgg && len(p.stmt.GroupBy) == 0 {
		if p.stmt.Having != nil {
			return nil, nil, fmt.Errorf("plan: HAVING requires GROUP BY")
		}
		cols := make([]exec.ProjectionCol, len(items))
		names := make([]string, len(items))
		for i, it := range items {
			ci := outputCol(it, root.Schema(), i)
			cols[i] = exec.ProjectionCol{Expr: it.Expr, Col: ci}
			names[i] = ci.Name
		}
		proj, err := exec.NewProject(root, cols)
		if err != nil {
			return nil, nil, err
		}
		return proj, names, nil
	}
	return p.buildAggregate(root, items)
}

// expandStars replaces SELECT * with explicit column references.
func (p *planner) expandStars(rs exec.RowSchema) ([]sqlparse.SelectItem, error) {
	var out []sqlparse.SelectItem
	for _, it := range p.stmt.Select {
		if !it.Star {
			out = append(out, it)
			continue
		}
		for _, c := range rs {
			out = append(out, sqlparse.SelectItem{
				Expr: &sqlparse.ColumnRef{Qualifier: c.Qualifier, Name: c.Name},
			})
		}
	}
	return out, nil
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
// either an aggregate call or expression-equal to a GROUP BY key, matching
// standard SQL validation.
func (p *planner) buildAggregate(root exec.Operator, items []sqlparse.SelectItem) (exec.Operator, []string, error) {
	groupTexts := make([]string, len(p.stmt.GroupBy))
	for i, g := range p.stmt.GroupBy {
		groupTexts[i] = g.SQL()
	}
	groupCols := make([]exec.ColInfo, len(p.stmt.GroupBy))
	// Default group output names come from the expressions; select items
	// override them with aliases below.
	for i, g := range p.stmt.GroupBy {
		name := fmt.Sprintf("group%d", i+1)
		if cr, ok := g.(*sqlparse.ColumnRef); ok {
			name = cr.Name
		}
		groupCols[i] = exec.ColInfo{Name: name, Type: inferType(g, root.Schema())}
	}

	type outSource struct {
		groupIdx int // >=0: group key position
		aggIdx   int // >=0: aggregate spec position
	}
	var aggs []exec.AggSpec
	outs := make([]outSource, len(items))
	names := make([]string, len(items))

	for i, it := range items {
		ci := outputCol(it, root.Schema(), i)
		names[i] = ci.Name
		if fc, ok := it.Expr.(*sqlparse.FuncCall); ok && sqlparse.IsAggregateName(fc.Name) {
			f, err := exec.ParseAggFunc(fc.Name)
			if err != nil {
				return nil, nil, err
			}
			spec := exec.AggSpec{Func: f, Col: ci}
			if fc.Star {
				if f != exec.AggCount {
					return nil, nil, fmt.Errorf("plan: %s(*) is not valid", fc.Name)
				}
			} else {
				if len(fc.Args) != 1 {
					return nil, nil, fmt.Errorf("plan: %s expects one argument", fc.Name)
				}
				spec.Arg = fc.Args[0]
			}
			outs[i] = outSource{groupIdx: -1, aggIdx: len(aggs)}
			aggs = append(aggs, spec)
			continue
		}
		if sqlparse.HasAggregate(it.Expr) {
			return nil, nil, fmt.Errorf("plan: aggregates must be top-level select items (got %s)", it.Expr.SQL())
		}
		// Must match a group-by expression.
		txt := it.Expr.SQL()
		gi := -1
		for k, gt := range groupTexts {
			if gt == txt {
				gi = k
				break
			}
		}
		if gi < 0 {
			return nil, nil, fmt.Errorf("plan: select item %s is neither aggregated nor grouped", txt)
		}
		groupCols[gi] = ci // select alias names the group output
		outs[i] = outSource{groupIdx: gi, aggIdx: -1}
	}

	// HAVING: aggregates referenced only in the predicate become hidden
	// aggregate outputs, stripped again by the final projection.
	selectAggCount := len(aggs)
	var having sqlparse.Expr
	if p.stmt.Having != nil {
		var err error
		having, err = p.rewriteHaving(p.stmt.Having, groupTexts, groupCols, &aggs, root.Schema())
		if err != nil {
			return nil, nil, err
		}
	}

	agg, err := exec.NewHashAggregate(root, p.stmt.GroupBy, groupCols, aggs)
	if err != nil {
		return nil, nil, err
	}

	var filtered exec.Operator = agg
	if having != nil {
		f, err := exec.NewFilter(agg, having)
		if err != nil {
			return nil, nil, err
		}
		filtered = f
	}

	// Reorder aggregate output into select order when needed; hidden
	// HAVING aggregates always force the stripping projection.
	needsReorder := len(aggs) > selectAggCount
	for i, o := range outs {
		want := i
		var got int
		if o.groupIdx >= 0 {
			got = o.groupIdx
		} else {
			got = len(p.stmt.GroupBy) + o.aggIdx
		}
		if got != want {
			needsReorder = true
		}
	}
	if len(items) != len(p.stmt.GroupBy)+len(aggs) {
		needsReorder = true
	}
	if !needsReorder {
		return filtered, names, nil
	}
	cols := make([]exec.ProjectionCol, len(items))
	aggSchema := agg.Schema()
	for i, o := range outs {
		var src int
		if o.groupIdx >= 0 {
			src = o.groupIdx
		} else {
			src = len(p.stmt.GroupBy) + o.aggIdx
		}
		cols[i] = exec.ProjectionCol{
			Expr: &sqlparse.ColumnRef{Name: aggSchema[src].Name},
			Col:  exec.ColInfo{Name: names[i], Type: aggSchema[src].Type},
		}
	}
	proj, err := exec.NewProject(filtered, cols)
	if err != nil {
		return nil, nil, err
	}
	return proj, names, nil
}

// rewriteHaving translates a HAVING predicate into an expression over the
// aggregate's output schema: aggregate calls become references to
// (possibly hidden, freshly appended) aggregate outputs, and expressions
// textually equal to a GROUP BY key become references to that key's
// output column. Anything else is left for compilation against the
// aggregate schema, which rejects references to non-grouped base columns.
func (p *planner) rewriteHaving(e sqlparse.Expr, groupTexts []string, groupCols []exec.ColInfo, aggs *[]exec.AggSpec, base exec.RowSchema) (sqlparse.Expr, error) {
	// Group-key match first: a bare column that is also a group key maps
	// to the group output.
	txt := e.SQL()
	for i, gt := range groupTexts {
		if gt == txt {
			return &sqlparse.ColumnRef{Name: groupCols[i].Name}, nil
		}
	}
	switch e := e.(type) {
	case *sqlparse.FuncCall:
		if !sqlparse.IsAggregateName(e.Name) {
			return nil, fmt.Errorf("plan: unknown function %s in HAVING", e.Name)
		}
		f, err := exec.ParseAggFunc(e.Name)
		if err != nil {
			return nil, err
		}
		spec := exec.AggSpec{Func: f}
		if e.Star {
			if f != exec.AggCount {
				return nil, fmt.Errorf("plan: %s(*) is not valid", e.Name)
			}
		} else {
			if len(e.Args) != 1 {
				return nil, fmt.Errorf("plan: %s expects one argument", e.Name)
			}
			spec.Arg = e.Args[0]
		}
		// Reuse an existing spec computing the same aggregate.
		for _, existing := range *aggs {
			if existing.Func == spec.Func && sameArg(existing.Arg, spec.Arg) {
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
		l, err := p.rewriteHaving(e.L, groupTexts, groupCols, aggs, base)
		if err != nil {
			return nil, err
		}
		r, err := p.rewriteHaving(e.R, groupTexts, groupCols, aggs, base)
		if err != nil {
			return nil, err
		}
		return &sqlparse.BinaryExpr{Op: e.Op, L: l, R: r}, nil
	case *sqlparse.NotExpr:
		x, err := p.rewriteHaving(e.X, groupTexts, groupCols, aggs, base)
		if err != nil {
			return nil, err
		}
		return &sqlparse.NotExpr{X: x}, nil
	case *sqlparse.NegExpr:
		x, err := p.rewriteHaving(e.X, groupTexts, groupCols, aggs, base)
		if err != nil {
			return nil, err
		}
		return &sqlparse.NegExpr{X: x}, nil
	case *sqlparse.InExpr:
		x, err := p.rewriteHaving(e.X, groupTexts, groupCols, aggs, base)
		if err != nil {
			return nil, err
		}
		out := &sqlparse.InExpr{X: x, Not: e.Not}
		for _, it := range e.List {
			r, err := p.rewriteHaving(it, groupTexts, groupCols, aggs, base)
			if err != nil {
				return nil, err
			}
			out.List = append(out.List, r)
		}
		return out, nil
	case *sqlparse.BetweenExpr:
		x, err := p.rewriteHaving(e.X, groupTexts, groupCols, aggs, base)
		if err != nil {
			return nil, err
		}
		lo, err := p.rewriteHaving(e.Lo, groupTexts, groupCols, aggs, base)
		if err != nil {
			return nil, err
		}
		hi, err := p.rewriteHaving(e.Hi, groupTexts, groupCols, aggs, base)
		if err != nil {
			return nil, err
		}
		return &sqlparse.BetweenExpr{X: x, Lo: lo, Hi: hi, Not: e.Not}, nil
	case *sqlparse.LikeExpr:
		x, err := p.rewriteHaving(e.X, groupTexts, groupCols, aggs, base)
		if err != nil {
			return nil, err
		}
		return &sqlparse.LikeExpr{X: x, Pattern: e.Pattern, Not: e.Not}, nil
	case *sqlparse.IsNullExpr:
		x, err := p.rewriteHaving(e.X, groupTexts, groupCols, aggs, base)
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

// sameArg compares aggregate arguments structurally via their SQL text.
func sameArg(a, b sqlparse.Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.SQL() == b.SQL()
}

// buildSort resolves ORDER BY keys against the projected output: a key may
// name an output column (or select alias) directly, or repeat a select
// expression textually. Expressions over non-projected columns are not
// supported after projection, mirroring many real engines. When a
// positive LIMIT accompanies the ORDER BY, it becomes the Sort's Limit —
// a bounded top-N heap (limitFused reports that the caller's Limit is
// already applied).
func (p *planner) buildSort(root exec.Operator, outNames []string) (op exec.Operator, limitFused bool, err error) {
	if len(p.stmt.OrderBy) == 0 {
		return root, false, nil
	}
	selectTexts := make([]string, len(p.stmt.Select))
	for i, it := range p.stmt.Select {
		if it.Expr != nil {
			selectTexts[i] = it.Expr.SQL()
		}
	}
	keys := make([]exec.SortKey, len(p.stmt.OrderBy))
	for i, o := range p.stmt.OrderBy {
		pos := -1
		if cr, ok := o.Expr.(*sqlparse.ColumnRef); ok && cr.Qualifier == "" {
			name := strings.ToLower(cr.Name)
			for k, n := range outNames {
				if n == name {
					pos = k
					break
				}
			}
		}
		if pos < 0 {
			txt := o.Expr.SQL()
			for k, st := range selectTexts {
				if st == txt && k < len(outNames) {
					pos = k
					break
				}
			}
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
