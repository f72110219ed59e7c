package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/exec"
	"conquer/internal/qerr"
	"conquer/internal/rewrite"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// Clean answers from lineage (DESIGN.md §17). An SPJ statement's answer is
// in Q(candidate) exactly when some combination of the candidate's tuples
// derives it, so its clean-answer event is a monotone DNF over the
// independent cluster choices (Dfn 3–5): one conjunct per row of the
// lineage query (rewrite.Lineage), one literal per dirty alias of it. One
// query on the dirty database builds every DNF, and a candidate — each one
// for exact, a draw for Monte-Carlo and EstimateAggregate — is then a
// check of each DNF against its cluster choices: the candidate loop's arm
// for SPJ statements (overHeld), which visits the per-world arm's
// candidates in its order and finds each holding the same answers.

// errNoLineage reports that a statement's lineage could not be built; the
// per-world loop computes the same answers instead.
var errNoLineage = errors.New("core: no lineage")

// lineage is an SPJ statement's answers, each with its DNF over the
// cluster choices of a candidate.
type lineage struct {
	cols    []string
	answers [][]value.Value // by id, as an answerTable numbered them
	// width is the number of literals in a conjunct: one per dirty alias.
	width int
	// conj holds the conjuncts, width literal ids each, grouped by answer:
	// answer i's are conjuncts ends[i-1] to ends[i]-1 (ends[-1] = 0).
	conj []int32
	ends []int
	lits []literal
	rows []int // the literals' row sets, back to back
	// rels names the relations the literals choose in; chosen[r] is
	// Candidate.Chosen[rels[r]] of the candidate being checked.
	rels   []string
	chosen [][]int
	truth  []bool // per literal, on the candidate being checked
}

// literal holds when cluster cluster of relation rels[rel] chooses one of
// rows[lo:hi]: the cluster's tuples that agree with one lineage row on
// every column the statement reads from one alias.
type literal struct {
	rel, cluster int32
	lo, hi       int32
}

// at points l at candidate c's choices and evaluates every literal on it.
// It allocates nothing.
func (l *lineage) at(c *dirty.Candidate) {
	for r, rel := range l.rels {
		l.chosen[r] = c.Chosen[rel]
	}
	for i, lit := range l.lits {
		l.truth[i] = slices.Contains(l.rows[lit.lo:lit.hi], l.chosen[lit.rel][lit.cluster])
	}
}

// holds reports whether answer i's DNF holds on the candidate at last
// pointed l at.
func (l *lineage) holds(i int) bool {
	from := 0
	if i > 0 {
		from = l.ends[i-1]
	}
	for c := from; c < l.ends[i]; c++ {
		if l.conjunctHolds(l.conj[c*l.width : (c+1)*l.width]) {
			return true
		}
	}
	return false
}

func (l *lineage) conjunctHolds(lits []int32) bool {
	for _, lit := range lits {
		if !l.truth[lit] {
			return false
		}
	}
	return true
}

// buildLineage runs stmt's lineage query on the dirty database and groups
// its rows into one DNF per answer over cs's clusters. It fails with
// errNoLineage, and the per-world loop computes the same answers instead,
// for a statement outside SPJ and for a lineage query that
//   - runs out of budget: the engine's, or worlds worlds' rows;
//   - fails evaluating an expression on a combination of tuples no
//     candidate holds (two tuples of one cluster, a probability-0 tuple);
//   - derives one answer with values that differ bit for bit (0.0 and
//     -0.0): which of them a sampled world prints depends on the world.
//
// Any other failure, of storage or of ctx, is the evaluation's. stats
// counts the lineage query whether it failed or not.
func (ev Evaluator) buildLineage(ctx context.Context, stmt *sqlparse.SelectStmt, cs dirty.Candidates, worlds int64) (*lineage, EvalStats, error) {
	var stats EvalStats
	lq, err := rewrite.Lineage(ev.DB.Store.Catalog, stmt)
	if err != nil {
		return nil, stats, errNoLineage
	}
	opts := ev.rungs()
	if budget := worlds * max(worldRows(ev.DB, stmt, cs), 1); opts.Limits.MaxOutputRows <= 0 || budget < opts.Limits.MaxOutputRows {
		opts.Limits.MaxOutputRows = budget
	}
	prep, err := engine.NewWithOptions(ev.DB.Store, opts).Prepare(lq.Stmt)
	if err != nil {
		return nil, stats, errNoLineage
	}
	start := time.Now()
	res, err := prep.Run(ctx)
	stats.Queries, stats.BufferedPeak = prep.Report(ctx, err, time.Since(start))
	if err != nil {
		var expr *exec.EvalError
		if errors.As(err, &expr) || qerr.IsResource(err) {
			return nil, stats, errNoLineage
		}
		return nil, stats, err
	}

	// Per dirty alias: its relation's index in rels, table and clusters,
	// the first of its lineage columns and the table columns they hold.
	type aliasCols struct {
		rel       int
		tb        *storage.Table
		clusters  []dirty.Cluster
		clusterOf map[value.Key]int32 // a tuple's identifier to its cluster
		off       int
		cols      []int
	}
	l := &lineage{width: len(lq.Aliases)}
	aliases := make([]aliasCols, len(lq.Aliases))
	var clusterOf []map[value.Key]int32 // per relation of rels
	off := len(res.Columns)
	for i := len(lq.Aliases) - 1; i >= 0; i-- {
		off -= len(lq.Aliases[i].Columns)
		aliases[i].off = off
	}
	l.cols = res.Columns[:off]
	for i, la := range lq.Aliases {
		al := &aliases[i]
		tb, ok := ev.DB.Store.Table(la.Relation)
		if !ok {
			return nil, stats, fmt.Errorf("core: lineage names unknown relation %q", la.Relation)
		}
		al.tb, al.clusters = tb, cs.Clusters(tb.Schema.Name)
		for _, c := range la.Columns {
			al.cols = append(al.cols, tb.Schema.ColumnIndex(c))
		}
		if al.rel = slices.Index(l.rels, tb.Schema.Name); al.rel < 0 {
			al.rel = len(l.rels)
			l.rels = append(l.rels, tb.Schema.Name)
			clusterOf = append(clusterOf, identifiers(tb, al.clusters))
		}
		al.clusterOf = clusterOf[al.rel]
	}
	l.chosen = make([][]int, len(l.rels))

	// One tuple per lineage row: its answer, then its literals, written
	// past the end of tuples and kept unless the row adds nothing.
	stride := 1 + l.width
	tuples := make([]int32, 0, len(res.Rows)*stride)
	litOf := make(map[[2]int32]int32) // (alias, first row of the set) -> literal
	answers := newAnswerTable(len(res.Rows))
rows:
	for _, row := range res.Rows {
		tuple := tuples[len(tuples) : len(tuples)+stride]
		for a := range aliases {
			al := &aliases[a]
			vals := row[al.off : al.off+len(al.cols)]
			c, ok := al.clusterOf[vals[0].Key()]
			if !ok {
				continue rows // a cluster no candidate of cs has
			}
			cl := al.clusters[c].Rows
			first := 0
			for first < len(cl) && !agrees(al.tb.Row(cl[first]), al.cols, vals) {
				first++
			}
			if first == len(cl) {
				continue rows // a tuple no candidate of cs holds
			}
			key := [2]int32{int32(a), int32(cl[first])}
			id, ok := litOf[key]
			if !ok {
				id = int32(len(l.lits))
				litOf[key] = id
				lo := len(l.rows)
				for _, ri := range cl[first:] {
					if agrees(al.tb.Row(ri), al.cols, vals) {
						l.rows = append(l.rows, ri)
					}
				}
				l.lits = append(l.lits, literal{rel: int32(al.rel), cluster: c, lo: int32(lo), hi: int32(len(l.rows))})
			}
			tuple[1+a] = id
		}
		a, same := answers.id(row[:len(l.cols):len(l.cols)])
		if !same {
			return nil, stats, errNoLineage
		}
		tuple[0] = a
		tuples = tuples[:len(tuples)+stride]
	}
	l.answers, l.truth = answers.answers, make([]bool, len(l.lits))

	// Group the conjuncts by answer, each distinct one once. Every answer
	// has one: a lineage row adds its answer only with its conjunct.
	order := make([]int, len(tuples)/stride)
	for i := range order {
		order[i] = i * stride
	}
	slices.SortFunc(order, func(a, b int) int {
		return slices.Compare(tuples[a:a+stride], tuples[b:b+stride])
	})
	l.ends = make([]int, len(l.answers))
	n := 0
	for i, at := range order {
		t := tuples[at : at+stride]
		if i > 0 && slices.Equal(t, tuples[order[i-1]:order[i-1]+stride]) {
			continue
		}
		l.conj = append(l.conj, t[1:]...)
		n++
		l.ends[t[0]] = n
	}
	return l, stats, nil
}

// identifiers maps the identifier of every tuple of tb's clusters to its
// cluster, by the value itself: a lineage row carries a tuple's own.
func identifiers(tb *storage.Table, clusters []dirty.Cluster) map[value.Key]int32 {
	idIdx := tb.Schema.IdentifierIndex()
	of := make(map[value.Key]int32)
	for c, cl := range clusters {
		for _, row := range cl.Rows {
			of[tb.Row(row)[idIdx].Key()] = int32(c)
		}
	}
	return of
}

// agrees reports whether row holds vals in columns cols: the same
// values, bit for bit, so that the statement cannot tell them apart.
func agrees(row []value.Value, cols []int, vals []value.Value) bool {
	for k, col := range cols {
		if !value.Same(row[col], vals[k]) {
			return false
		}
	}
	return true
}

// lineageWorlds caps a lineage at the rows of that many worlds (exact's at
// fewer when it has fewer candidates, Evaluator.exact). A sample checks
// every conjunct of the lineage, so past about this multiple of a world
// the check costs more than running the plan on one (DESIGN.md §17); the
// cap also bounds the memory the lineage holds to that multiple of one
// world's.
const lineageWorlds = 32

// worldRows is how many rows one run of stmt's plan on a candidate scans:
// a row per cluster of each dirty relation it names, every row of each
// clean one, once per alias.
func worldRows(d *dirty.DB, stmt *sqlparse.SelectStmt, cs dirty.Candidates) int64 {
	var rows int64
	for _, name := range stmt.Tables() {
		tb, ok := d.Store.Table(name)
		switch {
		case !ok:
		case tb.Schema.IsDirty():
			rows += int64(len(cs.Clusters(tb.Schema.Name)))
		default:
			rows += int64(tb.Len())
		}
	}
	return rows
}
