// Package bench implements the paper's evaluation harness (§5): runners
// that regenerate every figure and table of the evaluation section on
// UIS-generated dirty TPC-H data, printed by the cmd/experiments binary.
// Every timing is the median of its repetitions with the quartiles
// (Quartiles, the statistic benchmark/ reports too), never the best run.
//
// Absolute times will differ from the paper's 2006 DB2 testbed; each
// runner reports the quantities whose *shape* the paper's figures claim
// (original-vs-rewritten ratios, growth in the inconsistency factor,
// growth in database size).
package bench

import (
	"context"
	"fmt"
	"strings"

	"conquer/internal/core"
	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/exec"
	"conquer/internal/probcalc"
	"conquer/internal/rewrite"
	"conquer/internal/sqlparse"
	"conquer/internal/tpch"
	"conquer/internal/uisgen"
)

// DefaultScale is the entity-count multiplier used by the benchmarks:
// sf=1 at this scale is roughly 17k entities (the paper's sf=1 was 8M
// tuples on a 1GB database).
const DefaultScale = 0.001

// GenerateWorkload builds the standard propagated, uniformly annotated
// dirty TPC-H instance used by the query experiments.
func GenerateWorkload(sf float64, ifv int, scale float64, seed int64) (*dirty.DB, error) {
	return uisgen.Generate(uisgen.Config{
		SF: sf, IF: ifv, Scale: scale, Seed: seed,
		Propagated: true, UniformProbs: true,
	})
}

// QueryPair holds a query as written and, pre-parsed, the query and its
// RewriteClean rewriting.
type QueryPair struct {
	Number    int
	SQL       string
	Original  *sqlparse.SelectStmt
	Rewritten *sqlparse.SelectStmt
}

// PreparePairs parses and rewrites the thirteen evaluation queries.
func PreparePairs() ([]QueryPair, error) {
	cat := tpch.Catalog()
	var out []QueryPair
	for _, q := range tpch.All() {
		stmt, err := sqlparse.Parse(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("Q%d: %w", q.Number, err)
		}
		rw, err := rewrite.RewriteClean(cat, stmt)
		if err != nil {
			return nil, fmt.Errorf("Q%d: %w", q.Number, err)
		}
		out = append(out, QueryPair{Number: q.Number, SQL: q.SQL, Original: stmt, Rewritten: rw})
	}
	return out, nil
}

// query returns a function for sample that runs stmt on eng and, when it
// succeeds, hands the result to seen (nil: nothing is read off it).
func query(eng *engine.Engine, stmt *sqlparse.SelectStmt, seen func(*engine.Result)) func() error {
	return func() error {
		res, err := eng.QueryStmt(stmt)
		if err == nil && seen != nil {
			seen(res)
		}
		return err
	}
}

// ---------------------------------------------------------------------------
// Figure 7 — offline annotation cost on lineitem vs inconsistency factor
// ---------------------------------------------------------------------------

// Fig7Row is one point of Figure 7: the offline times for the lineitem
// relation at one inconsistency factor.
type Fig7Row struct {
	IF           int
	LineitemRows int
	ScanRows     int    // rows the linear scan read: LineitemRows, or the baseline measured nothing
	Propagation  Spread // identifier propagation of lineitem's FKs
	ProbCalc     Spread // probability computation (§4) on lineitem
	LinearScan   Spread // the executor reading lineitem once, the baseline of the figure
}

// Fig7 regenerates Figure 7: for each inconsistency factor and each
// repetition, generate an unpropagated, unannotated instance (propagation
// rewrites the foreign keys, so it cannot be repeated on one instance)
// and time the offline pipeline on lineitem.
func Fig7(sf, scale float64, ifs []int, seed int64, reps int) ([]Fig7Row, error) {
	var out []Fig7Row
	for _, ifv := range ifs {
		row := Fig7Row{IF: ifv}
		var phases [3][]float64
		for r := 0; r < max(reps, 1); r++ {
			d, err := uisgen.Generate(uisgen.Config{
				SF: sf, IF: ifv, Scale: scale, Seed: seed,
				Propagated: false, UniformProbs: false,
			})
			if err != nil {
				return nil, err
			}
			li, _ := d.Store.Table("lineitem")
			row.LineitemRows = li.Len()
			// One repetition of the sampler runs its functions in the
			// order given, which the pipeline needs.
			once, err := sample(1,
				func() error {
					for _, fk := range li.Schema.ForeignKeys {
						if _, err := d.Propagate("lineitem", fk.Column, fk.RefTable, fk.RefColumn); err != nil {
							return err
						}
					}
					return nil
				},
				func() error {
					return probcalc.AnnotateTableCtx(context.Background(), li, nil, nil, 1)
				},
				func() error {
					scan := exec.NewScan(li, "l")
					gov := exec.NewGovernor(context.Background(), exec.Limits{})
					exec.Attach(scan, gov)
					rows, _, err := exec.CollectBatchesGoverned(scan, gov, 0)
					row.ScanRows = len(rows)
					return err
				})
			if err != nil {
				return nil, err
			}
			for i := range phases {
				phases[i] = append(phases[i], once[i]...)
			}
		}
		row.Propagation, row.ProbCalc, row.LinearScan = spreadOf(phases[0]), spreadOf(phases[1]), spreadOf(phases[2])
		out = append(out, row)
	}
	return out, nil
}

// FormatFig7 renders Figure 7 as an aligned text table.
func FormatFig7(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — offline times for lineitem, ms, median [q1–q3]\n")
	fmt.Fprintf(&b, "%-4s  %8s  %-22s  %-24s  %-20s\n", "if", "rows", "propagation", "prob-calc", "linear-scan")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4d  %8d  %-22s  %-24s  %-20s\n",
			r.IF, r.LineitemRows, r.Propagation, r.ProbCalc, r.LinearScan)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 8 — original vs rewritten time for the thirteen queries
// ---------------------------------------------------------------------------

// Fig8Side is one pair under one definition of "the rewritten query's
// time": both forms in milliseconds and the second over the first, and
// the heap allocations of one run of each form, which repeat where the
// times do not.
type Fig8Side struct {
	Original, Rewritten, Ratio      Spread
	OriginalAllocs, RewrittenAllocs float64
}

// AllocRatio is the rewritten form's allocations over the original's.
func (s Fig8Side) AllocRatio() float64 { return s.RewrittenAllocs / s.OriginalAllocs }

// timePair samples a pair's two forms back to back, alternating which
// goes first, then counts each form's allocations over as many runs
// again, apart from the timed ones.
func timePair(reps int, original, rewritten func() error) (Fig8Side, error) {
	ms, err := sample(reps, original, rewritten)
	if err != nil {
		return Fig8Side{}, err
	}
	side := Fig8Side{Original: spreadOf(ms[0]), Rewritten: spreadOf(ms[1]), Ratio: ratioOf(ms[1], ms[0])}
	if side.OriginalAllocs, err = allocsPerRun(reps, original); err != nil {
		return Fig8Side{}, err
	}
	side.RewrittenAllocs, err = allocsPerRun(reps, rewritten)
	return side, err
}

// Fig8Row is one bar pair of Figure 8, timed under both definitions this
// repository uses. Stmt is what the paper timed on DB2: the engine runs
// the parsed original and the already-built rewriting. Text is what a
// caller pays and what BENCHMARK.json's overhead_ratio times:
// engine.QueryCtx on the SQL text against sqlparse.Parse + Evaluator.Eval
// on the same engine, whose ladder rewrites, plans and packages answers on
// every call. The
// gap between the two ratios is the clean path's cost outside the
// operators.
type Fig8Row struct {
	Query      int
	Stmt, Text Fig8Side
	// Method is the ladder rung Evaluator.Eval answered Text's clean side
	// with; anything but the rewriting means it timed something else.
	Method    core.Method
	OrigRows  int
	CleanRows int
}

// Fig8 regenerates Figure 8 (sf = 1, if = 3 in the paper) on an engine at
// the shipped defaults, which runs the originals and, through an
// evaluator, the clean answers.
func Fig8(d *dirty.DB, reps int) ([]Fig8Row, error) {
	pairs, err := PreparePairs()
	if err != nil {
		return nil, err
	}
	eng := engine.New(d.Store)
	ev := core.Evaluator{DB: d, Engine: eng}
	ctx := context.Background()
	var out []Fig8Row
	for _, p := range pairs {
		row := Fig8Row{Query: p.Number}
		row.Stmt, err = timePair(reps,
			query(eng, p.Original, func(res *engine.Result) { row.OrigRows = len(res.Rows) }),
			query(eng, p.Rewritten, func(res *engine.Result) { row.CleanRows = len(res.Rows) }))
		if err != nil {
			return nil, fmt.Errorf("Q%d: %w", p.Number, err)
		}
		row.Text, err = timePair(reps,
			func() error {
				_, err := eng.QueryCtx(ctx, p.SQL)
				return err
			},
			func() error {
				parsed, err := sqlparse.Parse(p.SQL)
				if err != nil {
					return err
				}
				res, err := ev.Eval(ctx, parsed, core.EvalOptions{})
				if err == nil {
					row.Method = res.Method
				}
				return err
			})
		if err != nil {
			return nil, fmt.Errorf("Q%d from text: %w", p.Number, err)
		}
		out = append(out, row)
	}
	return out, nil
}

// Fig8Geomean is the geometric mean of one side's per-pair median ratios
// over the twelve short pairs (the benchmark's fig8_short), and Q9's
// median ratio alone (fig8_q9).
func Fig8Geomean(rows []Fig8Row, side func(Fig8Row) Fig8Side) (short, q9 float64) {
	var ratios []float64
	for _, r := range rows {
		if r.Query == 9 {
			q9 = side(r).Ratio.Median
		} else {
			ratios = append(ratios, side(r).Ratio.Median)
		}
	}
	return geomean(ratios), q9
}

// FormatFig8 renders Figure 8: one table per definition of the ratio the
// paper discusses (≤1.5x for all but Q9; ≥8 queries within 1.05x on
// DB2), then the geometric means that line up with the benchmark.
func FormatFig8(rows []Fig8Row) string {
	stmt := func(r Fig8Row) Fig8Side { return r.Stmt }
	text := func(r Fig8Row) Fig8Side { return r.Text }
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 — original vs rewritten query time (sf=1, if=3), ms, median [q1–q3]\n")
	fmt.Fprintf(&b, "\nstatement only: QueryStmt on the parsed original and on its pre-built rewriting (what the paper timed)\n")
	fmt.Fprintf(&b, "%-5s  %-24s  %-24s  %-18s  %-24s  %9s  %10s\n",
		"query", "original", "rewritten", "ratio", "allocs orig / rw (ratio)", "orig-rows", "clean-rows")
	for _, r := range rows {
		fmt.Fprintf(&b, "Q%-4d  %-24s  %-24s  %-18s  %-24s  %9d  %10d\n",
			r.Query, r.Stmt.Original, r.Stmt.Rewritten, r.Stmt.Ratio, allocsCell(r.Stmt), r.OrigRows, r.CleanRows)
	}
	fmt.Fprintf(&b, "\nfrom SQL text: engine.QueryCtx against sqlparse.Parse + Evaluator.Eval (what BENCHMARK.json's overhead_ratio times)\n")
	fmt.Fprintf(&b, "%-5s  %-24s  %-24s  %-18s  %-24s  %s\n", "query", "original", "clean", "ratio", "allocs orig / clean", "rung")
	for _, r := range rows {
		fmt.Fprintf(&b, "Q%-4d  %-24s  %-24s  %-18s  %-24s  %s\n",
			r.Query, r.Text.Original, r.Text.Rewritten, r.Text.Ratio, allocsCell(r.Text), r.Method)
	}
	shortStmt, q9Stmt := Fig8Geomean(rows, stmt)
	shortText, q9Text := Fig8Geomean(rows, text)
	fmt.Fprintf(&b, "\ngeomean of the per-pair median ratios   statement only   from SQL text\n")
	fmt.Fprintf(&b, "%-38s  %14.2f  %14.2f\n", "12 short pairs (fig8_short)", shortStmt, shortText)
	fmt.Fprintf(&b, "%-38s  %14.2f  %14.2f\n", "Q9 (fig8_q9)", q9Stmt, q9Text)
	return b.String()
}

// allocsCell renders a side's allocation counts and their ratio.
func allocsCell(s Fig8Side) string {
	return fmt.Sprintf("%.0f / %.0f (%.2fx)", s.OriginalAllocs, s.RewrittenAllocs, s.AllocRatio())
}

// ---------------------------------------------------------------------------
// Figure 9 — Query 3 vs tuples per cluster, with and without ORDER BY
// ---------------------------------------------------------------------------

// Fig9Row is one x-position of Figure 9. OrigRows is the mechanism the
// paper names for the growth ("a tuple joins with more tuples"): the
// original returns its join's output, and the rewriting, which keeps
// FROM and WHERE, groups those same rows. It repeats exactly from run to
// run, which the timings on a shared host do not.
type Fig9Row struct {
	IF              int
	Original        Spread
	Rewritten       Spread
	OriginalNoSort  Spread
	RewrittenNoSort Spread

	OrigRows  int // result rows of the original form
	CleanRows int // result rows of the rewriting: one per clean answer
}

// Fig9Query is Query 3 with widened date parameters. At the paper's 1GB
// scale, Q3's join output is large enough that the ORDER BY of the
// original and the GROUP BY of the rewriting dominate — which is exactly
// what Figure 9 plots as the inconsistency factor grows. At this
// repository's reduced entity counts the TPC-H validation dates leave the
// output at a few hundred rows, hiding that cost behind the (flat) table
// scans; widening the dates restores the paper's output-to-input ratio
// while keeping the query's structure (three-way identifier join, three
// selections, ORDER BY) intact.
const Fig9Query = `select l.l_id, l.l_orderkey, l.l_extendedprice * (1 - l.l_discount) as revenue, o.o_orderdate, o.o_shippriority
	from customer c, orders o, lineitem l
	where c.c_mktsegment = 'BUILDING'
	  and c.c_custkey = o.o_custkey
	  and l.l_orderkey = o.o_orderkey
	  and o.o_orderdate < '1998-08-01'
	  and l.l_shipdate > '1992-02-01'
	order by revenue desc, o.o_orderdate`

// Fig9 regenerates Figure 9: Query 3 and its rewriting, with and without
// the ORDER BY clause, across inconsistency factors. Within a repetition
// the four series run back to back, rotating which goes first.
func Fig9(sf, scale float64, ifs []int, seed int64, reps int) ([]Fig9Row, error) {
	cat := tpch.Catalog()
	withSort := sqlparse.MustParse(Fig9Query)
	noSort := withSort.Clone()
	noSort.OrderBy = nil
	rwWith, err := rewrite.RewriteClean(cat, withSort)
	if err != nil {
		return nil, err
	}
	rwNo, err := rewrite.RewriteClean(cat, noSort)
	if err != nil {
		return nil, err
	}

	var out []Fig9Row
	for _, ifv := range ifs {
		d, err := GenerateWorkload(sf, ifv, scale, seed)
		if err != nil {
			return nil, err
		}
		eng := engine.New(d.Store)
		row := Fig9Row{IF: ifv}
		series, err := sample(reps,
			query(eng, withSort, func(res *engine.Result) { row.OrigRows = len(res.Rows) }),
			query(eng, rwWith, func(res *engine.Result) { row.CleanRows = len(res.Rows) }),
			query(eng, noSort, nil), query(eng, rwNo, nil))
		if err != nil {
			return nil, err
		}
		row.Original, row.Rewritten = spreadOf(series[0]), spreadOf(series[1])
		row.OriginalNoSort, row.RewrittenNoSort = spreadOf(series[2]), spreadOf(series[3])
		out = append(out, row)
	}
	return out, nil
}

// FormatFig9 renders Figure 9.
func FormatFig9(rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9 — Query 3 time vs tuples per cluster (sf=1), ms, median [q1–q3]\n")
	fmt.Fprintf(&b, "%-4s  %-22s  %-22s  %-22s  %-22s  %9s  %10s\n",
		"if", "original", "rewritten", "orig-no-orderby", "rew-no-orderby", "orig-rows", "clean-rows")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4d  %-22s  %-22s  %-22s  %-22s  %9d  %10d\n",
			r.IF, r.Original, r.Rewritten, r.OriginalNoSort, r.RewrittenNoSort, r.OrigRows, r.CleanRows)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 10 — rewritten-query time vs database size
// ---------------------------------------------------------------------------

// Fig10Queries lists the queries plotted in Figure 10 (the paper omits Q9
// from the figure and shows it separately in the full version).
var Fig10Queries = []int{1, 2, 3, 4, 6, 10, 11, 12, 14, 17, 18, 20}

// Fig10Row is one query's series over database sizes, both aligned with
// the SFs passed to Fig10.
type Fig10Row struct {
	Query        int
	Times        []Spread
	BufferedPeak []int64 // engine.Stats.BufferedPeak: rows held by joins, grouping and sort
}

// Fig10 regenerates Figure 10: rewritten-query times (ORDER BY kept) over
// increasing scaling factors at fixed if = 3.
func Fig10(sfs []float64, scale float64, ifv int, seed int64, reps int) ([]Fig10Row, error) {
	pairs, err := PreparePairs()
	if err != nil {
		return nil, err
	}
	rw := map[int]*sqlparse.SelectStmt{}
	for _, p := range pairs {
		rw[p.Number] = p.Rewritten
	}
	out := make([]Fig10Row, len(Fig10Queries))
	for i, qn := range Fig10Queries {
		out[i].Query = qn
	}
	for _, sf := range sfs {
		d, err := GenerateWorkload(sf, ifv, scale, seed)
		if err != nil {
			return nil, err
		}
		eng := engine.New(d.Store)
		for i, qn := range Fig10Queries {
			var peak int64
			series, err := sample(reps, query(eng, rw[qn], func(res *engine.Result) { peak = res.Stats.BufferedPeak }))
			if err != nil {
				return nil, fmt.Errorf("Q%d at sf=%v: %w", qn, sf, err)
			}
			out[i].Times = append(out[i].Times, spreadOf(series[0]))
			out[i].BufferedPeak = append(out[i].BufferedPeak, peak)
		}
	}
	return out, nil
}

// FormatFig10 renders Figure 10: per size the time and, in parentheses,
// the buffered-row count whose growth with sf the time follows.
func FormatFig10(sfs []float64, rows []Fig10Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10 — rewritten query time vs database size (if=3), ms, median [q1–q3] (rows buffered at peak)\n")
	fmt.Fprintf(&b, "%-5s", "query")
	for _, sf := range sfs {
		fmt.Fprintf(&b, "  %-30s", fmt.Sprintf("sf=%g", sf))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "Q%-4d", r.Query)
		for i, t := range r.Times {
			fmt.Fprintf(&b, "  %-30s", fmt.Sprintf("%s (%d)", t, r.BufferedPeak[i]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
