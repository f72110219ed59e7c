// Package bench implements the paper's evaluation harness (§5): runners
// that regenerate every figure and table of the evaluation section on
// UIS-generated dirty TPC-H data, shared by the top-level Go benchmarks
// and the cmd/experiments binary.
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
	"time"

	"conquer/internal/cache"
	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/metrics"
	"conquer/internal/probcalc"
	"conquer/internal/rewrite"
	"conquer/internal/sqlparse"
	"conquer/internal/tpch"
	"conquer/internal/uisgen"
	"conquer/internal/value"
)

// DefaultScale is the entity-count multiplier used by the benchmarks:
// sf=1 at this scale is roughly 17k entities (the paper's sf=1 was 8M
// tuples on a 1GB database).
const DefaultScale = 0.001

// timeBest runs f reps times and returns the fastest wall-clock duration,
// the usual way to suppress scheduler noise in micro-benchmarks.
func timeBest(reps int, f func() error) (time.Duration, error) {
	if reps < 1 {
		reps = 1
	}
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// GenerateWorkload builds the standard propagated, uniformly annotated
// dirty TPC-H instance used by the query experiments.
func GenerateWorkload(sf float64, ifv int, scale float64, seed int64) (*dirty.DB, error) {
	return uisgen.Generate(uisgen.Config{
		SF: sf, IF: ifv, Scale: scale, Seed: seed,
		Propagated: true, UniformProbs: true,
	})
}

// QueryPair holds a query and its RewriteClean rewriting, pre-parsed.
type QueryPair struct {
	Number    int
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
		out = append(out, QueryPair{Number: q.Number, Original: stmt, Rewritten: rw})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 7 — offline annotation cost on lineitem vs inconsistency factor
// ---------------------------------------------------------------------------

// Fig7Row is one point of Figure 7: the offline times for the lineitem
// relation at one inconsistency factor.
type Fig7Row struct {
	IF           int
	LineitemRows int
	Propagation  time.Duration // identifier propagation of lineitem's FKs
	ProbCalc     time.Duration // probability computation (§4) on lineitem
	LinearScan   time.Duration // one full scan, the baseline of the figure
}

// Fig7 regenerates Figure 7: for each inconsistency factor, generate an
// unpropagated, unannotated instance and time the offline pipeline on
// lineitem.
func Fig7(sf, scale float64, ifs []int, seed int64) ([]Fig7Row, error) {
	return Fig7Par(sf, scale, ifs, seed, 1)
}

// Fig7Par is Fig7 with the probability-calculation phase fanned out over
// parallelism workers (one task per cluster); 1 reproduces the serial
// pass exactly.
func Fig7Par(sf, scale float64, ifs []int, seed int64, parallelism int) ([]Fig7Row, error) {
	var out []Fig7Row
	for _, ifv := range ifs {
		d, err := uisgen.Generate(uisgen.Config{
			SF: sf, IF: ifv, Scale: scale, Seed: seed,
			Propagated: false, UniformProbs: false,
		})
		if err != nil {
			return nil, err
		}
		li, _ := d.Store.Table("lineitem")
		row := Fig7Row{IF: ifv, LineitemRows: li.Len()}

		start := time.Now()
		for _, fk := range li.Schema.ForeignKeys {
			if _, err := d.Propagate("lineitem", fk.Column, fk.RefTable, fk.RefColumn); err != nil {
				return nil, err
			}
		}
		row.Propagation = time.Since(start)

		start = time.Now()
		if err := probcalc.AnnotateTableCtx(context.Background(), li, nil, nil, 1, parallelism); err != nil {
			return nil, err
		}
		row.ProbCalc = time.Since(start)

		start = time.Now()
		var touched int
		for _, r := range li.Rows() {
			touched += len(r)
		}
		_ = touched
		row.LinearScan = time.Since(start)

		out = append(out, row)
	}
	return out, nil
}

// FormatFig7 renders Figure 7 as an aligned text table.
func FormatFig7(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — offline times for lineitem (propagation, probability calculation, linear scan)\n")
	fmt.Fprintf(&b, "%-4s  %10s  %14s  %14s  %14s\n", "if", "rows", "propagation", "prob-calc", "linear-scan")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4d  %10d  %14s  %14s  %14s\n",
			r.IF, r.LineitemRows, r.Propagation.Round(time.Microsecond),
			r.ProbCalc.Round(time.Microsecond), r.LinearScan.Round(time.Microsecond))
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 8 — original vs rewritten time for the thirteen queries
// ---------------------------------------------------------------------------

// Fig8Row is one bar pair of Figure 8.
type Fig8Row struct {
	Query     int
	Original  time.Duration
	Rewritten time.Duration
	OrigRows  int
	CleanRows int
}

// Overhead returns rewritten/original.
func (r Fig8Row) Overhead() float64 {
	if r.Original <= 0 {
		return 0
	}
	return float64(r.Rewritten) / float64(r.Original)
}

// Fig8 regenerates Figure 8 (sf = 1, if = 3 in the paper): the execution
// time of each query and of its rewriting on the same instance.
func Fig8(d *dirty.DB, reps int) ([]Fig8Row, error) {
	return Fig8Par(d, reps, 1)
}

// Fig8Par is Fig8 with the engine's morsel-driven parallelism set to the
// given worker count; 1 reproduces the serial engine exactly.
func Fig8Par(d *dirty.DB, reps, parallelism int) ([]Fig8Row, error) {
	return Fig8ParInstr(d, reps, parallelism, true)
}

// Fig8ParInstr is Fig8Par with per-operator instrumentation explicitly
// on or off — the pair the bench-json harness runs to bound the
// observability overhead (instrumentation is on by default everywhere
// else).
func Fig8ParInstr(d *dirty.DB, reps, parallelism int, instrument bool) ([]Fig8Row, error) {
	pairs, err := PreparePairs()
	if err != nil {
		return nil, err
	}
	eng := engine.NewWithOptions(d.Store, engine.Options{Parallelism: parallelism, NoInstrument: !instrument})
	var out []Fig8Row
	for _, p := range pairs {
		row := Fig8Row{Query: p.Number}
		dur, err := timeBest(reps, func() error {
			res, err := eng.QueryStmt(p.Original)
			if err == nil {
				row.OrigRows = len(res.Rows)
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("Q%d original: %w", p.Number, err)
		}
		row.Original = dur
		dur, err = timeBest(reps, func() error {
			res, err := eng.QueryStmt(p.Rewritten)
			if err == nil {
				row.CleanRows = len(res.Rows)
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("Q%d rewritten: %w", p.Number, err)
		}
		row.Rewritten = dur
		out = append(out, row)
	}
	return out, nil
}

// FormatFig8 renders Figure 8 with the per-query overhead ratio the paper
// discusses (≤1.5x for all but Q9; ≥8 queries within 1.05x on DB2).
func FormatFig8(rows []Fig8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 — original vs rewritten query time (sf=1, if=3)\n")
	fmt.Fprintf(&b, "%-5s  %12s  %12s  %8s  %9s  %9s\n",
		"query", "original", "rewritten", "ratio", "orig-rows", "clean-rows")
	for _, r := range rows {
		fmt.Fprintf(&b, "Q%-4d  %12s  %12s  %7.2fx  %9d  %9d\n",
			r.Query, r.Original.Round(time.Microsecond), r.Rewritten.Round(time.Microsecond),
			r.Overhead(), r.OrigRows, r.CleanRows)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Query-cache benchmark — cold vs warm vs invalidated on the Figure 8
// workload
// ---------------------------------------------------------------------------

// CacheRow is one rewritten query's timing through the versioned query
// cache: a cold run (execute and admit), a warm run (served from the
// result tier), and a run right after a table mutation (version-vector
// miss, full re-execution).
type CacheRow struct {
	Query       int
	Cold        time.Duration
	Warm        time.Duration
	Invalidated time.Duration
}

// Speedup returns cold/warm — how much faster a cache hit is than the
// execution it replaces.
func (r CacheRow) Speedup() float64 {
	if r.Warm <= 0 {
		return 0
	}
	return float64(r.Cold) / float64(r.Warm)
}

// FigCache times the thirteen rewritten queries through the query cache.
// Cold runs clear the result tier first; warm runs repeat the query over
// unmutated tables; invalidated runs mutate a referenced table before
// querying, so the version vector forces a re-execution (the mutation is
// re-inserting an existing row, which keeps timings comparable while
// genuinely bumping the table's version).
func FigCache(d *dirty.DB, reps, parallelism int) ([]CacheRow, error) {
	return FigCacheSharded(d, reps, parallelism, 1)
}

// FigCacheSharded is FigCache with the engine's cluster-shard count set
// explicitly; 1 reproduces the unsharded engine exactly. Sharding never
// changes the cached bytes (results are byte-identical at every shard
// count), so the warm rows measure the same hit path — only the cold and
// invalidated executions move.
func FigCacheSharded(d *dirty.DB, reps, parallelism, shards int) ([]CacheRow, error) {
	pairs, err := PreparePairs()
	if err != nil {
		return nil, err
	}
	c := cache.New(cache.Options{MaxBytes: 256 << 20, Registry: metrics.NewRegistry()})
	eng := engine.NewWithOptions(d.Store, engine.Options{Parallelism: parallelism, Shards: shards, Cache: c})
	if reps < 1 {
		reps = 1
	}
	var out []CacheRow
	for _, p := range pairs {
		row := CacheRow{Query: p.Number}

		for r := 0; r < reps; r++ {
			c.Clear()
			start := time.Now()
			if _, err := eng.QueryStmt(p.Rewritten); err != nil {
				return nil, fmt.Errorf("Q%d cold: %w", p.Number, err)
			}
			if dur := time.Since(start); r == 0 || dur < row.Cold {
				row.Cold = dur
			}
		}

		// The last cold run left the result cached; every warm rep hits.
		for r := 0; r < reps; r++ {
			start := time.Now()
			res, err := eng.QueryStmt(p.Rewritten)
			if err != nil {
				return nil, fmt.Errorf("Q%d warm: %w", p.Number, err)
			}
			if !res.Stats.Cached {
				return nil, fmt.Errorf("Q%d warm rep %d was not a cache hit", p.Number, r)
			}
			if dur := time.Since(start); r == 0 || dur < row.Warm {
				row.Warm = dur
			}
		}

		tbName := strings.ToLower(p.Rewritten.From[0].Table)
		tb, ok := d.Store.Table(tbName)
		if !ok {
			return nil, fmt.Errorf("Q%d: no table %q", p.Number, tbName)
		}
		for r := 0; r < reps; r++ {
			dup := make([]value.Value, len(tb.Row(0)))
			copy(dup, tb.Row(0))
			if err := tb.Insert(dup); err != nil {
				return nil, fmt.Errorf("Q%d mutate %s: %w", p.Number, tbName, err)
			}
			start := time.Now()
			res, err := eng.QueryStmt(p.Rewritten)
			if err != nil {
				return nil, fmt.Errorf("Q%d invalidated: %w", p.Number, err)
			}
			if res.Stats.Cached {
				return nil, fmt.Errorf("Q%d rep %d: mutation did not invalidate", p.Number, r)
			}
			if dur := time.Since(start); r == 0 || dur < row.Invalidated {
				row.Invalidated = dur
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatCache renders the cache benchmark as an aligned text table.
func FormatCache(rows []CacheRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Query cache — rewritten queries, cold vs warm vs post-mutation\n")
	fmt.Fprintf(&b, "%-5s  %12s  %12s  %12s  %9s\n", "query", "cold", "warm", "invalidated", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "Q%-4d  %12s  %12s  %12s  %8.0fx\n",
			r.Query, r.Cold.Round(time.Microsecond), r.Warm.Round(time.Microsecond),
			r.Invalidated.Round(time.Microsecond), r.Speedup())
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 9 — Query 3 vs tuples per cluster, with and without ORDER BY
// ---------------------------------------------------------------------------

// Fig9Row is one x-position of Figure 9.
type Fig9Row struct {
	IF              int
	Original        time.Duration
	Rewritten       time.Duration
	OriginalNoSort  time.Duration
	RewrittenNoSort time.Duration
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
// the ORDER BY clause, across inconsistency factors.
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
		for _, step := range []struct {
			stmt *sqlparse.SelectStmt
			dst  *time.Duration
		}{
			{withSort, &row.Original},
			{rwWith, &row.Rewritten},
			{noSort, &row.OriginalNoSort},
			{rwNo, &row.RewrittenNoSort},
		} {
			dur, err := timeBest(reps, func() error {
				_, err := eng.QueryStmt(step.stmt)
				return err
			})
			if err != nil {
				return nil, err
			}
			*step.dst = dur
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatFig9 renders Figure 9.
func FormatFig9(rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9 — Query 3 time vs tuples per cluster (sf=1)\n")
	fmt.Fprintf(&b, "%-4s  %12s  %12s  %16s  %16s\n",
		"if", "original", "rewritten", "orig-no-orderby", "rew-no-orderby")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4d  %12s  %12s  %16s  %16s\n",
			r.IF, r.Original.Round(time.Microsecond), r.Rewritten.Round(time.Microsecond),
			r.OriginalNoSort.Round(time.Microsecond), r.RewrittenNoSort.Round(time.Microsecond))
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 10 — rewritten-query time vs database size
// ---------------------------------------------------------------------------

// Fig10Queries lists the queries plotted in Figure 10 (the paper omits Q9
// from the figure and shows it separately in the full version).
var Fig10Queries = []int{1, 2, 3, 4, 6, 10, 11, 12, 14, 17, 18, 20}

// Fig10Row is one query's series over database sizes.
type Fig10Row struct {
	Query int
	Times []time.Duration // aligned with the SFs passed to Fig10
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
	times := map[int][]time.Duration{}
	for _, sf := range sfs {
		d, err := GenerateWorkload(sf, ifv, scale, seed)
		if err != nil {
			return nil, err
		}
		eng := engine.New(d.Store)
		for _, qn := range Fig10Queries {
			dur, err := timeBest(reps, func() error {
				_, err := eng.QueryStmt(rw[qn])
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("Q%d at sf=%v: %w", qn, sf, err)
			}
			times[qn] = append(times[qn], dur)
		}
	}
	var out []Fig10Row
	for _, qn := range Fig10Queries {
		out = append(out, Fig10Row{Query: qn, Times: times[qn]})
	}
	return out, nil
}

// FormatFig10 renders Figure 10.
func FormatFig10(sfs []float64, rows []Fig10Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10 — rewritten query time vs database size (if=3)\n")
	fmt.Fprintf(&b, "%-5s", "query")
	for _, sf := range sfs {
		fmt.Fprintf(&b, "  %12s", fmt.Sprintf("sf=%g", sf))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "Q%-4d", r.Query)
		for _, t := range r.Times {
			fmt.Fprintf(&b, "  %12s", t.Round(time.Microsecond))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
