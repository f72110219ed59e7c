package plan_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"conquer/internal/bench"
	"conquer/internal/dirty"
	"conquer/internal/exec"
	"conquer/internal/plan"
	"conquer/internal/sqlparse"
	"conquer/internal/value"
)

func tpchWorkload(t *testing.T) (*dirty.DB, []bench.QueryPair) {
	t.Helper()
	d, err := bench.GenerateWorkload(1, 3, bench.DefaultScale, 20060403)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := bench.PreparePairs()
	if err != nil {
		t.Fatal(err)
	}
	return d, pairs
}

// colRefs collects the column references of the expressions.
func colRefs(into []*sqlparse.ColumnRef, es ...sqlparse.Expr) []*sqlparse.ColumnRef {
	for _, e := range es {
		sqlparse.WalkExpr(e, func(x sqlparse.Expr) bool {
			if cr, ok := x.(*sqlparse.ColumnRef); ok {
				into = append(into, cr)
			}
			return true
		})
	}
	return into
}

func reads(refs []*sqlparse.ColumnRef, c exec.ColInfo) bool {
	for _, r := range refs {
		if strings.ToLower(r.Name) == c.Name && (r.Qualifier == "" || strings.ToLower(r.Qualifier) == c.Qualifier) {
			return true
		}
	}
	return false
}

// joinsTopDown walks the planned tree from the root down the probe side
// and returns its joins, top first. At every join it checks that each
// output column is read by something above it: the statement's select
// list, GROUP BY and HAVING, a filter above the join, or the keys of a
// join higher up. The check reads the tree only, not the planner's
// liveness bookkeeping.
func joinsTopDown(t *testing.T, label string, stmt *sqlparse.SelectStmt, op exec.Operator) []exec.Operator {
	t.Helper()
	var above []*sqlparse.ColumnRef
	for _, it := range stmt.Select {
		above = colRefs(above, it.Expr)
	}
	above = colRefs(above, stmt.GroupBy...)
	above = colRefs(above, stmt.Having)
	var joins []exec.Operator
	check := func(j exec.Operator) {
		joins = append(joins, j)
		for _, c := range j.Schema() {
			if !reads(above, c) {
				t.Errorf("%s: %s carries %s.%s, which nothing above it reads\n%s",
					label, j.Describe(), c.Qualifier, c.Name, exec.Explain(op))
			}
		}
	}
	// Pre-order visits the probe-side spine — everything above the tree,
	// then the joins top first — before it reaches the first scan.
	for _, cur := range preorder(op, nil) {
		switch o := cur.(type) {
		case *exec.Scan:
			return joins
		case *exec.Filter:
			above = colRefs(above, o.Pred)
		case *exec.HashJoin:
			check(o)
			above = colRefs(above, o.LeftKeys...)
			above = colRefs(above, o.RightKeys...)
		}
	}
	return joins
}

func widths(joins []exec.Operator) []int {
	out := make([]int, len(joins))
	for i, j := range joins {
		out[i] = len(j.Schema())
	}
	return out
}

// On all thirteen TPC-H pairs, original and rewritten, every join's
// schema holds only columns something above it reads, and the plan is one
// tree for every worker count: its EXPLAIN is byte-identical planned with
// Parallelism 1 and 8. Q9's five joins are 7 columns wide in the original
// (of 28, 36, 43, 52 and 57 joined so far) and 9 to 13 in the rewriting,
// which adds one prob factor per table.
func TestTPCHJoinsCarryOnlyLiveColumns(t *testing.T) {
	d, pairs := tpchWorkload(t)
	for _, p := range pairs {
		for _, q := range []struct {
			kind string
			stmt *sqlparse.SelectStmt
		}{{"original", p.Original}, {"rewritten", p.Rewritten}} {
			var serial string
			for _, opts := range []plan.Options{
				{Parallelism: 1},
				{Parallelism: 8},
			} {
				label := fmt.Sprintf("Q%d %s par=%d", p.Number, q.kind, opts.Parallelism)
				op, err := plan.Plan(d.Store, q.stmt, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if out := exec.Explain(op); serial == "" {
					serial = out
				} else if out != serial {
					t.Errorf("%s: EXPLAIN\n%s\ndiffers from the plan at parallelism 1:\n%s", label, out, serial)
				}
				joins := joinsTopDown(t, label, q.stmt, op)
				if len(joins) != len(q.stmt.From)-1 {
					t.Fatalf("%s: walked %d joins for %d tables\n%s", label, len(joins), len(q.stmt.From), exec.Explain(op))
				}
				if p.Number != 9 {
					continue
				}
				want := "[7 7 7 7 7]"
				if q.kind == "rewritten" {
					want = "[13 12 11 10 9]"
				}
				if got := fmt.Sprint(widths(joins)); got != want {
					t.Errorf("%s: join widths top-down %s, want %s\n%s", label, got, want, exec.Explain(op))
				}
			}
		}
	}
}

// preorder lists the tree in the order exec.StatsTree reports it.
func preorder(op exec.Operator, out []exec.Operator) []exec.Operator {
	out = append(out, op)
	switch o := op.(type) {
	case *exec.Limit:
		return preorder(o.Child, out)
	case *exec.Distinct:
		return preorder(o.Child, out)
	case *exec.Sort:
		return preorder(o.Child, out)
	case *exec.Gather:
		return preorder(o.Child, out)
	case *exec.Project:
		return preorder(o.Child, out)
	case *exec.HashAggregate:
		return preorder(o.Child, out)
	case *exec.Filter:
		return preorder(o.Child, out)
	case *exec.HashJoin:
		return preorder(o.Right, preorder(o.Left, out))
	}
	return out
}

// scanWidth is the number of stored columns under op: what a join at op
// copied per row before joins were narrowed.
func scanWidth(op exec.Operator) int {
	n := 0
	for _, o := range preorder(op, nil) {
		if sc, ok := o.(*exec.Scan); ok {
			n += len(sc.Schema())
		}
	}
	return n
}

// Q9 is the statement whose cost is the values its joins copy (DESIGN.md
// §16). This pins that count from the executed plan's own counters — rows
// out of each join × the join's width — against what full-width joins
// would copy, and bounds the bytes one run allocates by it, so that an
// operator that starts carrying wide rows again fails here and not only
// in the benchmark.
func TestQ9JoinedValuesStayNarrow(t *testing.T) {
	d, pairs := tpchWorkload(t)
	for _, p := range pairs {
		if p.Number != 9 {
			continue
		}
		for _, q := range []struct {
			kind     string
			stmt     *sqlparse.SelectStmt
			maxShare float64 // of the full-width count
		}{{"original", p.Original, 0.15}, {"rewritten", p.Rewritten, 0.25}} {
			op, err := plan.Plan(d.Store, q.stmt, plan.Options{})
			if err != nil {
				t.Fatal(err)
			}
			exec.Instrument(op)
			gov := exec.NewGovernor(context.Background(), exec.Limits{})
			exec.Attach(op, gov)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			rows, _, err := exec.CollectBatchesGoverned(op, gov, 0)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			ops, lines := preorder(op, nil), exec.StatsTree(op)
			if len(ops) != len(lines) {
				t.Fatalf("walked %d operators, StatsTree has %d", len(ops), len(lines))
			}
			var narrow, full int64
			for i, o := range ops {
				if lines[i].Op != o.Describe() {
					t.Fatalf("operator %d is %q, StatsTree says %q", i, o.Describe(), lines[i].Op)
				}
				if _, ok := o.(*exec.HashJoin); ok {
					narrow += lines[i].Out * int64(len(o.Schema()))
					full += lines[i].Out * int64(scanWidth(o))
				}
			}
			if len(rows) == 0 || full == 0 {
				t.Fatalf("Q9 %s: %d rows, %d joined values: proves nothing", q.kind, len(rows), full)
			}
			share := float64(narrow) / float64(full)
			t.Logf("Q9 %s: %d rows, joins copy %d values, full-width joins would copy %d (%.1f%%); run allocated %d KB",
				q.kind, len(rows), narrow, full, 100*share, (after.TotalAlloc-before.TotalAlloc)/1024)
			if share > q.maxShare {
				t.Errorf("Q9 %s: joins copy %.1f%% of the full-width value count, want at most %.0f%%",
					q.kind, 100*share, 100*q.maxShare)
			}
			// Everything the run allocates — join slabs, key vectors,
			// probe batches, the result — must fit in half of what the
			// full-width join rows alone would take.
			fullBytes := uint64(full) * uint64(unsafe.Sizeof(value.Value{}))
			if got := after.TotalAlloc - before.TotalAlloc; got > fullBytes/2 {
				t.Errorf("Q9 %s: run allocated %d bytes, more than half the %d bytes of full-width join rows",
					q.kind, got, fullBytes)
			}
		}
	}
}
