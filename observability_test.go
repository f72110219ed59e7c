// Observability extension of the determinism suite: the per-operator
// counters EXPLAIN ANALYZE reports must themselves be deterministic —
// rows-in/rows-out identical at every worker count on all thirteen
// evaluation query pairs, with the conservation invariant (a parent's
// rows-in equals its children's rows-out) holding on every tree — and
// keeping the counters on costs at most a few percent of query time.
package conquer

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"

	"conquer/internal/bench"
	"conquer/internal/dirty"
	"conquer/internal/exec"
	"conquer/internal/plan"
	"conquer/internal/sqlparse"
)

// raceEnabled is overridden to true by observability_race_test.go under
// -race, where wall-clock comparisons are meaningless.
var raceEnabled = false

// runStats executes stmt instrumented at the given parallelism, checks
// counter conservation, and returns the per-operator stat lines.
func runStats(t *testing.T, d *dirty.DB, label string, stmt *sqlparse.SelectStmt, par int) []exec.StatLine {
	t.Helper()
	op, err := plan.Plan(d.Store, stmt, plan.Options{Parallelism: par})
	if err != nil {
		t.Fatalf("%s: plan: %v", label, err)
	}
	exec.Instrument(op)
	gov := exec.NewGovernor(context.Background(), exec.Limits{})
	exec.Attach(op, gov)
	if _, _, err := exec.CollectBatchesGoverned(op, gov, 0); err != nil {
		t.Fatalf("%s: execute: %v", label, err)
	}
	if err := exec.CheckConservation(op); err != nil {
		t.Errorf("%s: conservation violated: %v\n%s", label, err, exec.ExplainAnalyze(op))
	}
	return exec.StatsTree(op)
}

var scanRowCount = regexp.MustCompile(`, \d+ rows\)`)

// normalizeStatOps reduces a stats tree to the parallelism-independent
// (operator, rows-in, rows-out) sequence: Gather lines are dropped (the
// operator does not exist in serial plans), morsel scans are renamed to
// plain scans, and " [parallel n=…]" decorations are stripped. Batch and
// buffered counts legitimately differ across worker counts (per-worker
// group state, morsel claims) and are excluded.
func normalizeStatOps(lines []exec.StatLine) []string {
	var out []string
	for _, l := range lines {
		if strings.HasPrefix(l.Op, "Gather[") {
			continue
		}
		op := strings.Replace(l.Op, "MorselScan(", "Scan(", 1)
		op = scanRowCount.ReplaceAllString(op, ")")
		if i := strings.Index(op, " [parallel"); i >= 0 {
			op = op[:i]
		}
		out = append(out, fmt.Sprintf("%s in=%d out=%d", op, l.In, l.Out))
	}
	return out
}

// TestExplainAnalyzeCountersDeterministic runs all thirteen evaluation
// query pairs at parallelism 1, 2 and 8 and requires (a) the
// conservation invariant on every instrumented tree and (b) identical
// rows-in/rows-out per operator at every worker count.
func TestExplainAnalyzeCountersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	d := determinismWorkload(t)
	pairs, err := bench.PreparePairs()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		for _, q := range []struct {
			kind string
			stmt *sqlparse.SelectStmt
		}{{"original", p.Original}, {"rewritten", p.Rewritten}} {
			serial := normalizeStatOps(runStats(t, d, fmt.Sprintf("Q%d %s n=1", p.Number, q.kind), q.stmt, 1))
			for _, n := range []int{2, 8} {
				label := fmt.Sprintf("Q%d %s n=%d", p.Number, q.kind, n)
				got := normalizeStatOps(runStats(t, d, label, q.stmt, n))
				if len(got) != len(serial) {
					t.Fatalf("%s: %d operators, serial has %d:\n%v\nvs\n%v",
						label, len(got), len(serial), got, serial)
				}
				for i := range serial {
					if got[i] != serial[i] {
						t.Errorf("%s: operator %d counters diverge:\n  %s\nserial:\n  %s",
							label, i, got[i], serial[i])
					}
				}
			}
		}
	}
}

// TestExplainAnalyzeShowsWorkerMorsels renders EXPLAIN ANALYZE for a
// parallel TPC-H scan over the Figure-8 workload and requires the
// per-worker morsel claims on the Gather line alongside the row and
// time counters.
func TestExplainAnalyzeShowsWorkerMorsels(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	d := determinismWorkload(t)
	stmt, err := sqlparse.Parse("select l.l_orderkey, l.l_extendedprice from lineitem l where l.l_quantity > 0")
	if err != nil {
		t.Fatal(err)
	}
	op, err := plan.Plan(d.Store, stmt, plan.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	exec.Instrument(op)
	gov := exec.NewGovernor(context.Background(), exec.Limits{})
	exec.Attach(op, gov)
	if _, _, err := exec.CollectBatchesGoverned(op, gov, 0); err != nil {
		t.Fatal(err)
	}
	out := exec.ExplainAnalyze(op)
	for _, want := range []string{"Gather[n=4]", "morsels=[w0:", "w3:", "in=", "out=", "time="} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}
}

// TestInstrumentationOverheadBudget bounds the cost of the always-on
// counters: Figure 8's Q9 rewritten query (the heaviest of the suite)
// must run within 3% of its uninstrumented time. Timing on shared CI is
// noisy, so each side takes the best of five runs, the sides' runs
// alternating, and any of three attempts passing suffices.
func TestInstrumentationOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-style timing test")
	}
	if raceEnabled {
		t.Skip("wall-clock comparison is meaningless under -race")
	}
	d := determinismWorkload(t)
	pairs, err := bench.PreparePairs()
	if err != nil {
		t.Fatal(err)
	}
	var q9 *sqlparse.SelectStmt
	for _, p := range pairs {
		if p.Number == 9 {
			q9 = p.Rewritten
		}
	}
	if q9 == nil {
		t.Fatal("no Q9 in prepared pairs")
	}
	run := func(par int, instrument bool) time.Duration {
		op, err := plan.Plan(d.Store, q9, plan.Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if instrument {
			exec.Instrument(op)
		}
		gov := exec.NewGovernor(context.Background(), exec.Limits{})
		exec.Attach(op, gov)
		start := time.Now()
		if _, _, err := exec.CollectBatchesGoverned(op, gov, 0); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	const attempts = 3
	var worst float64
	for i := 0; i < attempts; i++ {
		bare, instr := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for r := 0; r < 5; r++ {
			// The two sides alternate, each going first in turn, so that a
			// collection or a host stall hits both.
			if r%2 == 0 {
				bare = min(bare, run(1, false))
			}
			instr = min(instr, run(1, true))
			if r%2 == 1 {
				bare = min(bare, run(1, false))
			}
		}
		ratio := float64(instr) / float64(bare)
		t.Logf("attempt %d: bare %v, instrumented %v (%.4fx)", i, bare, instr, ratio)
		if ratio <= 1.03 {
			return
		}
		if ratio > worst {
			worst = ratio
		}
	}
	t.Errorf("instrumentation overhead %.4fx exceeds 1.03x in all %d attempts", worst, attempts)
}
