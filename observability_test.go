// Observability extension of the determinism suite: the per-operator
// counters EXPLAIN ANALYZE reports must themselves be deterministic —
// rows-in/rows-out identical at every worker count on all thirteen
// evaluation query pairs, with the conservation invariant (a parent's
// rows-in equals its children's rows-out) holding on every tree — and
// keeping the counters on costs no allocation and a fixed number of clock
// reads a run.
package conquer

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	_ "unsafe" // go:linkname

	"conquer/internal/bench"
	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/exec"
	"conquer/internal/plan"
	"conquer/internal/sqlparse"
)

// raceEnabled is overridden to true by observability_race_test.go under
// -race, where allocation counts and wall-clock comparisons are
// meaningless.
var raceEnabled = false

// runStats executes stmt instrumented at the given parallelism, checks
// counter conservation, and returns the per-operator stat lines.
func runStats(t *testing.T, d *dirty.DB, label string, stmt *sqlparse.SelectStmt, par int) []exec.StatLine {
	t.Helper()
	op, err := plan.Plan(d.Store, stmt, plan.Options{})
	if err != nil {
		t.Fatalf("%s: plan: %v", label, err)
	}
	exec.Instrument(op)
	gov := exec.NewGovernor(context.Background(), exec.Limits{})
	gov.SetWorkers(par)
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
// (operator, rows-in, rows-out) sequence: Gather lines, which name the
// worker count, are dropped, and " [parallel n=…]" decorations are
// stripped. Batch and buffered counts legitimately differ
// across worker counts (per-worker group state, morsel claims) and are
// excluded.
func normalizeStatOps(lines []exec.StatLine) []string {
	var out []string
	for _, l := range lines {
		if strings.HasPrefix(l.Op, "Gather[") {
			continue
		}
		op := scanRowCount.ReplaceAllString(l.Op, ")")
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

// engineTimes matches the wall-clock window EXPLAIN ANALYZE prints, the
// one thing that differs between two runs of a tree.
var engineTimes = regexp.MustCompile(` time=[^)]*\)`)

// A tree runs one way: Attach alone — no Instrument — governs and counts
// it. Every TPC-H pair planned with plan.Plan and run through NewGovernor,
// Attach and CollectBatchesGoverned satisfies conservation, reports the
// StatsTree of the timed run the engine makes of the same plan, and renders
// the engine's own EXPLAIN ANALYZE of the statement but for the times. At
// parallelism 2 the split clones count onto the blocks Attach installed.
func TestAttachAloneCountsLikeAnEngineRun(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	d := determinismWorkload(t)
	pairs, err := bench.PreparePairs()
	if err != nil {
		t.Fatal(err)
	}
	bare := func(stmt *sqlparse.SelectStmt, par int) exec.Operator {
		op, err := plan.Plan(d.Store, stmt, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		gov := exec.NewGovernor(context.Background(), exec.Limits{})
		gov.SetWorkers(par)
		exec.Attach(op, gov)
		if _, _, err := exec.CollectBatchesGoverned(op, gov, 0); err != nil {
			t.Fatal(err)
		}
		return op
	}
	serial := engine.NewWithOptions(d.Store, engine.Options{Parallelism: 1})
	for _, p := range pairs {
		for _, q := range []struct {
			kind string
			stmt *sqlparse.SelectStmt
		}{{"original", p.Original}, {"rewritten", p.Rewritten}} {
			label := fmt.Sprintf("Q%d %s", p.Number, q.kind)
			op := bare(q.stmt, 1)
			if err := exec.CheckConservation(op); err != nil {
				t.Errorf("%s: %v", label, err)
			}
			got, want := exec.StatsTree(op), runStats(t, d, label, q.stmt, 1)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: an attached run counts\n%+v\nthe engine's path\n%+v", label, got, want)
			}
			out, err := serial.ExplainAnalyzeCtx(context.Background(), q.stmt.SQL())
			if err != nil {
				t.Fatal(err)
			}
			out = out[:strings.LastIndex(strings.TrimSuffix(out, "\n"), "\n")+1] // drop the summary line
			if g, w := engineTimes.ReplaceAllString(exec.ExplainAnalyze(op), ""), engineTimes.ReplaceAllString(out, ""); g != w {
				t.Errorf("%s: an attached run renders\n%s\nthe engine's EXPLAIN ANALYZE\n%s", label, g, w)
			}

			par := bare(q.stmt, 2)
			if err := exec.CheckConservation(par); err != nil {
				t.Errorf("%s at parallelism 2: %v", label, err)
			}
			if g, w := normalizeStatOps(exec.StatsTree(par)), normalizeStatOps(want); !reflect.DeepEqual(g, w) {
				t.Errorf("%s at parallelism 2: rows in and out\n%v\nserially\n%v", label, g, w)
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
	op, err := plan.Plan(d.Store, stmt, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exec.Instrument(op)
	gov := exec.NewGovernor(context.Background(), exec.Limits{})
	gov.SetWorkers(4)
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

// execNow is internal/exec's clock, the one the per-operator wall-clock
// window reads (see recycle_poison_test.go for why a test reaches it by
// name).
//
//go:linkname execNow conquer/internal/exec.now
var execNow func() time.Time

// TestInstrumentationOverheadBudget bounds the cost of the always-on
// counters on counts, not on a noisy wall clock: on Figure 8's Q9
// rewritten query (the heaviest of the suite) an instrumented run
// allocates what a bare one does, a bare run reads no clock, and an
// instrumented one reads it a fixed number of times — as often on twice the
// input rows. What is left is a nil test per call and an atomic add per
// batch. The wall-clock ratio, which a shared host makes swing by ±20 %, is
// logged only.
func TestInstrumentationOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("generates two TPC-H workloads")
	}
	var q9 *sqlparse.SelectStmt
	pairs, err := bench.PreparePairs()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p.Number == 9 {
			q9 = p.Rewritten
		}
	}
	if q9 == nil {
		t.Fatal("no Q9 in prepared pairs")
	}
	var reads atomic.Int64
	clock := execNow
	execNow = func() time.Time { reads.Add(1); return clock() }
	t.Cleanup(func() { execNow = clock })

	// tree plans Q9 on d serially, instrumented or not, with its governor
	// attached; run executes it once and counts the clock reads.
	tree := func(d *dirty.DB, instrument bool) func() (reads int64, rows int) {
		op, err := plan.Plan(d.Store, q9, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if instrument {
			exec.Instrument(op)
		}
		gov := exec.NewGovernor(context.Background(), exec.Limits{})
		exec.Attach(op, gov)
		return func() (int64, int) {
			before := reads.Load()
			out, _, err := exec.CollectBatchesGoverned(op, gov, 0)
			if err != nil {
				t.Fatal(err)
			}
			return reads.Load() - before, len(out)
		}
	}
	d := determinismWorkload(t)
	d2, err := bench.GenerateWorkload(1, 3, 2*benchScale, benchSeed)
	if err != nil {
		t.Fatal(err)
	}
	bare, instr := tree(d, false), tree(d, true)
	if n, _ := bare(); n != 0 {
		t.Errorf("a bare run reads the clock %d times", n)
	}
	n1, rows1 := instr()
	n2, rows2 := tree(d2, true)()
	t.Logf("an instrumented run reads the clock %d times over %d result rows, %d times over %d", n1, rows1, n2, rows2)
	if n1 == 0 || n2 != n1 {
		t.Errorf("an instrumented run reads the clock %d times, %d times on twice the input: want the same nonzero count", n1, n2)
	}
	if !raceEnabled {
		// A Go map's growth follows its random hash seed, so one plan's runs
		// allocate anywhere in a span of 8 (476 to 483 over thirty runs of
		// each side): the least of five runs a side must fall in one span.
		// One allocation per operator would add about 20, one per batch more.
		a, b := math.Inf(1), math.Inf(1)
		for r := 0; r < 5; r++ {
			a = min(a, testing.AllocsPerRun(1, func() { bare() }))
			b = min(b, testing.AllocsPerRun(1, func() { instr() }))
		}
		t.Logf("a run allocates %v times bare, %v times instrumented", a, b)
		if math.Abs(a-b) > 8 {
			t.Errorf("a run allocates %v times bare, %v times instrumented: want the same, up to the maps' seeded growth", a, b)
		}
		elapsed := func(run func() (int64, int)) time.Duration {
			best := time.Duration(math.MaxInt64)
			for r := 0; r < 3; r++ {
				start := time.Now()
				run()
				best = min(best, time.Since(start))
			}
			return best
		}
		tb, ti := elapsed(bare), elapsed(instr)
		t.Logf("wall clock, best of three: bare %v, instrumented %v (%.3fx)", tb, ti, float64(ti)/float64(tb))
	}
}
