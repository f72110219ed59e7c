// Determinism suite for the morsel-driven parallel execution layer: every
// evaluation query — original and rewritten — must return the same rows
// in the same order at every worker count, with probabilities within the
// canonical epsilon (a parallel aggregate folds a group's float sums in
// morsel order, which can differ in the last bits from the serial pass's
// fold; everything else is exact).
package conquer

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"conquer/internal/bench"
	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/qerr"
	"conquer/internal/sqlparse"
	"conquer/internal/value"
)

func determinismWorkload(t *testing.T) *dirty.DB {
	t.Helper()
	d, err := bench.GenerateWorkload(1, 3, benchScale, benchSeed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sameResult compares two results: identical shape and row order, exact
// values everywhere except floats, which get ProbEpsilon.
func sameResult(t *testing.T, label string, want, got *engine.Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			t.Fatalf("%s: row %d has %d columns, want %d", label, i, len(got.Rows[i]), len(want.Rows[i]))
		}
		for c := range want.Rows[i] {
			w, g := want.Rows[i][c], got.Rows[i][c]
			if w.Kind() == value.KindFloat || g.Kind() == value.KindFloat {
				if !value.FloatEq(w.AsFloat(), g.AsFloat(), value.ProbEpsilon) {
					t.Fatalf("%s: row %d col %d: %v vs serial %v", label, i, c, g, w)
				}
				continue
			}
			if !value.Identical(w, g) {
				t.Fatalf("%s: row %d col %d: %v vs serial %v", label, i, c, g, w)
			}
		}
	}
}

// TestParallelExecutionDeterministic runs all thirteen evaluation query
// pairs serially and at parallelism 1, 2, 4 and 8 on fresh engines, with
// recycled rows poisoned, requiring every result to match the serial
// baseline row for row — byte-identical except floats within
// ProbEpsilon.
func TestParallelExecutionDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	poisonRecycledRows(t)
	d := determinismWorkload(t)
	pairs, err := bench.PreparePairs()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 13 {
		t.Fatalf("PreparePairs returned %d pairs, want 13", len(pairs))
	}
	want := serialBaselines(t, d, pairs)
	for _, n := range []int{1, 2, 4, 8} {
		eng := engine.NewWithOptions(d.Store, engine.Options{Parallelism: n})
		matchBaselines(t, eng, pairs, want, fmt.Sprintf("n=%d", n))
	}
}

// TestShardedExecutionDeterministic holds engine.Options.Shards to being
// inert (DESIGN.md §14): the benchmark module still sets it, so all
// thirteen evaluation query pairs on an engine at shards 4 and
// parallelism 2, with recycled rows poisoned, must match the serial
// baseline row for row — byte-identical except floats within
// ProbEpsilon. One setting is enough: nothing reads the field, and
// TestEnginesDifferingInShardsShareOneEntry (internal/engine) holds it
// out of the cache key.
func TestShardedExecutionDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	poisonRecycledRows(t)
	d := determinismWorkload(t)
	pairs, err := bench.PreparePairs()
	if err != nil {
		t.Fatal(err)
	}
	want := serialBaselines(t, d, pairs)
	eng := engine.NewWithOptions(d.Store, engine.Options{Parallelism: 2, Shards: 4})
	matchBaselines(t, eng, pairs, want, "shards=4 n=2")
}

// pairBaseline is one evaluation pair's serial answers.
type pairBaseline struct{ orig, rew *engine.Result }

// serialBaselines runs both forms of every pair on a serial engine.
func serialBaselines(t *testing.T, d *dirty.DB, pairs []bench.QueryPair) map[int]pairBaseline {
	t.Helper()
	serial := engine.NewWithOptions(d.Store, engine.Options{Parallelism: 1})
	want := map[int]pairBaseline{}
	for _, p := range pairs {
		orig, err := serial.QueryStmt(p.Original)
		if err != nil {
			t.Fatalf("Q%d original serial: %v", p.Number, err)
		}
		rew, err := serial.QueryStmt(p.Rewritten)
		if err != nil {
			t.Fatalf("Q%d rewritten serial: %v", p.Number, err)
		}
		want[p.Number] = pairBaseline{orig: orig, rew: rew}
	}
	return want
}

// matchBaselines runs both forms of every pair on eng and requires each
// answer to match its serial baseline; setting labels the failures.
func matchBaselines(t *testing.T, eng *engine.Engine, pairs []bench.QueryPair, want map[int]pairBaseline, setting string) {
	t.Helper()
	for _, p := range pairs {
		got, err := eng.QueryStmt(p.Original)
		if err != nil {
			t.Fatalf("Q%d original %s: %v", p.Number, setting, err)
		}
		sameResult(t, fmt.Sprintf("Q%d original %s", p.Number, setting), want[p.Number].orig, got)

		got, err = eng.QueryStmt(p.Rewritten)
		if err != nil {
			t.Fatalf("Q%d rewritten %s: %v", p.Number, setting, err)
		}
		sameResult(t, fmt.Sprintf("Q%d rewritten %s", p.Number, setting), want[p.Number].rew, got)
	}
}

// TestExecutionMatchesRowPathGolden holds the executor to the frozen
// answers of the row-at-a-time path it replaced (golden_test.go): all
// thirteen evaluation query pairs at parallelism 1, 2, 4 and 8 must
// reproduce the golden digests — row count,
// order and every non-float cell exactly, float columns within
// ProbEpsilon per row. The batch-size half of the proof, serial runs at 1
// and 7 rows per batch against the default, is internal/exec's
// TestSmallBatchesMatchTheDefault (DESIGN.md §15).
func TestExecutionMatchesRowPathGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	poisonRecycledRows(t)
	d := determinismWorkload(t)
	pairs, err := bench.PreparePairs()
	if err != nil {
		t.Fatal(err)
	}
	golden := loadGolden(t)
	if len(golden.Statements) != 2*len(pairs) {
		t.Fatalf("golden has %d statements, want %d", len(golden.Statements), 2*len(pairs))
	}
	type form struct {
		name string
		stmt *sqlparse.SelectStmt
	}
	forms := func(p bench.QueryPair) []form {
		return []form{{"original", p.Original}, {"rewritten", p.Rewritten}}
	}
	for _, n := range []int{1, 2, 4, 8} {
		eng := engine.NewWithOptions(d.Store, engine.Options{Parallelism: n})
		for _, p := range pairs {
			for _, f := range forms(p) {
				label := fmt.Sprintf("Q%d %s n=%d", p.Number, f.name, n)
				got, err := eng.QueryStmt(f.stmt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkGolden(t, golden, stmtKey(p.Number, f.name), label, got)
			}
		}
	}
}

// TestParallelQueryCancellation proves a mid-query cancellation under a
// parallel plan surfaces as qerr.ErrCanceled and leaks no workers — the
// engine-level counterpart of the exec-layer Gather cancellation test.
func TestParallelQueryCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	d := determinismWorkload(t)
	checkCancellation(t, engine.NewWithOptions(d.Store, engine.Options{Parallelism: 8}))
}

// TestShardedQueryCancellation cancels the same query on an engine that
// sets the inert engine.Options.Shards, as the benchmark module does: the
// plan must be the unsharded parallel one, the error must surface as
// qerr.ErrCanceled, and every worker must exit.
func TestShardedQueryCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	d := determinismWorkload(t)
	checkCancellation(t, engine.NewWithOptions(d.Store, engine.Options{Parallelism: 8, Shards: 4}))
}

// checkCancellation runs a lineitem scan on eng, whose plan must be an
// 8-way Gather with no shard text, under an already-cancelled context: it
// must fail with qerr.ErrCanceled and leave no goroutine behind.
func checkCancellation(t *testing.T, eng *engine.Engine) {
	t.Helper()
	q := "select l.l_orderkey, l.l_extendedprice from lineitem l where l.l_quantity > 0"
	if plan, err := eng.Explain(q); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(plan, "Gather[n=8]") || strings.Contains(plan, "shards") {
		t.Fatalf("plan should be parallel and unsharded:\n%s", plan)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.QueryCtx(ctx, q); !errors.Is(err, qerr.ErrCanceled) {
		t.Fatalf("want qerr.ErrCanceled, got %v", err)
	}
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before {
			break
		}
		if i >= 100 {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
