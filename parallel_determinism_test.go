// Determinism suite for the morsel-driven parallel execution layer: every
// evaluation query — original and rewritten — must return the same rows
// in the same order at every worker count, with probabilities within the
// canonical epsilon (parallel partial aggregation re-associates float
// sums; everything else is exact).
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
	"conquer/internal/exec"
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
// pairs serially and at parallelism 2 and 8, requiring identical results.
func TestParallelExecutionDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	d := determinismWorkload(t)
	pairs, err := bench.PreparePairs()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 13 {
		t.Fatalf("PreparePairs returned %d pairs, want 13", len(pairs))
	}
	serial := engine.NewWithOptions(d.Store, engine.Options{Parallelism: 1})
	for _, n := range []int{2, 8} {
		par := engine.NewWithOptions(d.Store, engine.Options{Parallelism: n})
		for _, p := range pairs {
			want, err := serial.QueryStmt(p.Original)
			if err != nil {
				t.Fatalf("Q%d original serial: %v", p.Number, err)
			}
			got, err := par.QueryStmt(p.Original)
			if err != nil {
				t.Fatalf("Q%d original n=%d: %v", p.Number, n, err)
			}
			sameResult(t, fmt.Sprintf("Q%d original n=%d", p.Number, n), want, got)

			want, err = serial.QueryStmt(p.Rewritten)
			if err != nil {
				t.Fatalf("Q%d rewritten serial: %v", p.Number, err)
			}
			got, err = par.QueryStmt(p.Rewritten)
			if err != nil {
				t.Fatalf("Q%d rewritten n=%d: %v", p.Number, n, err)
			}
			sameResult(t, fmt.Sprintf("Q%d rewritten n=%d", p.Number, n), want, got)
		}
	}
}

// TestShardedExecutionDeterministic extends the determinism suite along
// the shard axis: all thirteen evaluation query pairs at every point of
// the shards {1,2,4} × parallelism {1,2,8} grid must match the
// serial, unsharded baseline row for row — byte-identical except floats
// within ProbEpsilon. This is the executable form of DESIGN.md §14's
// claim that cluster-hash sharding is a pure scheduling knob.
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
	serial := engine.NewWithOptions(d.Store, engine.Options{Parallelism: 1, Shards: 1})
	type baseline struct{ orig, rew *engine.Result }
	want := map[int]baseline{}
	for _, p := range pairs {
		orig, err := serial.QueryStmt(p.Original)
		if err != nil {
			t.Fatalf("Q%d original serial: %v", p.Number, err)
		}
		rew, err := serial.QueryStmt(p.Rewritten)
		if err != nil {
			t.Fatalf("Q%d rewritten serial: %v", p.Number, err)
		}
		want[p.Number] = baseline{orig: orig, rew: rew}
	}
	for _, sh := range []int{1, 2, 4} {
		for _, n := range []int{1, 2, 8} {
			eng := engine.NewWithOptions(d.Store, engine.Options{Parallelism: n, Shards: sh})
			for _, p := range pairs {
				got, err := eng.QueryStmt(p.Original)
				if err != nil {
					t.Fatalf("Q%d original shards=%d n=%d: %v", p.Number, sh, n, err)
				}
				sameResult(t, fmt.Sprintf("Q%d original shards=%d n=%d", p.Number, sh, n), want[p.Number].orig, got)

				got, err = eng.QueryStmt(p.Rewritten)
				if err != nil {
					t.Fatalf("Q%d rewritten shards=%d n=%d: %v", p.Number, sh, n, err)
				}
				sameResult(t, fmt.Sprintf("Q%d rewritten shards=%d n=%d", p.Number, sh, n), want[p.Number].rew, got)
			}
		}
	}
}

// TestExecutionMatchesRowPathGolden holds the executor to the frozen
// answers of the row-at-a-time path it replaced (golden_test.go): all
// thirteen evaluation query pairs at every point of the shards {1,2,4} ×
// parallelism {1,2,8} grid must reproduce the golden digests — row count,
// order and every non-float cell exactly, float columns within
// ProbEpsilon per row — and serial runs at 1 and 7 rows per batch, sizes
// that put a batch boundary inside every morsel, fan-out and group, must
// match the default size cell for cell (DESIGN.md §15).
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
	serial := engine.NewWithOptions(d.Store, engine.Options{Parallelism: 1, Shards: 1})
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
	for _, sh := range []int{1, 2, 4} {
		for _, n := range []int{1, 2, 8} {
			eng := engine.NewWithOptions(d.Store, engine.Options{Parallelism: n, Shards: sh})
			for _, p := range pairs {
				for _, f := range forms(p) {
					label := fmt.Sprintf("Q%d %s shards=%d n=%d", p.Number, f.name, sh, n)
					got, err := eng.QueryStmt(f.stmt)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if got.Stats.BatchSize != exec.DefaultBatchSize {
						t.Fatalf("%s: batch size %d, want default %d", label, got.Stats.BatchSize, exec.DefaultBatchSize)
					}
					checkGolden(t, golden, stmtKey(p.Number, f.name), label, got)
				}
			}
		}
	}
	for _, bs := range []int{1, 7} {
		small := engine.NewWithOptions(d.Store, engine.Options{Parallelism: 1, Shards: 1, BatchSize: bs})
		for _, p := range pairs {
			for _, f := range forms(p) {
				label := fmt.Sprintf("Q%d %s batch=%d", p.Number, f.name, bs)
				want, err := serial.QueryStmt(f.stmt)
				if err != nil {
					t.Fatalf("%s: default batch: %v", label, err)
				}
				got, err := small.QueryStmt(f.stmt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameResult(t, label, want, got)
				checkGolden(t, golden, stmtKey(p.Number, f.name), label, got)
			}
		}
	}
}

// TestShardedQueryCancellation cancels mid-gather under a sharded plan:
// the error must surface as qerr.ErrCanceled and every shard worker must
// exit — the sharded counterpart of TestParallelQueryCancellation.
func TestShardedQueryCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	d := determinismWorkload(t)
	eng := engine.NewWithOptions(d.Store, engine.Options{Parallelism: 8, Shards: 4})
	q := "select l.l_orderkey, l.l_extendedprice from lineitem l where l.l_quantity > 0"
	if plan, err := eng.Explain(q); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(plan, "shards=4") {
		t.Fatalf("plan should be sharded:\n%s", plan)
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

// TestParallelQueryCancellation proves a mid-query cancellation under a
// parallel plan surfaces as qerr.ErrCanceled and leaks no workers — the
// engine-level counterpart of the exec-layer Gather cancellation test.
func TestParallelQueryCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	d := determinismWorkload(t)
	eng := engine.NewWithOptions(d.Store, engine.Options{Parallelism: 8})
	q := "select l.l_orderkey, l.l_extendedprice from lineitem l where l.l_quantity > 0"
	if plan, err := eng.Explain(q); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(plan, "Gather[n=8]") {
		t.Fatalf("plan should be parallel:\n%s", plan)
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
