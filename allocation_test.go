// Allocation bounds on clean answers and rewritten statements, counted
// over the determinism workload.
package conquer

import (
	"context"
	"runtime"
	"testing"

	"conquer/internal/bench"
	"conquer/internal/engine"
	"conquer/internal/sqlparse"
)

// parallelDefaults makes sure the worker count engine.New resolves to —
// one per CPU — is above one for the test.
func parallelDefaults(t *testing.T) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		prev := runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// pairNumber finds one of the thirteen evaluation pairs.
func pairNumber(t *testing.T, n int) bench.QueryPair {
	t.Helper()
	pairs, err := bench.PreparePairs()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p.Number == n {
			return p
		}
	}
	t.Fatalf("no pair Q%d", n)
	return bench.QueryPair{}
}

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1), under
// which an engine.New runs no operator in parallel at all.
func mallocsPerRun(t *testing.T, runs int, f func() error) float64 {
	t.Helper()
	if err := f(); err != nil { // warm up
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestCleanAnswerAllocatesLikeAKeptEngine bounds what a clean answer
// pays outside the operators: an evaluator's rewriting rung — rewrite, the
// rung's engine, the rewritten statement, the answer set — against the same
// rewritten statement on an engine that is kept. It was 3.9x while each
// fresh engine partitioned every table into shards again.
func TestCleanAnswerAllocatesLikeAKeptEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	parallelDefaults(t)
	d := determinismWorkload(t)
	q3 := pairNumber(t, 3)
	ctx := context.Background()
	kept := engine.New(d.Store)
	statement := mallocsPerRun(t, 5, func() error {
		_, err := kept.QueryStmtCtx(ctx, q3.Rewritten)
		return err
	})
	clean := mallocsPerRun(t, 5, func() error {
		_, err := coreViaRewriting(d, q3.Original)
		return err
	})
	t.Logf("Q3: %.0f allocs per clean answer, %.0f per rewritten statement on a kept engine (%.2fx)",
		clean, statement, clean/statement)
	if clean > 1.5*statement {
		t.Fatalf("a clean answer allocates %.0f, more than 1.5x the rewritten statement's %.0f", clean, statement)
	}
}

// TestRewrittenStatementAllocatesLikeItsOriginal is the paper's Figure 8
// claim as a count: on each of the twelve short pairs the rewritten
// statement allocates within a small multiple of its original. The
// rewriting groups the original's join output by the root identifier, so a
// hash table that allocated per key or per group made Q1's rewriting
// allocate 44x its original on the benchmark's instance.
func TestRewrittenStatementAllocatesLikeItsOriginal(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	// The measured worst on this instance is Q1, 1.34x to 1.57x at
	// GOMAXPROCS 1, 2 and 4, then Q18 at up to 1.36x. Q1's rewriting groups
	// every qualifying row, so its cost is the aggregate's arena: it read
	// 1.86x to 2.03x while each arena block made five slices, where a
	// single aggregate's fields now live in its group's state. Q1 was 46x
	// while the tables allocated per key.
	const bound = 2.0
	d := determinismWorkload(t)
	pairs, err := bench.PreparePairs()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.NewWithOptions(d.Store, engine.Options{Parallelism: 2})
	ctx := context.Background()
	run := func(stmt *sqlparse.SelectStmt) func() error {
		return func() error {
			_, err := eng.QueryStmtCtx(ctx, stmt)
			return err
		}
	}
	for _, p := range pairs {
		if p.Number == 9 {
			continue // fig8_q9, a pair of its own
		}
		orig, rw := mallocsPerRun(t, 3, run(p.Original)), mallocsPerRun(t, 3, run(p.Rewritten))
		t.Logf("Q%d: %.0f allocs for the rewriting, %.0f for the original (%.2fx)", p.Number, rw, orig, rw/orig)
		if rw > bound*orig {
			t.Errorf("Q%d: the rewriting allocates %.0f, more than %.0fx the original's %.0f", p.Number, rw, bound, orig)
		}
	}
}
