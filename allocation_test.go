// Allocation bounds on clean answers and rewritten statements, counted
// over the determinism workload.
package conquer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"conquer/internal/bench"
	"conquer/internal/engine"
	"conquer/internal/rewrite"
	"conquer/internal/sqlparse"
	"conquer/internal/tpch"
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
	mallocs, _ := allocsPerRun(t, runs, f)
	return mallocs
}

// allocsPerRun is mallocsPerRun with the bytes those allocations take.
func allocsPerRun(t *testing.T, runs int, f func() error) (mallocs, bytes float64) {
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
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// streamingPairs are the pairs whose rewriting's aggregate streams: it
// groups by the identifier of the relation that drives the join tree, so
// each group is finished where that relation's cluster of rows ends. That
// relation is the root in Q1, Q6, Q12, Q14 and Q18; in Q2 it is part and
// in Q4 orders, whose identifiers the originals select.
var streamingPairs = map[int]bool{1: true, 2: true, 4: true, 6: true, 12: true, 14: true, 18: true}

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
// allocate 44x its original on the benchmark's instance. Where the
// rewriting's aggregate streams, it also takes within 1.5x the original's
// bytes: Q1's rewriting took 3.2x while its aggregate held every group
// until its input ended.
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
	const bound, byteBound = 2.0, 1.5
	// The engine runs two workers, but on one P, as testing.AllocsPerRun
	// measures: at GOMAXPROCS 2 how the morsels fell between the workers
	// moved Q6's original between 78 and 134 KB a run, and its byte ratio
	// past the bound about one run in ten.
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
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
		orig, origBytes := allocsPerRun(t, 3, run(p.Original))
		rw, rwBytes := allocsPerRun(t, 3, run(p.Rewritten))
		t.Logf("Q%d: %.0f allocs for the rewriting, %.0f for the original (%.2fx); %.0f bytes, %.0f (%.2fx)",
			p.Number, rw, orig, rw/orig, rwBytes, origBytes, rwBytes/origBytes)
		if rw > bound*orig {
			t.Errorf("Q%d: the rewriting allocates %.0f, more than %.0fx the original's %.0f", p.Number, rw, bound, orig)
		}
		if streamingPairs[p.Number] && rwBytes > byteBound*origBytes {
			t.Errorf("Q%d: the rewriting allocates %.0f bytes, more than %.1fx the original's %.0f", p.Number, rwBytes, byteBound, origBytes)
		}
	}
}

// TestPlanningAllocatesPerStatement pins what Engine.Prepare allocates
// for each of the 26 TPC-H statements, the thirteen originals and their
// rewritings: the planner and the operator constructors take each list
// from one block sized before it is filled, columns and literals compile
// to no closure, and the stats block lives in its operator, so a plan
// costs a few allocations per operator, not one per node and list growth.
// The twelve short pairs (the benchmark's fig8_short) summed to 2,417 while
// they did, to 846 while a narrowed join built its concatenated schema
// before the pruned one, and to 806 while each FROM entry's scan and its
// schema were two allocations of their own; the bound on their sum is 1,200. A statement that allocates
// more than its pin fails; one that allocates less asks for a lower pin.
func TestPlanningAllocatesPerStatement(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	if runtime.GOMAXPROCS(0) != 2 {
		prev := runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	// Query number → Prepare's allocations for the original, the rewriting.
	pins := map[int][2]int{
		1: {16, 17}, 2: {38, 43}, 3: {36, 38}, 4: {26, 28}, 6: {22, 23}, 9: {41, 46}, 10: {38, 41},
		11: {29, 31}, 12: {29, 31}, 14: {26, 27}, 17: {26, 28}, 18: {27, 30}, 20: {36, 40},
	}
	const shortBound = 1200
	d := determinismWorkload(t)
	pairs, err := bench.PreparePairs()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(d.Store)
	// Planning allocates the same on every call; rounding down over 20
	// calls forgives the odd allocation of the runtime in between.
	prepare := func(stmt *sqlparse.SelectStmt) int {
		return int(math.Floor(mallocsPerRun(t, 20, func() error {
			_, err := eng.Prepare(stmt)
			return err
		})))
	}
	short, measured := 0, 0
	for _, p := range pairs {
		pin, ok := pins[p.Number]
		if !ok {
			t.Fatalf("Q%d has no pin", p.Number)
		}
		got := [2]int{prepare(p.Original), prepare(p.Rewritten)}
		measured += 2
		t.Logf("Q%d: Prepare allocates %d times for the original, %d for the rewriting", p.Number, got[0], got[1])
		for i, what := range []string{"original", "rewriting"} {
			switch {
			case got[i] > pin[i]:
				t.Errorf("Q%d %s: Prepare allocates %d times, pinned at %d", p.Number, what, got[i], pin[i])
			case got[i] < pin[i]:
				t.Errorf("Q%d %s: Prepare allocates %d times, fewer than its pin %d: lower the pin", p.Number, what, got[i], pin[i])
			}
		}
		if p.Number != 9 {
			short += got[0] + got[1]
		}
	}
	if measured != 26 {
		t.Errorf("measured %d statements, want 26", measured)
	}
	t.Logf("the 24 short statements allocate %d times together (bound %d)", short, shortBound)
	if short > shortBound {
		t.Errorf("the 24 short statements allocate %d times together, above %d", short, shortBound)
	}
}

// TestRewritingAllocatesPerStatement pins what rewrite.RewriteClean
// allocates for each of the 26 TPC-H statements: rewriting each original,
// and refusing each rewriting, which groups and aggregates. The analysis
// resolves FROM positions and contracts the join graph in one block, with
// no map, and the rewriting's GROUP BY shares the cloned select
// expressions. Over the twelve short originals (the benchmark's
// fig8_short) Analyze allocated 218 times and RewriteClean 422 while
// aliases resolved through maps; the bounds on their sums are 100 and
// 260. rewrite.Lineage, which the exact and Monte-Carlo rungs run once
// per SPJ statement, allocates 143 times over the same twelve, its bound:
// 345 while it grew a vector per FROM position, its column references and
// every alias's columns by appending. A refusal records its reasons as
// typed values and spells none out: 12–13 allocations a rewriting while
// each reason was formatted with fmt.Sprintf and SQL(), 8–9 since. A
// statement that allocates more than its pin fails; one that allocates
// less asks for a lower pin.
func TestRewritingAllocatesPerStatement(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	// Query number → RewriteClean's allocations for the original, the
	// rewriting.
	pins := map[int][2]int{
		1: {14, 8}, 2: {18, 9}, 3: {17, 9}, 4: {16, 9}, 6: {15, 8}, 9: {18, 9}, 10: {17, 9},
		11: {17, 9}, 12: {18, 9}, 14: {16, 9}, 17: {16, 9}, 18: {17, 9}, 20: {18, 9},
	}
	const analyzeBound, rewriteBound, lineageBound = 100, 260, 143
	cat := tpch.Catalog()
	pairs, err := bench.PreparePairs()
	if err != nil {
		t.Fatal(err)
	}
	count := func(f func() error) int { return int(math.Floor(mallocsPerRun(t, 20, f))) }
	analyzed, rewritten, lineaged, measured := 0, 0, 0, 0
	for _, p := range pairs {
		pin, ok := pins[p.Number]
		if !ok {
			t.Fatalf("Q%d has no pin", p.Number)
		}
		got := [2]int{
			count(func() error {
				_, err := rewrite.RewriteClean(cat, p.Original)
				return err
			}),
			count(func() error {
				var nre *rewrite.NotRewritableError
				if _, err := rewrite.RewriteClean(cat, p.Rewritten); !errors.As(err, &nre) {
					return fmt.Errorf("Q%d's rewriting is not refused: %v", p.Number, err)
				}
				return nil
			}),
		}
		measured += 2
		t.Logf("Q%d: RewriteClean allocates %d times for the original, %d for the rewriting", p.Number, got[0], got[1])
		for i, what := range []string{"original", "rewriting"} {
			switch {
			case got[i] > pin[i]:
				t.Errorf("Q%d %s: RewriteClean allocates %d times, pinned at %d", p.Number, what, got[i], pin[i])
			case got[i] < pin[i]:
				t.Errorf("Q%d %s: RewriteClean allocates %d times, fewer than its pin %d: lower the pin", p.Number, what, got[i], pin[i])
			}
		}
		if p.Number != 9 {
			rewritten += got[0]
			analyzed += count(func() error {
				_, err := rewrite.Analyze(cat, p.Original)
				return err
			})
			lineaged += count(func() error {
				_, err := rewrite.Lineage(cat, p.Original)
				return err
			})
		}
	}
	if measured != 26 {
		t.Errorf("measured %d statements, want 26", measured)
	}
	t.Logf("the 12 short originals: Analyze allocates %d times (bound %d), RewriteClean %d (bound %d)", analyzed, analyzeBound, rewritten, rewriteBound)
	if analyzed > analyzeBound {
		t.Errorf("Analyze allocates %d times over the 12 short originals, above %d", analyzed, analyzeBound)
	}
	if rewritten > rewriteBound {
		t.Errorf("RewriteClean allocates %d times over the 12 short originals, above %d", rewritten, rewriteBound)
	}
	t.Logf("the 12 short originals: Lineage allocates %d times (bound %d)", lineaged, lineageBound)
	if lineaged > lineageBound {
		t.Errorf("Lineage allocates %d times over the 12 short originals, above %d", lineaged, lineageBound)
	}
}
