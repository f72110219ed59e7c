// The testing.B benchmarks that something names. Paper figures and tables
// are regenerated, with medians and quartiles, by cmd/experiments
// (internal/bench) and gated by benchmark/ (BENCHMARK.json); a benchmark
// stays here only because a recipe, a CI step or a design decision needs
// `go test -bench` on exactly it:
//
//   - Fig8Original / Fig8Rewritten / LadderPass / OfflinePass: the profile
//     recipes of docs/profiles/ and EXPERIMENTS.md (-cpuprofile /
//     -memprofile on one pair, or on one pass of the benchmark's
//     ladder_nonrewritable or offline_prep).
//   - BatchSize: the sweep that pins exec.DefaultBatchSize.
//   - Fig8Parallelism / Fig8Sharding / Fig7ProbCalcParallelism: CI's
//     "Bench smoke" runs one iteration of each, so a parallel or sharded
//     plan that fails outright fails the build.
//   - AblationTopN / AblationDistance / EvaluatorComparison: the only
//     source of the numbers under "Extensions beyond the paper" in
//     EXPERIMENTS.md.
//
// Run one with, e.g.:
//
//	go test -run xxx -bench 'Fig8Original/Q9' -benchmem .
package conquer

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"conquer/internal/bench"
	"conquer/internal/cora"
	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/exec"
	"conquer/internal/probcalc"
	"conquer/internal/sqlparse"
	"conquer/internal/testdb"
	"conquer/internal/uisgen"
)

const (
	benchScale = bench.DefaultScale
	benchSeed  = 20060403 // ICDE 2006
)

// fig8Instance is the Figure 8 instance (sf = 1, if = 3), generated once
// for all the benchmark families of a -bench run.
var fig8Instance = sync.OnceValues(func() (*dirty.DB, error) {
	return bench.GenerateWorkload(1, 3, benchScale, benchSeed)
})

func workload(b *testing.B) *dirty.DB {
	b.Helper()
	d, err := fig8Instance()
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func queryPairs(b *testing.B) []bench.QueryPair {
	b.Helper()
	pairs, err := bench.PreparePairs()
	if err != nil {
		b.Fatal(err)
	}
	return pairs
}

// queryPair is the evaluation pair numbered n; a missing one must fail
// the benchmark, not time a nil statement.
func queryPair(b *testing.B, n int) bench.QueryPair {
	b.Helper()
	for _, p := range queryPairs(b) {
		if p.Number == n {
			return p
		}
	}
	b.Fatalf("query %d missing from bench.PreparePairs()", n)
	return bench.QueryPair{}
}

// ---------------------------------------------------------------------------
// Figure 8 — the thirteen queries, original vs rewritten (sf = 1, if = 3)
// ---------------------------------------------------------------------------

// BenchmarkFig8Original times each evaluation query as written.
func BenchmarkFig8Original(b *testing.B) {
	d := workload(b)
	eng := engine.New(d.Store)
	for _, p := range queryPairs(b) {
		b.Run(fmt.Sprintf("Q%d", p.Number), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.QueryStmt(p.Original); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8Rewritten times each query's RewriteClean rewriting on the
// same instance; the per-query ratio to BenchmarkFig8Original is the
// paper's Figure 8.
func BenchmarkFig8Rewritten(b *testing.B) {
	d := workload(b)
	eng := engine.New(d.Store)
	for _, p := range queryPairs(b) {
		b.Run(fmt.Sprintf("Q%d", p.Number), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.QueryStmt(p.Rewritten); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8Parallelism times Query 3's rewriting (the heaviest
// three-way join of the workload) at worker counts 1, 2 and 4, exercising
// the morsel-driven Gather, the partitioned join build and the partial
// aggregation under the benchmark harness. On a single-CPU host the
// parallel runs measure coordination overhead rather than speedup.
func BenchmarkFig8Parallelism(b *testing.B) {
	d := workload(b)
	q3 := queryPair(b, 3).Rewritten
	for _, n := range []int{1, 2, 4} {
		eng := engine.NewWithOptions(d.Store, engine.Options{Parallelism: n})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.QueryStmt(q3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8Sharding times rewritten Query 3 at cluster-shard counts
// 1, 2 and 4 with a fixed worker count. Results are byte-identical at
// every shard count, so the deltas are pure partitioning, balancing and
// gather cost.
func BenchmarkFig8Sharding(b *testing.B) {
	d := workload(b)
	q3 := queryPair(b, 3).Rewritten
	for _, sh := range []int{1, 2, 4} {
		eng := engine.NewWithOptions(d.Store, engine.Options{Parallelism: 4, Shards: sh})
		b.Run(fmt.Sprintf("shards=%d", sh), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.QueryStmt(q3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchSize sweeps rows-per-batch on Figure 8 Query 9 (the
// heaviest pair of the workload), original and rewritten, serially, at
// 64/256/1024/4096 rows per batch. Results are byte-identical at every
// size; the plateau from 256 up is what pins exec.DefaultBatchSize.
func BenchmarkBatchSize(b *testing.B) {
	d := workload(b)
	q9 := queryPair(b, 9)
	for _, stmt := range []struct {
		label string
		q     *sqlparse.SelectStmt
	}{{"original", q9.Original}, {"rewritten", q9.Rewritten}} {
		for _, n := range []int{64, 256, exec.DefaultBatchSize, 4096} {
			eng := engine.NewWithOptions(d.Store, engine.Options{Parallelism: 1, BatchSize: n})
			b.Run(fmt.Sprintf("%s/batch=%d", stmt.label, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := eng.QueryStmt(stmt.q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig7ProbCalcParallelism times the §4 probability computation
// on lineitem at worker counts 1, 2 and 4 (one task per cluster).
func BenchmarkFig7ProbCalcParallelism(b *testing.B) {
	d, err := uisgen.Generate(uisgen.Config{
		SF: 1, IF: 5, Scale: benchScale, Seed: benchSeed,
		Propagated: true, UniformProbs: false,
	})
	if err != nil {
		b.Fatal(err)
	}
	li, _ := d.Store.Table("lineitem")
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := probcalc.AnnotateTableCtx(context.Background(), li, nil, nil, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations beyond the paper's figures
// ---------------------------------------------------------------------------

// BenchmarkAblationTopN compares the full-sort-then-limit plan against
// a Sort with a Limit, the bounded-heap TopN, for "top answers" queries
// (ORDER BY ... LIMIT k) — the sort cost Figure 9 shows dominating as
// duplication grows.
func BenchmarkAblationTopN(b *testing.B) {
	d := workload(b)
	li, _ := d.Store.Table("lineitem")
	keys := []exec.SortKey{exec.SortKeyPos(li.Schema.ColumnIndex("l_extendedprice"), true)}
	b.Run("sort_then_limit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			srt, err := exec.NewSort(exec.NewScan(li, "l"), keys)
			if err != nil {
				b.Fatal(err)
			}
			rows, err := exec.Collect(exec.NewLimit(srt, 10))
			if err != nil || len(rows) != 10 {
				b.Fatalf("rows=%d err=%v", len(rows), err)
			}
		}
	})
	b.Run("fused_topn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			top, err := exec.NewSort(exec.NewScan(li, "l"), keys)
			if err != nil {
				b.Fatal(err)
			}
			top.Limit = 10
			rows, err := exec.Collect(top)
			if err != nil || len(rows) != 10 {
				b.Fatalf("rows=%d err=%v", len(rows), err)
			}
		}
	})
}

// BenchmarkAblationDistance compares the paper's information-loss distance
// against the edit-distance alternative on the Cora cluster.
func BenchmarkAblationDistance(b *testing.B) {
	ds, ids, _, _ := cora.SchapireCluster(benchSeed)
	b.Run("information_loss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := probcalc.AssignProbabilities(ds, ids, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("edit_distance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := probcalc.AssignProbabilitiesEdit(ds, ids, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEvaluatorComparison contrasts the three clean-answer evaluators
// on the paper's Figure 2 example — rewriting vs exact enumeration vs
// Monte Carlo.
func BenchmarkEvaluatorComparison(b *testing.B) {
	d := testdb.Figure2()
	q := sqlparse.MustParse(
		"select o.id, c.id from orders o, customer c where o.cidfk = c.id and c.balance > 10000")
	b.Run("rewriting", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := coreViaRewriting(d, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact_enumeration", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := coreExact(d, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("monte_carlo_1k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := coreMonteCarlo(d, q, 1000); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOfflinePass is one pass of the benchmark's offline_prep
// workload — clone the unannotated instance (uisgen sf=1, if=5, scale
// 0.004, seed 42), annotate every dirty relation at GOMAXPROCS workers,
// propagate identifiers, validate Dfn 2 — with each phase a sub-benchmark,
// so a -memprofile splits the pass's allocations by phase.
func BenchmarkOfflinePass(b *testing.B) {
	d, err := uisgen.Generate(uisgen.Config{SF: 1, IF: 5, Scale: 0.004, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	// Each phase starts from the state the pass before it leaves.
	clone := func(b *testing.B) *dirty.DB {
		c, err := d.Store.Clone()
		if err != nil {
			b.Fatal(err)
		}
		return dirty.New(c)
	}
	annotate := func(b *testing.B, db *dirty.DB) {
		if err := probcalc.AnnotateAllParCtx(context.Background(), db.Store, nil, runtime.GOMAXPROCS(0)); err != nil {
			b.Fatal(err)
		}
	}
	propagate := func(b *testing.B, db *dirty.DB) {
		if _, err := db.PropagateAll(); err != nil {
			b.Fatal(err)
		}
	}
	phase := func(name string, prep func(*testing.B) *dirty.DB, run func(*testing.B, *dirty.DB)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := prep(b)
				b.StartTimer()
				run(b, db)
			}
		})
	}
	b.Run("clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			clone(b)
		}
	})
	phase("annotate", clone, annotate)
	annotated := func(b *testing.B) *dirty.DB { db := clone(b); annotate(b, db); return db }
	phase("propagate", annotated, propagate)
	propagated := func(b *testing.B) *dirty.DB { db := annotated(b); propagate(b, db); return db }
	phase("validate", propagated, func(b *testing.B, db *dirty.DB) {
		if err := db.Validate(); err != nil {
			b.Fatal(err)
		}
	})
}

// ladderSeed is the uisgen seed of the benchmark's tiny TPC-H instance:
// the first seed from 42*2000 on whose instance has exactly 432 candidate
// databases (benchmark/ladder.go searches for it on every run).
const ladderSeed = 84002

// BenchmarkLadderPass is one pass of the benchmark's ladder_nonrewritable
// workload — exact answers plus 2000 Monte-Carlo samples of six
// statements over instances small enough to enumerate — so its heap
// profile is one `go test -run xxx -bench LadderPass -memprofile` away.
func BenchmarkLadderPass(b *testing.B) {
	tiny, err := uisgen.Generate(uisgen.Config{
		SF: 0.0002, IF: 2, Scale: 0.01, Seed: ladderSeed, Propagated: true, UniformProbs: true,
		CleanTables: []string{"region", "nation", "supplier", "part"},
	})
	if err != nil {
		b.Fatal(err)
	}
	if n, err := tiny.CandidateCount(); err != nil || n.Int64() != 432 {
		b.Fatalf("tiny instance has %v candidates (%v), want 432", n, err)
	}
	fig1, fig2 := testdb.Figure1(), testdb.Figure2()
	cases := []struct {
		d   *dirty.DB
		sql string
	}{
		{tiny, "select l.l_id, o.o_orderkey from orders o, lineitem l where l.l_orderkey = o.o_orderkey"},
		{tiny, "select o.o_orderkey from orders o, lineitem l where l.l_orderkey = o.o_orderkey and l.l_quantity > 10"},
		{tiny, "select c.c_custkey from customer c, orders o where o.o_custkey = c.c_custkey and o.o_totalprice > 100000"},
		{fig1, "select l.cardid from loyaltycard l, customer c where l.custfk = c.id and c.income > 100000"},
		{fig2, "select c.id from orders o, customer c where o.quantity < 5 and o.cidfk = c.id and c.balance > 25000"},
		{fig2, "select id, balance from customer where balance > 10000"},
	}
	stmts := make([]*sqlparse.SelectStmt, len(cases))
	for i, c := range cases {
		stmts[i] = sqlparse.MustParse(c.sql)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, c := range cases {
			if _, err := coreExact(c.d, stmts[k]); err != nil {
				b.Fatal(err)
			}
			if _, err := coreMonteCarlo(c.d, stmts[k], 2000); err != nil {
				b.Fatal(err)
			}
		}
	}
}
