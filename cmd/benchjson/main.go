// Command benchjson emits machine-readable serial-vs-parallel timings
// for the two figures the morsel-driven execution layer accelerates:
// Figure 7's probability calculation (one task per cluster) and Figure
// 8's rewritten queries (parallel scans, partitioned join builds,
// partial aggregation). Figure 8 runs twice — with per-operator
// instrumentation on (the default everywhere) and off — so the
// observability overhead is visible as a metrics=on/off column pair.
//
// It also emits query-cache rows for the rewritten queries — cold
// execution, warm result-tier hit, and post-mutation re-execution — so
// the cache's hit speedup and invalidation cost are pinned in the same
// report.
//
//	go run ./cmd/benchjson -out BENCH_PR5.json
//	go run ./cmd/benchjson -pr8 -out BENCH_PR8.json
//
// The -pr8 mode instead reports the cluster-sharded execution layer:
// the rewritten queries and the cache's cold/warm phases at shard
// counts 1, 2 and 4, with the worst skew ratio the shard balancer saw.
//
// Timings are best-of-reps wall clock, reported as ns per operation
// alongside the host's core count — speedups are only meaningful
// relative to the cores available, and on a single-CPU host the
// parallel rows measure coordination overhead, not speedup.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"conquer/internal/bench"
)

type entry struct {
	Name    string `json:"name"`
	Workers int    `json:"workers"`
	NsPerOp int64  `json:"ns_per_op"`
	// Metrics is "on" or "off" for rows measured with per-operator
	// instrumentation enabled/disabled; empty where the toggle does not
	// apply (Figure 7 runs outside the query engine).
	Metrics string `json:"metrics,omitempty"`
	// Cache is "cold", "warm" or "invalidated" for query-cache rows:
	// first execution, result-tier hit, and re-execution after a table
	// mutation moved the version vector. Empty elsewhere.
	Cache string `json:"cache,omitempty"`
	// Shards is the engine's cluster-shard count for -pr8 rows; 0 on
	// rows measured without the shard axis.
	Shards int `json:"shards,omitempty"`
	// Skew is the worst shard-balance ratio (max shard rows over mean)
	// observed across the row's queries; set on -pr8 total rows only.
	Skew float64 `json:"skew,omitempty"`
}

type report struct {
	Cores      int     `json:"cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Note       string  `json:"note,omitempty"`
	Results    []entry `json:"results"`
}

func main() {
	out := flag.String("out", "BENCH_PR5.json", "output path")
	sf := flag.Float64("sf", 1, "TPC-H scaling factor")
	scale := flag.Float64("scale", bench.DefaultScale, "entity-count multiplier")
	ifv := flag.Int("if", 5, "inconsistency factor")
	seed := flag.Int64("seed", 20060403, "generator seed")
	reps := flag.Int("reps", 3, "repetitions (best run is reported)")
	pr8 := flag.Bool("pr8", false, "emit the PR 8 sharding report (rewritten queries and cache cold/warm at shard counts 1/2/4) instead of the PR 5 figures")
	par := flag.Int("par", 0, "worker count for -pr8 rows (0 = GOMAXPROCS)")
	flag.Parse()

	workers := []int{1, 2, 4}
	rep := report{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if rep.Cores == 1 {
		rep.Note = "single-CPU host: parallel rows measure coordination overhead, not speedup"
	}

	if *pr8 {
		runPR8(&rep, *out, *sf, *scale, *seed, *reps, *par)
		return
	}

	for _, n := range workers {
		best := time.Duration(0)
		for r := 0; r < *reps; r++ {
			rows, err := bench.Fig7Par(*sf, *scale, []int{*ifv}, *seed, n)
			if err != nil {
				fatal(err)
			}
			if d := rows[0].ProbCalc; r == 0 || d < best {
				best = d
			}
		}
		rep.Results = append(rep.Results, entry{
			Name: fmt.Sprintf("fig7_probcalc/if=%d", *ifv), Workers: n, NsPerOp: best.Nanoseconds(),
		})
	}

	d, err := bench.GenerateWorkload(*sf, 3, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	for _, instrument := range []bool{true, false} {
		metrics := "on"
		if !instrument {
			metrics = "off"
		}
		for _, n := range workers {
			rows, err := bench.Fig8ParInstr(d, *reps, n, instrument)
			if err != nil {
				fatal(err)
			}
			var total time.Duration
			for _, r := range rows {
				total += r.Rewritten
				rep.Results = append(rep.Results, entry{
					Name: fmt.Sprintf("fig8_rewritten/Q%d", r.Query), Workers: n,
					NsPerOp: r.Rewritten.Nanoseconds(), Metrics: metrics,
				})
			}
			rep.Results = append(rep.Results, entry{
				Name: "fig8_rewritten/total", Workers: n, NsPerOp: total.Nanoseconds(), Metrics: metrics,
			})
		}
	}

	// Query-cache rows: each rewritten query cold (execute + admit), warm
	// (result-tier hit) and invalidated (re-execution after a mutation).
	// The workload is regenerated so the cache benchmark's mutations do
	// not perturb the figures above.
	dc, err := bench.GenerateWorkload(*sf, 3, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	cacheRows, err := bench.FigCache(dc, *reps, 1)
	if err != nil {
		fatal(err)
	}
	for _, r := range cacheRows {
		for _, phase := range []struct {
			label string
			d     time.Duration
		}{{"cold", r.Cold}, {"warm", r.Warm}, {"invalidated", r.Invalidated}} {
			rep.Results = append(rep.Results, entry{
				Name: fmt.Sprintf("fig8_cache/Q%d", r.Query), Workers: 1,
				NsPerOp: phase.d.Nanoseconds(), Cache: phase.label,
			})
		}
	}

	writeReport(&rep, *out)
}

// runPR8 writes the PR 8 sharding report: the thirteen rewritten
// queries at shard counts 1/2/4 (per-query and total, with the worst
// skew ratio the shard balancer saw on the total rows), then cache
// cold/warm rows at the same shard counts. Shards only reschedule —
// results are byte-identical at every count — so the per-shard-count
// deltas are pure partitioning and gather cost on this host.
func runPR8(rep *report, out string, sf, scale float64, seed int64, reps, par int) {
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	shardCounts := []int{1, 2, 4}

	d, err := bench.GenerateWorkload(sf, 3, scale, seed)
	if err != nil {
		fatal(err)
	}
	rows, err := bench.Fig8Sharded(d, reps, par, shardCounts)
	if err != nil {
		fatal(err)
	}
	for _, r := range rows {
		for _, q := range r.PerQuery {
			rep.Results = append(rep.Results, entry{
				Name: fmt.Sprintf("fig8_sharded/Q%d", q.Query), Workers: par,
				NsPerOp: q.Rewritten.Nanoseconds(), Shards: r.Shards,
			})
		}
		rep.Results = append(rep.Results, entry{
			Name: "fig8_sharded/total", Workers: par,
			NsPerOp: r.Total.Nanoseconds(), Shards: r.Shards, Skew: r.Skew,
		})
	}

	// Fresh workload for the cache rows: FigCacheSharded mutates tables
	// for its invalidated phase, which would perturb the figures above.
	for _, sh := range shardCounts {
		dc, err := bench.GenerateWorkload(sf, 3, scale, seed)
		if err != nil {
			fatal(err)
		}
		cacheRows, err := bench.FigCacheSharded(dc, reps, par, sh)
		if err != nil {
			fatal(err)
		}
		for _, r := range cacheRows {
			for _, phase := range []struct {
				label string
				d     time.Duration
			}{{"cold", r.Cold}, {"warm", r.Warm}} {
				rep.Results = append(rep.Results, entry{
					Name: fmt.Sprintf("fig8_cache_sharded/Q%d", r.Query), Workers: par,
					NsPerOp: phase.d.Nanoseconds(), Cache: phase.label, Shards: sh,
				})
			}
		}
	}

	writeReport(rep, out)
}

// writeReport marshals rep to path.
func writeReport(rep *report, path string) {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d results, %d cores)\n", path, len(rep.Results), rep.Cores)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
