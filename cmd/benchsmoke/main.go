// Command benchsmoke is the CI row-vs-batch regression gate
// (DESIGN.md §15): it runs Figure 8 Q9 — the heaviest query pair of
// the evaluation workload — row-at-a-time and at the engine's default
// batch size on the same generated instance, and fails when the batch
// path runs slower than the row path beyond a noise margin. Batching
// exists purely to amortize per-row overheads, so "no slower than the
// loop it replaced, within noise" is the invariant a shared CI runner
// can actually hold; the full speedup claim lives in BENCH_PR10.json.
// Allocation counts repeat to a fraction of a percent whatever the host
// does, so on the default instance each of the four runs must also stay
// within 2% above its recorded allocations per run. The default shard
// count follows GOMAXPROCS and moves the counts by several percent, so
// the command runs at two processors wherever it runs.
//
//	go run ./cmd/benchsmoke
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"conquer/internal/bench"
)

// allocCeiling is how far above baselineAllocs a run may allocate.
const allocCeiling = 1.02

// baselineAllocs are the allocations of one run on the default instance
// (sf 1, default scale and seed) at GOMAXPROCS 2.
var baselineAllocs = map[string][2]int64{ // label -> row, batch
	"Q9 original":  {396258, 4184},
	"Q9 rewritten": {300278, 18335},
}

func main() {
	sf := flag.Float64("sf", 1, "TPC-H scaling factor")
	scale := flag.Float64("scale", bench.DefaultScale, "entity-count multiplier")
	seed := flag.Int64("seed", 20060403, "generator seed")
	reps := flag.Int("reps", 5, "repetitions (best run is compared)")
	margin := flag.Float64("margin", 1.15, "allowed batch/row slowdown ratio before failing")
	flag.Parse()
	runtime.GOMAXPROCS(2) // see baselineAllocs

	d, err := bench.GenerateWorkload(*sf, 3, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	row, err := bench.Fig8Batch(d, *reps, 1, -1, 9)
	if err != nil {
		fatal(fmt.Errorf("row-mode run: %w", err))
	}
	batch, err := bench.Fig8Batch(d, *reps, 1, 0, 9)
	if err != nil {
		fatal(fmt.Errorf("batch-mode run: %w", err))
	}
	if len(row) != 1 || len(batch) != 1 {
		fatal(fmt.Errorf("expected exactly Q9 from both runs, got %d and %d rows", len(row), len(batch)))
	}
	defaultInstance := true
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "sf" || f.Name == "scale" || f.Name == "seed" {
			defaultInstance = false
		}
	})
	ok := true
	for _, c := range []struct {
		label                  string
		rowNs, batchNs         time.Duration
		rowAllocs, batchAllocs int64
	}{
		{"Q9 original", row[0].Original, batch[0].Original, row[0].OrigAllocs, batch[0].OrigAllocs},
		{"Q9 rewritten", row[0].Rewritten, batch[0].Rewritten, row[0].RewAllocs, batch[0].RewAllocs},
	} {
		ratio := float64(c.batchNs) / float64(c.rowNs)
		fmt.Printf("%s: row %s (%d allocs) vs batch %s (%d allocs), batch/row %.3fx\n",
			c.label, c.rowNs.Round(time.Microsecond), c.rowAllocs,
			c.batchNs.Round(time.Microsecond), c.batchAllocs, ratio)
		if ratio > *margin {
			fmt.Printf("FAIL: %s batch path is %.3fx the row path (margin %.2fx)\n", c.label, ratio, *margin)
			ok = false
		}
		if !defaultInstance {
			continue
		}
		base := baselineAllocs[c.label]
		for i, got := range []int64{c.rowAllocs, c.batchAllocs} {
			if limit := int64(float64(base[i]) * allocCeiling); got > limit {
				fmt.Printf("FAIL: %s %s path allocates %d per run, ceiling %d (%d + 2%%)\n",
					c.label, []string{"row", "batch"}[i], got, limit, base[i])
				ok = false
			}
		}
	}
	if !ok {
		os.Exit(1)
	}
	fmt.Println("bench-smoke ok: batch path within margin of the row path, allocations under their ceilings")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchsmoke:", err)
	os.Exit(1)
}
