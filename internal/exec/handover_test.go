package exec

import (
	"fmt"
	"runtime"
	"testing"

	"conquer/internal/schema"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// fanOutTables builds a probe table of n rows over 97 keys and a build
// table holding each key three times, so the join emits 3n rows.
func fanOutTables(t testing.TB, n int) (probe, build *storage.Table) {
	t.Helper()
	probe = storage.NewTable(schema.MustRelation("probe",
		schema.Column{Name: "id", Type: value.KindInt},
		schema.Column{Name: "k", Type: value.KindInt},
	))
	for i := 0; i < n; i++ {
		probe.MustInsert(value.Int(int64(i)), value.Int(int64(i%97)))
	}
	build = storage.NewTable(schema.MustRelation("build",
		schema.Column{Name: "k", Type: value.KindInt},
		schema.Column{Name: "tag", Type: value.KindString},
	))
	for i := 0; i < 3*97; i++ {
		build.MustInsert(value.Int(int64(i%97)), value.Str(fmt.Sprintf("t%d", i)))
	}
	return probe, build
}

// sortOverGather is Sort(p.id DESC) over a Gather over the fan-out join,
// its output narrowed to p.id.
func sortOverGather(t testing.TB, probe, build *storage.Table) *Sort {
	t.Helper()
	j := mustOp[*HashJoin](t)(NewHashJoin(NewScan(probe, "p"), NewScan(build, "b"), exprs(colRef("p", "k")), exprs(colRef("b", "k"))))
	if err := j.Narrow([]int{0}); err != nil {
		t.Fatal(err)
	}
	setMorselSize(t, 256)
	g := NewGather(j)
	return mustOp[*Sort](t)(NewSort(g, []SortKey{SortKeyPos(0, true)}))
}

// A result is buffered once: a Gather's workers — or, when it runs
// serially, the drain above it — copy the row headers into blocks that
// double, the reassembly copies them into one vector of exactly the
// result's size, and Sort and the collector take that vector over instead
// of copying it; Sort orders it in place, keeping no key of its own. So
// doubling the output rows of a Sort over a Gather over a fan-out join
// adds, per extra row, what the row itself costs — its joined value — plus
// its header in the vector and its header in the blocks, which cost one
// to two times what they hold (the merge orders a Gather's runs by the
// morsel each is tagged with, so no row carries its ordinal there):
// measured, 50 to 110 bytes in all; asserted, at most a header and three
// blocked headers, since the larger run's blocks can sit at twice their
// content where the smaller run's sat at once. Beyond
// the join's output blocks it adds a logarithmic number of allocations.
// A copy into an append chain costs five headers, and the five copies the
// result went through before it was handed over cost 14 to 22.
func TestResultIsBufferedOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	// One processor, as in testing.AllocsPerRun: which morsels a worker
	// wins, and so how its blocks fill, then varies less from run to run.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const valueBytes = 32 // TestValueIs32Bytes
	for _, par := range []int{1, 4} {
		type cost struct{ rows, bytes, allocs int64 }
		measure := func(n int) cost {
			probe, build := fanOutTables(t, n)
			best := cost{bytes: -1}
			for r := 0; r < 3; r++ {
				s := sortOverGather(t, probe, build)
				gov := governOn(s, par)
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				rows, _, err := CollectBatchesGoverned(s, gov, 0)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				c := cost{int64(len(rows)), int64(after.TotalAlloc - before.TotalAlloc), int64(after.Mallocs - before.Mallocs)}
				if best.bytes < 0 {
					best = c
				}
				best.bytes, best.allocs = min(best.bytes, c.bytes), min(best.allocs, c.allocs)
			}
			return best
		}
		small, large := measure(20000), measure(40000)
		extra := large.rows - small.rows
		if small.rows != 3*20000 || extra != 3*20000 {
			t.Fatalf("par=%d: %d and %d rows", par, small.rows, large.rows)
		}
		// Per row: the joined value; its header in the result and in the
		// blocks.
		own := int64(valueBytes)
		header, blocked := int64(24), int64(24)
		perRow := float64(large.bytes-small.bytes) / float64(extra)
		limit := float64(own + header + 3*blocked + 8)
		// The join carves its output one batch-sized block at a time, and
		// a worker that wins morsels in one run and none in the other
		// grows its batches and slabs once: ~55 allocations.
		allocLimit := extra/DefaultBatchSize + 16 + 64*int64(par-1)
		t.Logf("par=%d: %d rows %d bytes %d allocs, %d rows %d bytes %d allocs: %.1f bytes per extra row (%.1f beyond its own, at most %.0f), +%d allocations (at most %d)",
			par, small.rows, small.bytes, small.allocs, large.rows, large.bytes, large.allocs,
			perRow, perRow-float64(own), limit-float64(own), large.allocs-small.allocs, allocLimit)
		if perRow > limit {
			t.Errorf("par=%d: %.1f bytes per extra row, want at most %.0f: the result is copied more than once",
				par, perRow, limit)
		}
		if more := large.allocs - small.allocs; more > allocLimit {
			t.Errorf("par=%d: +%d allocations for %d extra rows, want at most %d", par, more, extra, allocLimit)
		}
	}
}
