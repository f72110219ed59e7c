package exec

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"conquer/internal/schema"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled = false

// The join build and the aggregate allocate per block, not per key: the
// build's entries sit in one vector with each bucket chained through it
// from one head vector, the groups chain through the states their arena
// carves, and the grouped rows are carved from one block. Doubling the
// distinct keys from 4,000 to 8,000 must add fewer than one allocation per
// 50 keys, serially and with the parallel arms running. What it does add
// is blocks: each arena, head vector and worker's run block takes one more
// (+5 to +11; while the heads were Go maps, a map's growth made it +22 to
// +58). A slice per key added about 4,000 for the join and 8,000 to 12,000
// for the groups.
func TestHashTablesDoNotAllocatePerKey(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	setMorselSize(t, 256)
	allocs := func(n, par int, mk func(fact, dim *storage.Table) Operator) float64 {
		fact, dim := parTables(t, n)
		return testing.AllocsPerRun(3, func() {
			if rows := mustCollectOn(t, mk(fact, dim), par); len(rows) == 0 {
				t.Fatal("no rows")
			}
		})
	}
	for _, par := range []int{1, 4} {
		for _, tc := range []struct {
			name string
			mk   func(fact, dim *storage.Table) Operator
		}{
			// One group per fact row.
			{"GROUP BY", func(fact, _ *storage.Table) Operator {
				a := mustOp[*HashAggregate](t)(NewHashAggregate(NewScan(fact, "f"),
					exprs(colRef("f", "id")), []ColInfo{{Name: "id", Type: value.KindInt}},
					[]AggSpec{
						{Func: AggCount, Col: ColInfo{Name: "n", Type: value.KindInt}},
						{Func: AggSum, Arg: colRef("f", "w"), Col: ColInfo{Name: "sw", Type: value.KindFloat}},
					}))
				return a
			}},
			// One build key per fact row, probed by the 97 dimension rows.
			{"join build", func(fact, dim *storage.Table) Operator {
				j := mustOp[*HashJoin](t)(NewHashJoin(NewScan(dim, "d"), NewScan(fact, "f"),
					exprs(colRef("d", "k")), exprs(colRef("f", "id")), nil))
				return j
			}},
		} {
			small, large := allocs(4000, par, tc.mk), allocs(8000, par, tc.mk)
			t.Logf("%s, parallelism %d: %v allocations for 4000 keys, %v for 8000", tc.name, par, small, large)
			if large > small+4000/50 {
				t.Errorf("%s, parallelism %d: %v allocations for 4000 keys, %v for 8000: something is still per key", tc.name, par, small, large)
			}
		}
	}
}

// joinSides builds the two inputs of TestJoinBucketOrderMatchesNestedLoop:
// dirty tables whose every build key occurs in many morsels of three rows
// and in several clusters; some keys are NULL, and two probe keys match
// nothing.
func joinSides(t *testing.T, probeRows, buildRows int) (probe, build *storage.Table) {
	t.Helper()
	mk := func(name string, n, keys, nullEvery int) *storage.Table {
		s := schema.MustRelation(name,
			schema.Column{Name: "id", Type: value.KindString},
			schema.Column{Name: "k", Type: value.KindInt},
			schema.Column{Name: "prob", Type: value.KindFloat},
		)
		if err := s.SetDirty("id", "prob"); err != nil {
			t.Fatal(err)
		}
		tb := storage.NewTable(s)
		for i := 0; i < n; i++ {
			k := value.Int(int64(i % keys))
			if i%nullEvery == 0 {
				k = value.Null()
			}
			tb.MustInsert(value.Str(fmt.Sprintf("c%d", i%11)), k, value.Float(1))
		}
		return tb
	}
	return mk("probe", probeRows, 7, 6), mk("build", buildRows, 5, 7)
}

// A join's buckets hold their entries in right-input order however the
// build ran: serially, or partitioned across workers over morsels and
// merged in morsel order. So the probe emits the nested loop's rows in the
// nested loop's order, and tags each with its probe row's ordinal and its
// place in that row's fan-out — at every parallelism and batch size, with
// NULL keys on both sides and with an empty build.
func TestJoinBucketOrderMatchesNestedLoop(t *testing.T) {
	setMorselSize(t, 3)
	probe, build := joinSides(t, 40, 60)
	empty := storage.NewTable(build.Schema)
	sameKey := func(l, r []value.Value) bool { return !l[1].IsNull() && value.Equal(l[1], r[1]) }
	for _, right := range []*storage.Table{build, empty} {
		// The reference: nested-loop rows, tagged (probe ordinal, fan-out).
		var want []taggedRow
		for li, l := range probe.Rows() {
			seq := int64(0)
			for _, r := range right.Rows() {
				if sameKey(l, r) {
					row := append(append([]value.Value{}, l...), r...)
					want = append(want, taggedRow{row, rowOrd{base: int64(li), seq: seq}})
					seq++
				}
			}
		}
		if right == build && len(want) < 100 {
			t.Fatalf("reference has %d rows: the keys do not repeat", len(want))
		}
		for _, par := range []int{1, 2, 8} {
			for _, batch := range []int{1, 7, 0} {
				label := fmt.Sprintf("build rows=%d par=%d batch=%d", right.Len(), par, batch)
				j := mustOp[*HashJoin](t)(NewHashJoin(NewScan(probe, "p"), NewScan(right, "b"), exprs(colRef("p", "k")), exprs(colRef("b", "k")), nil))
				governOn(j, par)
				parts, _ := splitPipeline(j, par)
				var got []taggedRow
				for _, p := range drainParts(t, parts, batch) {
					got = append(got, p...)
				}
				sort.Slice(got, func(x, y int) bool { return got[x].ord.compare(got[y].ord) < 0 })
				if len(got) != len(want) {
					t.Fatalf("%s: %d rows, the nested loop has %d", label, len(got), len(want))
				}
				for i := range want {
					if got[i].ord != want[i].ord || !value.RowsIdentical(got[i].row, want[i].row) {
						t.Fatalf("%s: row %d = %v tagged %+v, want %v tagged %+v",
							label, i, got[i].row, got[i].ord, want[i].row, want[i].ord)
					}
				}
			}
		}
	}
}

// collidingKeys returns n distinct integer keys whose value.HashRow agree
// in their low 16 bits, found by search: every head vector of the tables
// below is shorter than 1<<16 slots, so under any of their masks the keys
// share one bucket, though their full hashes differ.
func collidingKeys(t *testing.T, n int) []int64 {
	t.Helper()
	byLow := make(map[uint64][]int64)
	for i := int64(0); i < 1<<22; i++ {
		low := value.HashRow([]value.Value{value.Int(i)}) & 0xFFFF
		byLow[low] = append(byLow[low], i)
		if keys := byLow[low]; len(keys) == n {
			return keys
		}
	}
	t.Fatalf("no %d keys share their low hash bits", n)
	return nil
}

// Both hash tables keep one power-of-two vector of bucket heads, so one
// bucket holds keys of different hashes. Twelve keys that share one bucket
// under every mask the tables use — a thirteenth, also in it, appears on
// the probe side only — must still stay apart: a join build, serial and
// partitioned over 4 workers, matches no probe key to another key's rows
// and emits each bucket's rows in build-input order (the nested loop's
// rows in its order); a GROUP BY, serial and parallel, keeps twelve groups,
// counted and summed apart, in first-appearance order. The twelve groups
// outgrow an accumulator's first head vector, so the aggregate relinks its
// chains once on the way.
func TestFlatHeadsKeepCollidingKeysApart(t *testing.T) {
	keys := collidingKeys(t, 13)
	kv := func(i int) value.Value { return value.Int(keys[i]) }
	mk := func(name string, cols ...string) *storage.Table {
		sc := make([]schema.Column, len(cols))
		for i, c := range cols {
			sc[i] = schema.Column{Name: c, Type: value.KindInt}
		}
		return storage.NewTable(schema.MustRelation(name, sc...))
	}
	// Build rows cycle through the twelve keys four times in a shuffled
	// order; probe rows cycle through all thirteen, about twice.
	build, probe := mk("build", "k", "seq"), mk("probe", "k", "id")
	for r := 0; r < 48; r++ {
		build.MustInsert(kv((r*5)%12), value.Int(int64(r)))
	}
	for r := 0; r < 25; r++ {
		probe.MustInsert(kv((r*7)%13), value.Int(int64(r)))
	}
	want := nestedLoop(probe, build, func(l, r []value.Value) bool { return value.Equal(l[0], r[0]) })
	if len(want) != 12*4*2-4 {
		t.Fatalf("nested loop: %d rows", len(want))
	}
	setMorselSize(t, 3)
	for _, par := range []int{1, 4} {
		if par > 1 {
			if parts, _ := splitPipeline(NewScan(build, "b"), par); len(parts) != par {
				t.Fatalf("the build splits into %d parts, want %d", len(parts), par)
			}
		}
		j := mustOp[*HashJoin](t)(NewHashJoin(NewScan(probe, "p"), NewScan(build, "b"),
			exprs(colRef("p", "k")), exprs(colRef("b", "k")), nil))
		governOn(j, par)
		if err := j.Open(); err != nil {
			t.Fatal(err)
		}
		slot := value.HashRow([]value.Value{kv(0)}) & j.build.mask
		for i := range keys {
			if h := value.HashRow([]value.Value{kv(i)}); h&j.build.mask != slot {
				t.Fatalf("join build, parallelism %d: key %d is not in key 0's bucket", par, i)
			}
		}
		var got [][]value.Value
		b := NewBatch(DefaultBatchSize)
		for {
			if err := j.NextBatch(b); err != nil {
				t.Fatal(err)
			}
			if b.Len() == 0 {
				break
			}
			for i := 0; i < b.Len(); i++ {
				got = append(got, b.Row(i))
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("join build/parallelism %d", par), func(t *testing.T) { requireSameRows(t, want, got) })
	}

	// The groups in first appearance, with their row counts and sums.
	type group struct{ k, n, sum int64 }
	var wantGroups []group
	at := map[int64]int{}
	for r, row := range build.Rows() {
		k := row[0].AsInt()
		i, ok := at[k]
		if !ok {
			i, at[k] = len(wantGroups), len(wantGroups)
			wantGroups = append(wantGroups, group{k: k})
		}
		wantGroups[i].n++
		wantGroups[i].sum += int64(r)
	}
	for _, par := range []int{1, 4} {
		a := mustOp[*HashAggregate](t)(NewHashAggregate(NewScan(build, "b"),
			exprs(colRef("b", "k")), []ColInfo{{Name: "k", Type: value.KindInt}},
			[]AggSpec{
				{Func: AggCount, Col: ColInfo{Name: "n", Type: value.KindInt}},
				{Func: AggSum, Arg: colRef("b", "seq"), Col: ColInfo{Name: "s", Type: value.KindInt}},
			}))
		rows := mustCollectOn(t, a, par)
		if len(rows) != len(wantGroups) {
			t.Fatalf("GROUP BY, parallelism %d: %d groups, want %d", par, len(rows), len(wantGroups))
		}
		for i, g := range wantGroups {
			want := []value.Value{value.Int(g.k), value.Int(g.n), value.Int(g.sum)}
			if !value.RowsIdentical(rows[i], want) {
				t.Errorf("GROUP BY, parallelism %d: group %d = %v, want %v", par, i, rows[i], want)
			}
		}
	}
	// The accumulator the serial pass fills holds all twelve groups in one
	// chain of a head vector it has doubled.
	a := mustOp[*HashAggregate](t)(NewHashAggregate(NewScan(build, "b"),
		exprs(colRef("b", "k")), []ColInfo{{Name: "k", Type: value.KindInt}}, nil))
	gov := govern(a)
	if err := a.Child.Open(); err != nil {
		t.Fatal(err)
	}
	a.accs = make([]*aggAcc, 1)
	if err := a.fillPart(0, a.Child, nil, gov); err != nil {
		t.Fatal(err)
	}
	acc := a.accs[0]
	used := 0
	for _, st := range acc.heads {
		if st != nil {
			used++
		}
	}
	if len(acc.heads) <= aggFirstHeads || used != 1 || len(acc.order) != 12 {
		t.Errorf("the accumulator has %d head slots, %d of them used, and %d groups; want more than %d, 1 and 12",
			len(acc.heads), used, len(acc.order), aggFirstHeads)
	}
}

// A parallel build writes each entry once into its worker's blocks, with
// no ordinal, and once into the table: no partition vectors grown by
// appending, no sort scratch. The blocks double, so they cost one to two
// times what they hold, give or take a batch: the newest block is at most
// twice the one before or one batch. Opening a join whose right side is a
// table of N distinct keys, at 4 workers, must
// allocate at most 2·N·sizeof buildEntry for the blocks and N·sizeof
// buildEntry for the table, plus the key slab, the heads, and each
// worker's batch, in its pipeline and in its blocks: measured, ~200 bytes
// per entry against a limit of ~235 (200 to 230 against ~270 while the
// blocks held each entry's ordinal too). While the build partitioned
// its entries — an append chain per worker and partition, then a sorted
// copy of them all — it took ~500.
func TestParallelBuildWritesEachEntryOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	const n, workers = 1 << 16, 4
	fact, dim := parTables(t, n)
	entry := int64(unsafe.Sizeof(buildEntry{}))
	slab := int64(n) * value.Size // one key per entry
	heads := int64(headSlots(n)) * int64(unsafe.Sizeof(int32(0)))
	batch := int64(workers * DefaultBatchSize)
	pipeline := batch * int64(unsafe.Sizeof([]value.Value{})+unsafe.Sizeof(rowOrd{}))
	limit := (2*n+batch)*entry + n*entry + slab + heads + pipeline + 64<<10
	best := int64(-1)
	for r := 0; r < 3; r++ {
		j := mustOp[*HashJoin](t)(NewHashJoin(NewScan(dim, "d"), NewScan(fact, "f"),
			exprs(colRef("d", "k")), exprs(colRef("f", "id")), nil))
		governOn(j, workers)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := j.Open()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(j.build.entries); got != n {
			t.Fatalf("%d entries, want %d", got, n)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if b := int64(after.TotalAlloc - before.TotalAlloc); best < 0 || b < best {
			best = b
		}
	}
	t.Logf("a build of %d rows allocates %d bytes, %.1f per entry (at most %d: %.1f)",
		n, best, float64(best)/n, limit, float64(limit)/n)
	if best > limit {
		t.Errorf("a build of %d rows allocates %d bytes, want at most %d", n, best, limit)
	}
}
