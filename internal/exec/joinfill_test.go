package exec

import (
	"fmt"
	"sort"
	"testing"
	"unsafe"

	"conquer/internal/schema"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// keyTable is a table of (k, c) rows: for every key k in [0, keys), fan(k)
// rows numbered c = 0, 1, … in that order.
func keyTable(t *testing.T, name string, keys int, fan func(k int) int) *storage.Table {
	t.Helper()
	tb := storage.NewTable(schema.MustRelation(name,
		schema.Column{Name: "k", Type: value.KindInt},
		schema.Column{Name: "c", Type: value.KindInt},
	))
	for k := 0; k < keys; k++ {
		for c := 0; c < fan(k); c++ {
			tb.MustInsert(value.Int(int64(k)), value.Int(int64(c)))
		}
	}
	return tb
}

// A join matches its probe batch before it carves, so every fill is sized
// by its matches: over a selective join (1 probe row in 100 matches), a 1:1
// join and a fan-out join (0–7 matches a row, a probe batch's rows spanning
// several fills), at 1, 2 and 4 workers, into transient and plain output
// batches,
//   - the fill's rows lie in order in one block, and a block allocated for
//     a fill holds exactly its rows × width values (a transient batch's
//     next fill may carve the same block again, one that holds it);
//   - the row and ordinal vectors hold the fill without growing past what
//     reserve gave them: their capacity is the fill's rows, or the
//     previous fill's capacity when that held them;
//   - a fill's rows come from the probe batch being matched;
//   - the rows are the nested loop's, tagged (probe ordinal, fan-out).
func TestJoinFillIsSizedByItsMatches(t *testing.T) {
	setMorselSize(t, 256)
	useBatchSize(t, 64)
	const keys = 3000
	probe := keyTable(t, "probe", keys, func(int) int { return 1 })
	cases := []struct {
		name  string
		build *storage.Table
	}{
		{"selective", keyTable(t, "build", keys, func(k int) int { return 1 - min(k%100, 1) })},
		{"1:1", keyTable(t, "build", keys, func(int) int { return 1 })},
		{"fan-out", keyTable(t, "build", keys, func(k int) int { return k * 5 % 8 })},
	}
	for _, tc := range cases {
		// The nested loop's rows: the build rows of each probe row's key,
		// in build order.
		byKey := map[int64][][]value.Value{}
		for _, r := range tc.build.Rows() {
			byKey[r[0].AsInt()] = append(byKey[r[0].AsInt()], r)
		}
		var want []taggedRow
		for li, l := range probe.Rows() {
			for seq, r := range byKey[l[0].AsInt()] {
				want = append(want, taggedRow{append(append([]value.Value{}, l...), r...), rowOrd{base: int64(li), seq: int64(seq)}})
			}
		}
		for _, par := range []int{1, 2, 4} {
			for _, transient := range []bool{true, false} {
				label := fmt.Sprintf("%s par=%d transient=%v", tc.name, par, transient)
				j := mustOp[*HashJoin](t)(NewHashJoin(NewScan(probe, "p"), NewScan(tc.build, "b"),
					exprs(colRef("p", "k")), exprs(colRef("b", "k")), nil))
				governOn(j, par)
				parts, _ := splitPipeline(j, par)
				got, fills, multi := drainFills(t, label, parts, transient)
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
				if tc.name == "fan-out" && multi == 0 {
					t.Errorf("%s: no probe batch spans two fills", label)
				}
				t.Logf("%s: %d rows in %d fills", label, len(got), fills)
			}
		}
	}
}

// drainFills opens every part and pulls them in turn, each into a batch of
// its own, checking each fill as TestJoinFillIsSizedByItsMatches says. It
// returns copies of the rows, the number of fills and how many of them
// continued a probe batch that an earlier fill had begun.
func drainFills(t *testing.T, label string, parts []Operator, transient bool) (rows []taggedRow, fills, multi int) {
	t.Helper()
	type state struct {
		j        *HashJoin
		b        *Batch
		block    *value.Value // the last fill's block
		lastBase int64        // the first ordinal of the last fill's probe batch
	}
	states := make([]*state, len(parts))
	for i, p := range parts {
		govern(p)
		if err := p.Open(); err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		b := NewBatch(0)
		if transient {
			b = NewTransientBatch(0)
		}
		states[i] = &state{j: p.(*HashJoin), b: b, lastBase: -1}
	}
	for live := len(states); live > 0; {
		live = 0
		for _, s := range states {
			b, j := s.b, s.j
			rowsCap, ordsCap := cap(b.rows), cap(b.ords)
			if err := j.NextBatch(b); err != nil {
				t.Fatal(err)
			}
			n := b.Len()
			if n == 0 {
				continue
			}
			live++
			fills++
			for _, v := range []struct {
				what          string
				before, after int
			}{{"row", rowsCap, cap(b.rows)}, {"ordinal", ordsCap, cap(b.ords)}} {
				want := v.before
				if want < n {
					want = n // replaced by reserve, with a vector of exactly n
				}
				if v.after != want {
					t.Fatalf("%s: a %d-row fill leaves the %s vector at capacity %d (it was %d)", label, n, v.what, v.after, v.before)
				}
			}
			width := len(j.schema)
			blk := j.bp.out
			fresh := unsafe.SliceData(blk) != s.block
			switch {
			case fresh && cap(blk) != n*width:
				t.Fatalf("%s: a %d-row fill of width %d got a block of %d values", label, n, width, cap(blk))
			case !fresh && (!transient || cap(blk) < n*width):
				t.Fatalf("%s: a %d-row fill reused a block of %d values (transient %v)", label, n, cap(blk), transient)
			}
			s.block = unsafe.SliceData(blk)
			probe := j.bp.probe
			lo, hi := probe.Ord(0).base, probe.Ord(probe.Len()-1).base
			if lo == s.lastBase {
				multi++
			}
			s.lastBase = lo
			for k := 0; k < n; k++ {
				row := b.Row(k)
				if unsafe.SliceData(row) != &blk[k*width] {
					t.Fatalf("%s: row %d of a fill does not sit at its place in the fill's block", label, k)
				}
				if base := b.Ord(k).base; base < lo || base > hi {
					t.Fatalf("%s: a fill holds a row of probe ordinal %d, outside its probe batch [%d, %d]", label, base, lo, hi)
				}
				rows = append(rows, taggedRow{append([]value.Value{}, row...), b.Ord(k)})
			}
		}
	}
	return rows, fills, multi
}

// TestOneRowProbeGrowsItsMatchesOnce: a probe batch of one row sizes its
// match vector from the row's bucket rather than by doubling from the pairs
// made so far: one row against a key of fan-out 100 grows the vector at
// most twice, where doubling grows it eight times (1, 2, 4, … 128).
func TestOneRowProbeGrowsItsMatchesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	probe := keyTable(t, "probe", 1, func(int) int { return 1 })
	build := keyTable(t, "build", 1, func(int) int { return 100 })
	j := mustOp[*HashJoin](t)(NewHashJoin(NewScan(probe, "p"), NewScan(build, "b"),
		exprs(colRef("p", "k")), exprs(colRef("b", "k")), nil))
	govern(j)
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	b := NewBatch(0)
	if err := j.NextBatch(b); err != nil || b.Len() != 100 {
		t.Fatalf("the join gave %d rows (error %v), want 100", b.Len(), err)
	}
	// Walk the probe row's bucket again from an empty vector: each growth
	// is one allocation.
	growths := testing.AllocsPerRun(20, func() {
		j.matches, j.bp.idx, j.next = nil, 0, 0
		if m := j.match(b.Cap()); len(m) != 100 {
			t.Fatalf("%d pairs, want 100", len(m))
		}
	})
	t.Logf("a one-row probe of fan-out 100 grows its match vector %.0f times", growths)
	if growths > 2 {
		t.Errorf("the match vector grew %.0f times for one probe row of fan-out 100, want at most 2", growths)
	}
}
