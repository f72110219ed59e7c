package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// orderedFact builds a dirty table of n rows stored in identifier order:
// clusters of 1 to 12 rows, each row of a category k in 0..3, so that a
// cluster holds several groups of (id, k), and values whose sums are exact.
func orderedFact(t testing.TB, n int) *storage.Table {
	t.Helper()
	s := schema.MustRelation("fact",
		schema.Column{Name: "id", Type: value.KindInt},
		schema.Column{Name: "k", Type: value.KindInt},
		schema.Column{Name: "qty", Type: value.KindInt},
		schema.Column{Name: "w", Type: value.KindFloat},
		schema.Column{Name: "s", Type: value.KindString},
		schema.Column{Name: "prob", Type: value.KindFloat},
	)
	if err := s.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	tb := storage.NewTable(s)
	rng := rand.New(rand.NewSource(3))
	for id := 0; tb.Len() < n; id++ {
		for j, k := 0, 1+rng.Intn(12); j < k && tb.Len() < n; j++ {
			tb.MustInsert(value.Int(int64(id)), value.Int(int64(rng.Intn(4))), value.Int(int64(rng.Intn(9))),
				value.Float(float64(rng.Intn(40))*0.25), value.Str(fmt.Sprintf("s%02d", rng.Intn(50))), value.Float(1/float64(k)))
		}
	}
	if !tb.Ordered() {
		t.Fatal("the fact table lacks the ordered bit")
	}
	return tb
}

// streamingAgg groups Filter(qty < 7) over fact, probing a dimension that
// holds each k twice (a fan-out of two), by (f.id, f.k): COUNT, integer
// and float SUM, AVG, MIN and MAX.
func streamingAgg(t testing.TB, fact, dim *storage.Table) *HashAggregate {
	t.Helper()
	f, err := NewFilter(NewScan(fact, "f"), expr(t, "qty < 7"))
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewHashJoin(f, NewScan(dim, "d"),
		[]sqlparse.Expr{colRef("f", "k")}, []sqlparse.Expr{colRef("d", "k")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewHashAggregate(j,
		[]sqlparse.Expr{colRef("f", "k"), colRef("f", "id")},
		[]ColInfo{{Name: "k", Type: value.KindInt}, {Name: "id", Type: value.KindInt}},
		[]AggSpec{
			{Func: AggCount, Col: ColInfo{Name: "n", Type: value.KindInt}},
			{Func: AggSum, Arg: colRef("f", "qty"), Col: ColInfo{Name: "sq", Type: value.KindInt}},
			{Func: AggSum, Arg: colRef("f", "w"), Col: ColInfo{Name: "sw", Type: value.KindFloat}},
			{Func: AggAvg, Arg: colRef("d", "x"), Col: ColInfo{Name: "ax", Type: value.KindFloat}},
			{Func: AggMin, Arg: colRef("f", "s"), Col: ColInfo{Name: "mn", Type: value.KindString}},
			{Func: AggMax, Arg: colRef("f", "s"), Col: ColInfo{Name: "mx", Type: value.KindString}},
		})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// A streaming aggregate gives the hashed path's rows, in its order, at
// every worker count, batch size and morsel size: its groups are finished
// run by run where the hashed path holds them all, and nothing else
// differs. The sums are exact, so the two folds agree to the bit. Each
// group is charged once, so the buffered peak is the groups' count, with
// the join build's rows, at every worker count: the serial hashed path's,
// where parallel parts that share a group charge it once each until their
// merge.
func TestStreamingAggregateMatchesTheHashedPath(t *testing.T) {
	fact := orderedFact(t, 3000)
	dim := storage.NewTable(schema.MustRelation("dim",
		schema.Column{Name: "k", Type: value.KindInt},
		schema.Column{Name: "x", Type: value.KindFloat},
	))
	for i := 0; i < 8; i++ {
		dim.MustInsert(value.Int(int64(i%4)), value.Float(float64(i)*0.5))
	}
	if a := streamingAgg(t, fact, dim); a.runCol < 0 {
		t.Fatalf("the aggregate names no run column: %s", a.Describe())
	}
	for _, morsel := range []int{0, 16} {
		setMorselSize(t, morsel)
		for _, batch := range []int{0, 1, 7} {
			for _, n := range []int{1, 2, 8} {
				hashed := streamingAgg(t, fact, dim)
				hashed.runCol = -1
				want, _ := runGoverned(t, hashed, n, batch)
				got, peak := runGoverned(t, streamingAgg(t, fact, dim), n, batch)
				label := fmt.Sprintf("morsel %d, batch %d, %d workers", morsel, batch, n)
				if len(want) < 1000 {
					t.Fatalf("%s: %d groups; the test wants many", label, len(want))
				}
				requireIdentical(t, label, want, got)
				if want := int64(len(want) + dim.Len()); peak != want {
					t.Errorf("%s: buffered peak %d, want one per group and build row, %d", label, peak, want)
				}
			}
		}
	}
}

// requireIdentical fails unless got holds want's rows in want's order,
// every value of one kind and identical.
func requireIdentical(t *testing.T, label string, want, got [][]value.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if w, g := want[i][c], got[i][c]; !value.Same(w, g) {
				t.Fatalf("%s: row %d column %d reads %v, want %v", label, i, c, g, w)
			}
		}
	}
}

// A write that breaks the identifier order clears the bit, and the next
// Open of the same tree takes the hashed path: the cluster whose row came
// late is still one group.
func TestStreamingAggregateFallsBackOnAClearedBit(t *testing.T) {
	fact := orderedFact(t, 200)
	dim := storage.NewTable(schema.MustRelation("dim",
		schema.Column{Name: "k", Type: value.KindInt},
		schema.Column{Name: "x", Type: value.KindFloat},
	))
	for i := 0; i < 4; i++ {
		dim.MustInsert(value.Int(int64(i)), value.Float(1))
	}
	a := streamingAgg(t, fact, dim)
	before := mustCollect(t, a)
	row := append([]value.Value(nil), fact.Row(0)...)
	row[2] = value.Int(0) // qty passes the filter
	fact.MustInsert(row...)
	if fact.Ordered() {
		t.Fatal("an insert into the first cluster at the end kept the bit")
	}
	after := mustCollect(t, a)
	if len(after) > len(before)+1 {
		t.Fatalf("%d groups after one insert, %d before: a cluster was split", len(after), len(before))
	}
	hashed := streamingAgg(t, fact, dim)
	hashed.runCol = -1
	requireIdentical(t, "after the insert", mustCollect(t, hashed), after)
}
