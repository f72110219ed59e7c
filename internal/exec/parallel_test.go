package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"conquer/internal/qerr"
	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// parTables builds a deterministic fact table of n rows plus a 97-key
// dimension table, sized so small morsel sizes yield many morsels.
func parTables(t testing.TB, n int) (*storage.Table, *storage.Table) {
	t.Helper()
	fS := schema.MustRelation("fact",
		schema.Column{Name: "id", Type: value.KindInt},
		schema.Column{Name: "k", Type: value.KindInt},
		schema.Column{Name: "qty", Type: value.KindInt},
		schema.Column{Name: "w", Type: value.KindFloat},
	)
	fact := storage.NewTable(fS)
	for i := 0; i < n; i++ {
		fact.MustInsert(value.Int(int64(i)), value.Int(int64(i%97)),
			value.Int(int64(i%7)), value.Float(float64(i%13)*0.25))
	}
	dS := schema.MustRelation("dim",
		schema.Column{Name: "k", Type: value.KindInt},
		schema.Column{Name: "name", Type: value.KindString},
	)
	dim := storage.NewTable(dS)
	for i := 0; i < 97; i++ {
		dim.MustInsert(value.Int(int64(i)), value.Str(fmt.Sprintf("n%03d", i)))
	}
	return fact, dim
}

func colRef(q, n string) sqlparse.Expr { return &sqlparse.ColumnRef{Qualifier: q, Name: n} }

// scanFilterProject builds Project(id, w)←Filter(qty < 5)←Scan(fact).
func scanFilterProject(t testing.TB, fact *storage.Table) Operator {
	t.Helper()
	sc := NewScan(fact, "f")
	f, err := NewFilter(sc, expr(t, "qty < 5"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProject(f, []ProjectionCol{
		{Expr: colRef("f", "id"), Col: ColInfo{Name: "id", Type: value.KindInt}},
		{Expr: colRef("f", "w"), Col: ColInfo{Name: "w", Type: value.KindFloat}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// govern attaches a fresh governor with no limits to op and returns it:
// how a test readies a tree it drives by hand.
func govern(op Operator) *Governor {
	gov := NewGovernor(context.Background(), Limits{})
	Attach(op, gov)
	return gov
}

// collect runs op to completion under a fresh governor with no limits.
func collect(op Operator) ([][]value.Value, error) {
	rows, _, err := CollectBatchesGoverned(op, govern(op), 0)
	return rows, err
}

// setMorselSize cuts every pipeline split until the test ends into
// morsels of n rows (DefaultMorselSize when n <= 0). The grid is read as
// an operator opens, so a test sets it before running a tree.
func setMorselSize(t testing.TB, n int) {
	t.Helper()
	if n <= 0 {
		n = DefaultMorselSize
	}
	old := morselSize
	morselSize = n
	t.Cleanup(func() { morselSize = old })
}

func mustCollect(t testing.TB, op Operator) [][]value.Value {
	t.Helper()
	rows, err := collect(op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func requireSameRows(t *testing.T, want, got [][]value.Value) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("row count: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if !value.RowsIdentical(want[i], got[i]) {
			t.Fatalf("row %d differs: want %v, got %v", i, want[i], got[i])
		}
	}
}

func TestGatherMatchesSerialScanPipeline(t *testing.T) {
	fact, _ := parTables(t, 5000)
	want := mustCollect(t, scanFilterProject(t, fact))
	if len(want) == 0 {
		t.Fatal("empty baseline")
	}
	for _, n := range []int{2, 3, 8} {
		g := NewGather(scanFilterProject(t, fact), n)
		setMorselSize(t, 64)
		requireSameRows(t, want, mustCollect(t, g))
	}
}

func TestGatherSerialFallback(t *testing.T) {
	fact, _ := parTables(t, 100)
	// A Sort child is not splittable: Gather must pass through untouched.
	srt, err := NewSort(NewScan(fact, "f"), []SortKey{SortKeyPos(0, true)})
	if err != nil {
		t.Fatal(err)
	}
	want := mustCollect(t, srt)
	srt2, err := NewSort(NewScan(fact, "f"), []SortKey{SortKeyPos(0, true)})
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, want, mustCollect(t, NewGather(srt2, 8)))
}

func buildJoin(t testing.TB, fact, dim *storage.Table, par, morsel int) *HashJoin {
	t.Helper()
	j, err := NewHashJoin(NewScan(fact, "f"), NewScan(dim, "d"),
		[]sqlparse.Expr{colRef("f", "k")}, []sqlparse.Expr{colRef("d", "k")})
	if err != nil {
		t.Fatal(err)
	}
	j.Parallelism = par
	setMorselSize(t, morsel)
	return j
}

func TestParallelJoinBuildMatchesSerial(t *testing.T) {
	fact, dim := parTables(t, 3000)
	want := mustCollect(t, buildJoin(t, fact, dim, 1, 0))
	for _, n := range []int{2, 4} {
		requireSameRows(t, want, mustCollect(t, buildJoin(t, fact, dim, n, 32)))
	}
}

func TestGatherOverJoinMatchesSerial(t *testing.T) {
	fact, dim := parTables(t, 3000)
	want := mustCollect(t, buildJoin(t, fact, dim, 1, 0))
	g := NewGather(buildJoin(t, fact, dim, 4, 0), 4)
	setMorselSize(t, 64)
	requireSameRows(t, want, mustCollect(t, g))
}

func buildAgg(t testing.TB, fact *storage.Table, par, morsel int) *HashAggregate {
	t.Helper()
	sc := NewScan(fact, "f")
	a, err := NewHashAggregate(sc,
		[]sqlparse.Expr{colRef("f", "k")},
		[]ColInfo{{Name: "k", Type: value.KindInt}},
		[]AggSpec{
			{Func: AggCount, Col: ColInfo{Name: "n", Type: value.KindInt}},
			{Func: AggSum, Arg: colRef("f", "qty"), Col: ColInfo{Name: "sq", Type: value.KindInt}},
			{Func: AggSum, Arg: colRef("f", "w"), Col: ColInfo{Name: "sw", Type: value.KindFloat}},
			{Func: AggMin, Arg: colRef("f", "id"), Col: ColInfo{Name: "mn", Type: value.KindInt}},
			{Func: AggMax, Arg: colRef("f", "id"), Col: ColInfo{Name: "mx", Type: value.KindInt}},
		})
	if err != nil {
		t.Fatal(err)
	}
	a.Parallelism = par
	setMorselSize(t, morsel)
	return a
}

func TestParallelAggregateMatchesSerial(t *testing.T) {
	fact, _ := parTables(t, 5000)
	want := mustCollect(t, buildAgg(t, fact, 1, 0))
	for _, n := range []int{2, 8} {
		got := mustCollect(t, buildAgg(t, fact, n, 64))
		if len(got) != len(want) {
			t.Fatalf("n=%d: group count: want %d, got %d", n, len(want), len(got))
		}
		for i := range want {
			// Group keys, COUNT, integer SUM, MIN and MAX are exact; the
			// float SUM re-associates across partials, so compare with the
			// canonical epsilon.
			for c := range want[i] {
				w, g := want[i][c], got[i][c]
				if w.Kind() == value.KindFloat || g.Kind() == value.KindFloat {
					if !value.FloatEq(w.AsFloat(), g.AsFloat(), value.ProbEpsilon) {
						t.Fatalf("n=%d: row %d col %d: want %v, got %v", n, i, c, w, g)
					}
					continue
				}
				if !value.Identical(w, g) {
					t.Fatalf("n=%d: row %d col %d: want %v, got %v", n, i, c, w, g)
				}
			}
		}
	}
}

func TestParallelGlobalAggregate(t *testing.T) {
	fact, _ := parTables(t, 2000)
	sc := NewScan(fact, "f")
	a, err := NewHashAggregate(sc, nil, nil, []AggSpec{
		{Func: AggCount, Col: ColInfo{Name: "n", Type: value.KindInt}},
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Parallelism = 4
	setMorselSize(t, 32)
	rows := mustCollect(t, a)
	if len(rows) != 1 || rows[0][0].AsInt() != 2000 {
		t.Fatalf("global count = %v", rows)
	}
}

// TestGatherWorkerError proves a mid-stream evaluation error in one
// worker drains the pool and surfaces as the root cause.
func TestGatherWorkerError(t *testing.T) {
	fact, _ := parTables(t, 5000)
	sc := NewScan(fact, "f")
	// Errors exactly at id = 2500, deep into the scan.
	f, err := NewFilter(sc, expr(t, "1 / (id - 2500) >= 0 OR qty >= 0"))
	if err != nil {
		t.Fatal(err)
	}
	g := NewGather(f, 4)
	setMorselSize(t, 64)
	_, err = collect(g)
	if err == nil {
		t.Fatal("want evaluation error, got nil")
	}
	if errors.Is(err, qerr.ErrCanceled) {
		t.Fatalf("root cause should win over secondary cancellations, got %v", err)
	}
}

// TestGatherCancellation proves cancellation observed at a batch boundary
// under Gather returns qerr.ErrCanceled and leaks no worker goroutines, at
// the default batch size and at one that puts several batches in a morsel's
// worth of rows.
func TestGatherCancellation(t *testing.T) {
	fact, dim := parTables(t, 5000)
	for _, size := range []int{0, 16} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // workers observe cancellation on their first PollBatch
		g := NewGather(buildJoin(t, fact, dim, 4, 0), 4)
		setMorselSize(t, 64)
		gov := NewGovernor(ctx, Limits{})
		Attach(g, gov)
		SetBatchSize(g, size)
		_, _, err := CollectBatchesGoverned(g, gov, size)
		if !errors.Is(err, qerr.ErrCanceled) {
			t.Fatalf("batch=%d: want qerr.ErrCanceled, got %v", size, err)
		}
		for i := 0; ; i++ {
			if runtime.NumGoroutine() <= before {
				break
			}
			if i >= 100 {
				t.Fatalf("batch=%d: goroutines leaked: before=%d after=%d", size, before, runtime.NumGoroutine())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestParallelBuildBudget proves the shared buffered-row budget is
// enforced across build workers while they drain, and fully released on
// Close. Each worker reserves its batch as it takes it, so the high-water
// mark of a failing build passes the budget by at most one batch per
// worker — a batch never spans a morsel — not by the build side.
func TestParallelBuildBudget(t *testing.T) {
	const budget, workers, morsel = 10, 4, 8
	fact, dim := parTables(t, 3000)
	j := buildJoin(t, fact, dim, workers, morsel)
	gov := NewGovernor(context.Background(), Limits{MaxBufferedRows: budget})
	Attach(j, gov)
	if err := j.Open(); !errors.Is(err, qerr.ErrBudgetExceeded) {
		t.Fatalf("want qerr.ErrBudgetExceeded, got %v", err)
	}
	if peak := gov.BufferedPeak(); peak > budget+workers*morsel {
		t.Errorf("buffered peak %d during a failing build, want at most %d", peak, budget+workers*morsel)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := gov.Buffered(); got != 0 {
		t.Fatalf("budget not released after Close: %d rows still charged", got)
	}
}

// A join on no keys is the same operator as a join on some: split under
// a Gather, over sharded leaves and a parallel build, it gives the serial
// nested loop row for row; what it reserves is its right side, one row of
// budget too few fails it, and either way Close gives everything back.
func TestKeylessJoinUnderGather(t *testing.T) {
	fact, dim := parTables(t, 400)
	want := nestedLoop(fact, dim, func(l, r []value.Value) bool { return true })
	for _, shards := range []int{1, 3} {
		for _, batch := range []int{1, 7} {
			for _, budget := range []int64{0, int64(dim.Len()) - 1} {
				left, right := NewScan(fact, "f"), NewScan(dim, "d")
				if shards > 1 {
					left.Sharded = storage.NewShardedTable(fact, shards)
					right.Sharded = storage.NewShardedTable(dim, shards)
				}
				j := crossJoin(t, left, right)
				j.Parallelism = 4
				setMorselSize(t, 8)
				g := NewGather(j, 4)
				Instrument(g)
				SetBatchSize(g, batch)
				gov := NewGovernor(context.Background(), Limits{MaxBufferedRows: budget})
				Attach(g, gov)
				label := fmt.Sprintf("shards=%d batch=%d budget=%d", shards, batch, budget)
				rows, _, err := CollectBatchesGoverned(g, gov, batch)
				if budget > 0 {
					if !errors.Is(err, qerr.ErrBudgetExceeded) {
						t.Fatalf("%s: err = %v, want qerr.ErrBudgetExceeded", label, err)
					}
				} else {
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					requireSameRows(t, want, rows)
					if err := CheckConservation(g); err != nil {
						t.Errorf("%s: %v", label, err)
					}
					if peak := gov.BufferedPeak(); peak != int64(dim.Len()) {
						t.Errorf("%s: buffered peak = %d, want the right side's %d rows", label, peak, dim.Len())
					}
				}
				if err := g.Close(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got := gov.Buffered(); got != 0 {
					t.Errorf("%s: %d rows still reserved after Close", label, got)
				}
			}
		}
	}
}

// Attach runs once per query and, on the ladder, once per candidate
// world: walking the tree must not allocate.
func TestAttachDoesNotAllocate(t *testing.T) {
	fact, dim := parTables(t, 10)
	var root Operator = NewScan(fact, "f")
	for i := 0; i < 3; i++ {
		d := fmt.Sprintf("d%d", i)
		root = mustOp[*HashJoin](t)(NewHashJoin(root, NewScan(dim, d), exprs(colRef("f", "k")), exprs(colRef(d, "k"))))
	}
	gov := NewGovernor(context.Background(), Limits{})
	if n := testing.AllocsPerRun(100, func() { Attach(root, gov) }); n != 0 {
		t.Errorf("Attach over a three-join tree: %v allocations per run, want 0", n)
	}
}

func TestGatherExplain(t *testing.T) {
	fact, _ := parTables(t, 100)
	g := NewGather(scanFilterProject(t, fact), 8)
	out := Explain(g)
	if want := "Gather[n=8]"; !strings.Contains(out, want) {
		t.Fatalf("Explain missing %q:\n%s", want, out)
	}
	if !strings.Contains(out, "Scan(fact") {
		t.Fatalf("Explain should show the template pipeline:\n%s", out)
	}
}
