package exec

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// goroutineSpy is an observational fault injector: it fails nothing and
// records which goroutines read rows, which is how the tests below tell a
// serial open (only the caller's goroutine) from a worker pool.
type goroutineSpy struct {
	mu  sync.Mutex
	ids map[uint64]bool
}

func goroutineID() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	return id
}

func (s *goroutineSpy) Fail(string, storage.Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ids[goroutineID()] = true
	return nil
}

// onlyCaller reports whether every observed read ran on this goroutine.
func (s *goroutineSpy) onlyCaller() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ids) == 1 && s.ids[goroutineID()]
}

// spiedFact is dirtyFact(n) inside a database whose scans the returned
// spy observes.
func spiedFact(t *testing.T, n int) (*storage.Table, *goroutineSpy) {
	t.Helper()
	src := dirtyFact(t, n)
	db := storage.NewDB()
	spy := &goroutineSpy{ids: make(map[uint64]bool)}
	db.SetInjector(spy)
	tb := db.MustCreateTable(src.Schema)
	for _, row := range src.Rows() {
		if err := tb.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	spy.ids = make(map[uint64]bool) // forget the inserts
	return tb, spy
}

// oneMorselPlans are the three consumers of split pipelines, each over a
// driving table the caller sizes: Gather over scan→filter→project, a hash
// join whose build side is the table, and a grouped aggregate over it.
// Aggregates avoid float sums, which the parallel fold associates on the
// morsel grid, not as the serial pass does.
func oneMorselPlans(t *testing.T, tb *storage.Table, morsel int) map[string]Operator {
	t.Helper()
	setMorselSize(t, morsel)
	f, err := NewFilter(NewScan(tb, "f"), expr(t, "qty < 5"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProject(f, []ProjectionCol{
		{Expr: colRef("f", "id"), Col: ColInfo{Name: "id", Type: value.KindString}},
		{Expr: colRef("f", "w"), Col: ColInfo{Name: "w", Type: value.KindFloat}},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGather(p)

	probeS := schema.MustRelation("probe", schema.Column{Name: "k", Type: value.KindInt})
	probe := storage.NewTable(probeS)
	for i := 0; i < 40; i++ {
		probe.MustInsert(value.Int(int64(i % 20)))
	}
	j, err := NewHashJoin(NewScan(probe, "p"), NewScan(tb, "d"),
		[]sqlparse.Expr{colRef("p", "k")}, []sqlparse.Expr{colRef("d", "k")})
	if err != nil {
		t.Fatal(err)
	}

	a, err := NewHashAggregate(NewScan(tb, "f"),
		[]sqlparse.Expr{colRef("f", "k")},
		[]ColInfo{{Name: "k", Type: value.KindInt}},
		[]AggSpec{
			{Func: AggCount, Col: ColInfo{Name: "n", Type: value.KindInt}},
			{Func: AggSum, Arg: colRef("f", "qty"), Col: ColInfo{Name: "sq", Type: value.KindInt}},
			{Func: AggMax, Arg: colRef("f", "w"), Col: ColInfo{Name: "mw", Type: value.KindFloat}},
		})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Operator{"gather": g, "join-build": j, "aggregate": a}
}

// runGoverned executes op instrumented and governed on n workers at batch
// rows per batch (0 = DefaultBatchSize).
func runGoverned(t *testing.T, op Operator, n, batch int) (rows [][]value.Value, peak int64) {
	t.Helper()
	Instrument(op)
	gov := governOn(op, n)
	useBatchSize(t, batch)
	rows, _, err := CollectBatchesGoverned(op, gov, batch)
	if err != nil {
		t.Fatal(err)
	}
	return rows, gov.BufferedPeak()
}

// A pipeline whose every base table holds at most one morsel opens
// serially whatever the worker count: no goroutine reads a row, and rows,
// their order, every operator's counters and the buffered peak equal the
// N=1 run. The same tables under a morsel size below their length still
// take the parallel path.
func TestOneMorselPipelinesOpenSerially(t *testing.T) {
	const rows = 200 // well under DefaultMorselSize
	for _, batch := range []int{0, 2} {
		for name := range oneMorselPlans(t, dirtyFact(t, rows), 0) {
			tb, spy := spiedFact(t, rows)
			base := oneMorselPlans(t, tb, 0)[name]
			want, wantPeak := runGoverned(t, base, 1, batch)
			wantLines := StatsTree(base)
			if len(want) == 0 {
				t.Fatalf("%s: empty baseline", name)
			}
			label := fmt.Sprintf("%s batch=%d", name, batch)

			spy.ids = make(map[uint64]bool)
			op := oneMorselPlans(t, tb, 0)[name]
			got, peak := runGoverned(t, op, 8, batch)
			requireSameRows(t, want, got)
			if peak != wantPeak {
				t.Errorf("%s: buffered peak %d, want %d", label, peak, wantPeak)
			}
			if err := CheckConservation(op); err != nil {
				t.Errorf("%s: %v", label, err)
			}
			lines := StatsTree(op)
			for i, wl := range wantLines {
				gl := lines[i]
				if gl.In != wl.In || gl.Out != wl.Out || gl.Batches != wl.Batches || gl.Buffered != wl.Buffered {
					t.Errorf("%s: operator %d counters %+v, want %+v", label, i, gl, wl)
				}
			}
			if !spy.onlyCaller() {
				t.Errorf("%s: rows were read on %d goroutines, want only the caller's", label, len(spy.ids))
			}
			if out := ExplainAnalyze(op); !strings.Contains(out, "[serial: one morsel]") || strings.Contains(out, "morsels=[") {
				t.Errorf("%s: EXPLAIN ANALYZE should report the serial open:\n%s", label, out)
			}

			// More than one morsel: the parallel path, same rows.
			spy.ids = make(map[uint64]bool)
			op = oneMorselPlans(t, tb, 32)[name]
			got, _ = runGoverned(t, op, 8, batch)
			requireSameRows(t, want, got)
			if spy.onlyCaller() {
				t.Errorf("%s: morsel size 32 over %d rows should run on workers", label, rows)
			}
			out := ExplainAnalyze(op)
			if strings.Contains(out, "[serial: one morsel]") {
				t.Errorf("%s: EXPLAIN ANALYZE reports a serial open of a split pipeline:\n%s", label, out)
			}
			if name == "gather" && !strings.Contains(out, "morsels=[w0:") {
				t.Errorf("%s: EXPLAIN ANALYZE should list worker morsels:\n%s", label, out)
			}
		}
	}
}

// The rule looks at every table the pipeline reads, not only the one that
// drives it: a small driving table probing a large build side fans out
// into work worth splitting (Figure 8's Q9 drives 314,608 result rows from
// a 222-row part table). The driving table is cut into as many morsels as
// the build side holds, three of 67 rows here, so the probes spread over
// the workers beside the build side's parallel drain.
func TestSmallDrivingTableOverLargeBuildStillSplits(t *testing.T) {
	tb, spy := spiedFact(t, 200)
	big := dirtyFact(t, 3000)
	build := func() Operator {
		j, err := NewHashJoin(NewScan(tb, "f"), NewScan(big, "d"),
			[]sqlparse.Expr{colRef("f", "k")}, []sqlparse.Expr{colRef("d", "k")})
		if err != nil {
			t.Fatal(err)
		}
		return NewGather(j)
	}
	want, _ := runGoverned(t, build(), 1, 0)
	spy.ids = make(map[uint64]bool)
	g := build()
	got, _ := runGoverned(t, g, 4, 0)
	requireSameRows(t, want, got)
	if spy.onlyCaller() {
		t.Error("a 200-row driving table over a 3000-row build side should run on workers")
	}
	if out := ExplainAnalyze(g); strings.Contains(out, "[serial: one morsel]") || !strings.Contains(out, "morsels=[w0:") {
		t.Errorf("EXPLAIN ANALYZE should show a split run:\n%s", out)
	}
	claims := g.(*Gather).workerMorsels
	claimed := int64(0)
	for _, m := range claims {
		claimed += m
	}
	if len(claims) != 3 || claimed != 3 {
		t.Errorf("workers claimed %v morsels, want three workers claiming three morsels of the 200 rows", claims)
	}
}

// A build side that is no pipeline (here a Distinct over the large table)
// has no size the split can read: the rule assumes it is large and splits,
// and the driving table keeps the plain grid, one morsel of 200 rows.
func TestOpaqueBuildSideKeepsThePlainGrid(t *testing.T) {
	tb, _ := spiedFact(t, 200)
	big := dirtyFact(t, 3000)
	build := func() *Gather {
		j, err := NewHashJoin(NewScan(tb, "f"), NewDistinct(NewScan(big, "d")),
			[]sqlparse.Expr{colRef("f", "k")}, []sqlparse.Expr{colRef("d", "k")})
		if err != nil {
			t.Fatal(err)
		}
		return NewGather(j)
	}
	want, _ := runGoverned(t, build(), 1, 0)
	g := build()
	got, _ := runGoverned(t, g, 4, 0)
	requireSameRows(t, want, got)
	if len(g.workerMorsels) != 1 || g.workerMorsels[0] != 1 {
		t.Errorf("workers claimed %v morsels, want one worker claiming the one morsel", g.workerMorsels)
	}
}

// The rule reads the table as it is when the operator opens: a table that
// grows past one morsel between two opens of the same tree goes parallel.
func TestOneMorselRuleFollowsTableSize(t *testing.T) {
	tb, spy := spiedFact(t, 50)
	g := oneMorselPlans(t, tb, 64)["gather"].(*Gather)
	first, _ := runGoverned(t, g, 4, 0)
	if !spy.onlyCaller() {
		t.Fatal("50 rows under morsel size 64 should open serially")
	}
	for _, row := range dirtyFact(t, 100).Rows() {
		if err := tb.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	spy.ids = make(map[uint64]bool)
	second, _ := runGoverned(t, g, 4, 0)
	if spy.onlyCaller() {
		t.Error("150 rows under morsel size 64 should run on workers")
	}
	if len(second) <= len(first) {
		t.Errorf("rows after growth = %d, before = %d", len(second), len(first))
	}
}
