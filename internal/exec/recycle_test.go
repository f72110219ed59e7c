package exec

import (
	"errors"
	"fmt"
	"testing"

	"conquer/internal/qerr"
	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// Every test of this package runs with recycled storage poisoned: a
// consumer that keeps a row of a batch it declared transient reads the
// sentinel string, not a plausible later row.
func init() { poisonRecycled = true }

// recycleTables are the inputs of the row-lifetime table test: l's four
// joining rows each match nine rows of r (more than the largest batch size
// under test, so one probe row's matches span output batches), one l row
// has a NULL key and one matches nothing; d gives the copying joins above
// the producer a second fan-out of two.
func recycleTables(t testing.TB) (l, r, d *storage.Table) {
	t.Helper()
	l = storage.NewTable(schema.MustRelation("l",
		schema.Column{Name: "id", Type: value.KindInt},
		schema.Column{Name: "k", Type: value.KindInt},
		schema.Column{Name: "tag", Type: value.KindString},
	))
	for i, k := range []value.Value{value.Int(0), value.Int(1), value.Null(), value.Int(2), value.Int(0), value.Int(5)} {
		l.MustInsert(value.Int(int64(i)), k, value.Str(fmt.Sprintf("tag%d", i)))
	}
	r = storage.NewTable(schema.MustRelation("r",
		schema.Column{Name: "k", Type: value.KindInt},
		schema.Column{Name: "seq", Type: value.KindInt},
		schema.Column{Name: "name", Type: value.KindString},
	))
	for i := 0; i < 27; i++ {
		r.MustInsert(value.Int(int64(i%3)), value.Int(int64(i)), value.Str(fmt.Sprintf("name%02d", i%4)))
	}
	d = storage.NewTable(schema.MustRelation("d",
		schema.Column{Name: "id", Type: value.KindInt},
		schema.Column{Name: "label", Type: value.KindString},
	))
	for i := 0; i < 12; i++ {
		d.MustInsert(value.Int(int64(i%6)), value.Str(fmt.Sprintf("label%02d", i)))
	}
	return l, r, d
}

// crossJoin is the join on no keys: every left row with every right row.
func crossJoin(t testing.TB, left, right Operator) *HashJoin {
	t.Helper()
	return mustOp[*HashJoin](t)(NewHashJoin(left, right, nil, nil, nil))
}

func mustOp[T Operator](t testing.TB) func(T, error) T {
	return func(op T, err error) T {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
}

// TestRowLifetime puts each producer that reuses its output storage — the
// join, keyed and keyless, at a fan-out above the batch size, and Project — directly
// under each consumer: the ones that keep row references (and so must pull
// through a plain batch), the ones that copy (and pull through a transient
// one), and the ones that forward their own consumer's batch. Every
// combination at 1, 2 and 7 rows per batch, recycled blocks poisoned, must
// give the rows of the same tree at the default batch size with poisoning
// off: there each operator's whole output is one batch, nothing is carved
// after a rewind, and so no storage is ever handed out twice — today's
// plain-batch behaviour.
func TestRowLifetime(t *testing.T) {
	setMorselSize(t, 2)
	l, r, d := recycleTables(t)
	lid, lk := colRef("l", "id"), colRef("l", "k")
	keys := func(e sqlparse.Expr) []sqlparse.Expr { return []sqlparse.Expr{e} }
	hash := func() Operator {
		return mustOp[*HashJoin](t)(NewHashJoin(NewScan(l, "l"), NewScan(r, "r"), keys(lk), keys(colRef("r", "k")), nil))
	}
	// Every producer's output has l.id, r.seq and r.name, so one set of
	// consumers fits them all.
	producers := []struct {
		name string
		make func() Operator
	}{
		{"HashJoin", hash},
		{"CrossJoin", func() Operator { return crossJoin(t, NewScan(l, "l"), NewScan(r, "r")) }},
		{"Project", func() Operator {
			return mustOp[*Project](t)(NewProject(hash(), []ProjectionCol{
				{Expr: colRef("r", "name"), Col: ColInfo{Qualifier: "r", Name: "name", Type: value.KindString}},
				{Expr: expr(t, "l.id + 0"), Col: ColInfo{Qualifier: "l", Name: "id", Type: value.KindInt}},
				{Expr: colRef("r", "seq"), Col: ColInfo{Qualifier: "r", Name: "seq", Type: value.KindInt}},
			}))
		}},
	}
	byNameDesc := func(c Operator) []SortKey { return []SortKey{SortKeyExpr(colRef("r", "name"), true)} }
	agg := func(c Operator) Operator {
		return mustOp[*HashAggregate](t)(NewHashAggregate(c, keys(colRef("r", "name")),
			[]ColInfo{{Name: "name", Type: value.KindString}},
			[]AggSpec{
				{Func: AggCount, Col: ColInfo{Name: "n", Type: value.KindInt}},
				{Func: AggSum, Arg: colRef("r", "seq"), Col: ColInfo{Name: "s", Type: value.KindInt}},
				{Func: AggMin, Arg: colRef("r", "name"), Col: ColInfo{Name: "mn", Type: value.KindString}},
				{Func: AggMax, Arg: lid, Col: ColInfo{Name: "mx", Type: value.KindInt}},
			}))
	}
	build := func(c Operator) Operator {
		return mustOp[*HashJoin](t)(NewHashJoin(NewScan(d, "d"), c, keys(colRef("d", "id")), keys(lid), nil))
	}
	filter := func(c Operator) Operator { return mustOp[*Filter](t)(NewFilter(c, expr(t, "r.seq <> 4"))) }
	consumers := []struct {
		name string
		n    int // the run's worker count
		wrap func(Operator) Operator
	}{
		// Retainers.
		{"collector", 1, func(c Operator) Operator { return c }},
		{"Sort", 1, func(c Operator) Operator { return mustOp[*Sort](t)(NewSort(c, byNameDesc(c))) }},
		{"TopN", 1, func(c Operator) Operator { return mustOp[*Sort](t)(newTopN(c, byNameDesc(c), 11)) }},
		{"Distinct", 1, func(c Operator) Operator { return NewDistinct(c) }},
		{"parallel Gather", 3, func(c Operator) Operator { return NewGather(c) }},
		{"join build", 1, build},
		{"parallel join build", 3, build},
		{"cross join right", 1, func(c Operator) Operator { return crossJoin(t, NewScan(d, "d"), c) }},
		// Copiers.
		{"HashJoin probe", 1, func(c Operator) Operator {
			return mustOp[*HashJoin](t)(NewHashJoin(c, NewScan(d, "d"), keys(lid), keys(colRef("d", "id")), nil))
		}},
		{"CrossJoin left", 1, func(c Operator) Operator { return crossJoin(t, c, NewScan(d, "d")) }},
		{"Project", 1, func(c Operator) Operator {
			return mustOp[*Project](t)(NewProject(c, []ProjectionCol{
				{Expr: colRef("r", "name"), Col: ColInfo{Name: "name", Type: value.KindString}},
				{Expr: expr(t, "l.id * 100 + r.seq"), Col: ColInfo{Name: "x", Type: value.KindInt}},
			}))
		}},
		{"HashAggregate", 1, agg},
		{"parallel HashAggregate", 3, agg},
		// Forwarders, under a retainer and under a copier.
		{"Sort over Filter", 1, func(c Operator) Operator { return mustOp[*Sort](t)(NewSort(filter(c), byNameDesc(c))) }},
		{"Sort over Limit", 1, func(c Operator) Operator { return mustOp[*Sort](t)(NewSort(NewLimit(c, 20), byNameDesc(c))) }},
		{"HashAggregate over Filter", 1, func(c Operator) Operator { return agg(filter(c)) }},
		{"HashAggregate over Limit", 1, func(c Operator) Operator { return agg(NewLimit(c, 20)) }},
		// A Gather on one worker (serial: its child is the one part of its
		// split), a retainer like the parallel one, under a retainer and
		// under a copier.
		{"Sort over serial Gather", 1, func(c Operator) Operator { return mustOp[*Sort](t)(NewSort(NewGather(c), byNameDesc(c))) }},
		{"HashAggregate over serial Gather", 1, func(c Operator) Operator { return agg(NewGather(c)) }},
		// Two producers stacked, as in a join tree.
		{"HashAggregate over Project over HashJoin probe", 1, func(c Operator) Operator {
			j := mustOp[*HashJoin](t)(NewHashJoin(c, NewScan(d, "d"), keys(lid), keys(colRef("d", "id")), nil))
			p := mustOp[*Project](t)(NewProject(j, []ProjectionCol{
				{Expr: colRef("d", "label"), Col: ColInfo{Qualifier: "r", Name: "name", Type: value.KindString}},
				{Expr: lid, Col: ColInfo{Qualifier: "l", Name: "id", Type: value.KindInt}},
				{Expr: colRef("r", "seq"), Col: ColInfo{Qualifier: "r", Name: "seq", Type: value.KindInt}},
			}))
			return agg(p)
		}},
	}

	plain := func(op Operator, n int) [][]value.Value {
		poisonRecycled = false
		defer func() { poisonRecycled = true }()
		return collectBatches(t, op, n, 0)
	}
	// Anchor the reference itself once, on the nested loop.
	want := nestedLoop(l, r, func(lr, rr []value.Value) bool { return value.Equal(lr[1], rr[0]) })
	if len(want) != 4*9 {
		t.Fatalf("nested loop: %d rows", len(want))
	}
	requireSameRows(t, want, plain(hash(), 1))

	for _, p := range producers {
		for _, c := range consumers {
			want := plain(c.wrap(p.make()), c.n)
			if len(want) == 0 {
				t.Fatalf("%s under %s: empty reference", p.name, c.name)
			}
			for _, size := range []int{1, 2, 7} {
				t.Run(fmt.Sprintf("%s under %s/batch=%d", p.name, c.name, size), func(t *testing.T) {
					requireSameRows(t, want, collectBatches(t, c.wrap(p.make()), c.n, size))
				})
			}
		}
	}
}

// A transient batch is refilled in place and a plain one never is: the
// same join, pulled both ways, with the first batch's rows checked after
// the second has been filled.
func TestTransientBatchReusesStorage(t *testing.T) {
	l, r, _ := recycleTables(t)
	for _, transient := range []bool{false, true} {
		j, err := NewHashJoin(NewScan(l, "l"), NewScan(r, "r"),
			[]sqlparse.Expr{colRef("l", "k")}, []sqlparse.Expr{colRef("r", "k")}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBatch(16)
		if transient {
			b = NewTransientBatch(16)
		}
		govern(j)
		if err := j.Open(); err != nil {
			t.Fatal(err)
		}
		if err := j.NextBatch(b); err != nil || b.Len() != 16 {
			t.Fatalf("first batch: %d rows, %v", b.Len(), err)
		}
		first := b.Row(0)
		kept := append([]value.Value(nil), first...)
		if err := j.NextBatch(b); err != nil || b.Len() != 16 {
			t.Fatalf("second batch: %d rows, %v", b.Len(), err)
		}
		if same := value.RowsIdentical(first, kept); same == transient {
			t.Errorf("transient=%v: first batch's row 0 unchanged after the second fill = %v", transient, same)
		}
		if transient && &first[0] != &b.Row(0)[0] {
			t.Error("a transient batch's second fill did not start where its first did")
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Distinct forwards its consumer's batch to its child and keeps the
// surviving rows, so under a copying consumer it would keep rows about to
// be overwritten. The planner never builds that shape; the operator
// refuses it rather than trusting the planner.
func TestDistinctRefusesTransientBatch(t *testing.T) {
	l, r, _ := recycleTables(t)
	j, err := NewHashJoin(NewScan(l, "l"), NewScan(r, "r"),
		[]sqlparse.Expr{colRef("l", "k")}, []sqlparse.Expr{colRef("r", "k")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProject(NewDistinct(j), []ProjectionCol{
		{Expr: colRef("r", "name"), Col: ColInfo{Name: "name", Type: value.KindString}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := collect(p); !errors.Is(err, qerr.ErrInternal) {
		t.Fatalf("Distinct under Project: err = %v, want an internal error", err)
	}
	// Above the Project it is handed the collector's plain batch.
	p, err = NewProject(j, []ProjectionCol{
		{Expr: colRef("r", "name"), Col: ColInfo{Name: "name", Type: value.KindString}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := collectBatches(t, NewDistinct(p), 1, 7)
	if len(rows) != 4 {
		t.Fatalf("distinct names: %v", rows)
	}
}
