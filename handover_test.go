package conquer

import (
	"context"
	"fmt"
	"testing"

	"conquer/internal/bench"
	"conquer/internal/engine"
	"conquer/internal/sqlparse"
	"conquer/internal/value"
)

// A materialized operator hands its finished row vector to its consumer
// (DESIGN.md §15, "Hand-over"), and the vector is never written again by
// the operator that built it: every Open builds a fresh one. With recycled
// storage poisoned, and on Gathers that run parallel, sharded or not:
//   - a result a Prepared — the plan tier's entry — returned stays
//     byte-identical after the same tree is opened and run again;
//   - a materialized root that outputs nothing still returns nil Rows;
//   - a keyless join under a Gather, whose probe keys are refilled in one
//     slab, still joins every pair: its empty key vectors are not nil.
func TestHandedOverRowsOutliveTheirTree(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	poisonRecycledRows(t)
	d := determinismWorkload(t)
	pairs, err := bench.PreparePairs()
	if err != nil {
		t.Fatal(err)
	}
	var q9 *sqlparse.SelectStmt
	for _, p := range pairs {
		if p.Number == 9 {
			q9 = p.Original // ORDER BY over a parallel Gather: Sort takes the Gather's vector
		}
	}
	if q9 == nil {
		t.Fatal("no Q9 in prepared pairs")
	}
	parse := func(sql string) *sqlparse.SelectStmt {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return stmt
	}
	empty := []*sqlparse.SelectStmt{
		parse("select l.l_orderkey from lineitem l where l.l_quantity < 0 order by l.l_orderkey"),
		parse("select l.l_orderkey, count(*) from lineitem l where l.l_quantity < 0 group by l.l_orderkey order by l.l_orderkey"),
	}
	cross := parse("select r.r_name, l.l_orderkey from region r, lineitem l where l.l_quantity > 48")
	serial, err := engine.NewWithOptions(d.Store, engine.Options{Parallelism: 1, Shards: 1}).QueryStmt(cross)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) < 2*1024 {
		t.Fatalf("the cross join has %d rows: too few to span morsels", len(serial.Rows))
	}
	for _, shards := range []int{1, 2} {
		label := fmt.Sprintf("parallelism 4, shards %d", shards)
		eng := engine.NewWithOptions(d.Store, engine.Options{Parallelism: 4, Shards: shards})
		prep, err := eng.Prepare(q9)
		if err != nil {
			t.Fatal(err)
		}
		first, err := prep.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(first.Rows) < 2*1024 {
			t.Fatalf("%s: Q9 has %d rows: too few to span morsels", label, len(first.Rows))
		}
		kept := make([][]value.Value, len(first.Rows))
		for i, row := range first.Rows {
			kept[i] = append([]value.Value(nil), row...)
		}
		second, err := prep.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if &first.Rows[0] == &second.Rows[0] {
			t.Errorf("%s: two runs of one tree returned one vector", label)
		}
		for i := range kept {
			if !value.RowsIdentical(kept[i], first.Rows[i]) || !value.RowsIdentical(kept[i], second.Rows[i]) {
				t.Fatalf("%s: row %d was %v, reads %v after a second run, which returned %v",
					label, i, kept[i], first.Rows[i], second.Rows[i])
			}
		}
		for _, stmt := range empty {
			res, err := eng.QueryStmt(stmt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows != nil {
				t.Errorf("%s: %s: rows %#v, want nil", label, stmt.SQL(), res.Rows)
			}
		}
		res, err := eng.QueryStmt(cross)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, label+": cross join", serial, res)
	}
}
