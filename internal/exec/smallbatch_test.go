package exec_test

import (
	"fmt"
	"testing"

	"conquer/internal/bench"
	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/exec"
	"conquer/internal/sqlparse"
	"conquer/internal/value"
)

// fig8Workload is the Figure 8 instance (sf = 1, if = 3) the root
// package's determinism suite runs, with its seed, and the thirteen query
// pairs over it.
func fig8Workload(t testing.TB) (*dirty.DB, []bench.QueryPair) {
	t.Helper()
	d, err := bench.GenerateWorkload(1, 3, bench.DefaultScale, 20060403)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := bench.PreparePairs()
	if err != nil {
		t.Fatal(err)
	}
	return d, pairs
}

type form struct {
	name string
	stmt *sqlparse.SelectStmt
}

func forms(p bench.QueryPair) []form {
	return []form{{"original", p.Original}, {"rewritten", p.Rewritten}}
}

// TestSmallBatchesMatchTheDefault runs the thirteen evaluation query pairs
// serially at 1 and 7 rows per batch, sizes that put a batch boundary
// inside every morsel, fan-out and group, and requires every cell to equal
// the default size's, floats bit for bit: a serial fold adds the same rows
// in the same order at every size. Recycled row storage is poisoned for
// every test of the package (recycle_test.go), so a row kept past the
// batch that carried it shows here too. The default size itself is held
// to the frozen answers of the retired row path by the root package's
// TestExecutionMatchesRowPathGolden (DESIGN.md §15).
func TestSmallBatchesMatchTheDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	d, pairs := fig8Workload(t)
	eng := engine.NewWithOptions(d.Store, engine.Options{Parallelism: 1})
	want := map[string]*engine.Result{}
	for _, p := range pairs {
		for _, f := range forms(p) {
			res, err := eng.QueryStmt(f.stmt)
			if err != nil {
				t.Fatalf("Q%d %s: %v", p.Number, f.name, err)
			}
			want[fmt.Sprintf("Q%d %s", p.Number, f.name)] = res
		}
	}
	for _, bs := range []int{1, 7} {
		exec.UseBatchSize(t, bs)
		for _, p := range pairs {
			for _, f := range forms(p) {
				key := fmt.Sprintf("Q%d %s", p.Number, f.name)
				got, err := eng.QueryStmt(f.stmt)
				if err != nil {
					t.Fatalf("%s batch=%d: %v", key, bs, err)
				}
				w := want[key]
				if len(got.Rows) != len(w.Rows) {
					t.Fatalf("%s batch=%d: %d rows, the default size gives %d", key, bs, len(got.Rows), len(w.Rows))
				}
				for i, row := range got.Rows {
					if !value.RowsIdentical(w.Rows[i], row) {
						t.Fatalf("%s batch=%d: row %d is %v, the default size gives %v", key, bs, i, row, w.Rows[i])
					}
				}
			}
		}
	}
}

// BenchmarkBatchSize sweeps rows-per-batch on Figure 8 Query 9 (the
// heaviest pair of the workload), original and rewritten, serially, at
// 64/256/1024/4096 rows per batch. Results are identical at every size;
// the plateau from 256 up is what pins DefaultBatchSize. Run it with
//
//	go test -run xxx -bench BatchSize -benchmem ./internal/exec
func BenchmarkBatchSize(b *testing.B) {
	d, pairs := fig8Workload(b)
	var q9 bench.QueryPair
	for _, p := range pairs {
		if p.Number == 9 {
			q9 = p
		}
	}
	if q9.Original == nil {
		b.Fatal("query 9 missing from bench.PreparePairs()")
	}
	eng := engine.NewWithOptions(d.Store, engine.Options{Parallelism: 1})
	for _, f := range forms(q9) {
		for _, n := range []int{64, 256, exec.DefaultBatchSize, 4096} {
			b.Run(fmt.Sprintf("%s/batch=%d", f.name, n), func(b *testing.B) {
				exec.UseBatchSize(b, n)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := eng.QueryStmt(f.stmt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
