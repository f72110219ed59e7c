package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"conquer/internal/schema"
	"conquer/internal/value"
)

// dirtyTable builds a dirty table of rows tuples over clusters cluster
// identifiers.
func dirtyTable(t testing.TB, db *DB, name string, rows, clusters int) *Table {
	t.Helper()
	rel := schema.MustRelation(name,
		schema.Column{Name: "k", Type: value.KindInt},
		schema.Column{Name: "id", Type: value.KindString},
		schema.Column{Name: "prob", Type: value.KindFloat},
	)
	if err := rel.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	tb := db.MustCreateTable(rel)
	for i := 0; i < rows; i++ {
		tb.MustInsert(value.Int(int64(i)), value.Str(fmt.Sprintf("c%d", i%clusters)), value.Float(1))
	}
	return tb
}

// viewCount is how many shard views the table holds.
func viewCount(t *Table) int {
	n := 0
	t.views.Range(func(_, _ any) bool { n++; return true })
	return n
}

// built reports the identity of the partitions a Shards() call returned:
// a rebuild allocates a new slice, a revalidated call returns the old.
func built(shards []*Shard) **Shard { return &shards[0] }

func TestShardedIsOnePerShardCount(t *testing.T) {
	tb := dirtyTable(t, NewDB(), "fact", 100, 10)
	if viewCount(tb) != 0 {
		t.Fatal("a new table must hold no view")
	}
	v4 := tb.Sharded(4)
	if tb.Sharded(4) != v4 {
		t.Fatal("Sharded(4) must return the same view every time")
	}
	if v2 := tb.Sharded(2); v2 == v4 || v2.NumShards() != 2 || v4.NumShards() != 4 || v2.Base() != tb {
		t.Fatalf("Sharded(2) = %d shards over %p, Sharded(4) = %d", v2.NumShards(), v2.Base(), v4.NumShards())
	}
	if tb.Sharded(0) != tb.Sharded(1) || tb.Sharded(-3).NumShards() != 1 {
		t.Fatal("shard counts below 1 are the 1-way view")
	}
	if viewCount(tb) != 3 {
		t.Fatalf("%d views held, want 3 (one per shard count in use)", viewCount(tb))
	}
	if v := tb.Version(); v != 100 {
		t.Fatalf("building views moved the table version to %d", v)
	}

	// Many goroutines asking at once all get the one view.
	const workers = 16
	got := make([]*ShardedTable, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = tb.Sharded(7)
			got[w].Shards()
		}()
	}
	wg.Wait()
	for w, v := range got {
		if v != got[0] {
			t.Fatalf("goroutine %d got its own 7-way view", w)
		}
	}
}

func TestShardedViewRevalidatesAgainstTheTable(t *testing.T) {
	db := NewDB()
	tb := dirtyTable(t, db, "fact", 100, 10)
	view := tb.Sharded(4)
	first := built(view.Shards())
	if built(view.Shards()) != first || built(tb.Sharded(4).Shards()) != first {
		t.Fatal("an unchanged table must keep its partitions")
	}

	// One insert: exactly one rebuild, however many readers follow.
	tb.MustInsert(value.Int(100), value.Str("c3"), value.Float(1))
	second := built(view.Shards())
	if second == first {
		t.Fatal("an insert must rebuild the partitions")
	}
	for i := 0; i < 3; i++ {
		if built(tb.Sharded(4).Shards()) != second {
			t.Fatal("one insert must rebuild the partitions once")
		}
	}
	total := 0
	for _, sh := range view.Shards() {
		total += sh.Table.Len()
	}
	if total != 101 {
		t.Fatalf("rebuilt partitions hold %d rows, want 101", total)
	}

	// SetRow moves the version too.
	if err := tb.SetRow(0, tb.Row(1)); err != nil {
		t.Fatal(err)
	}
	third := built(view.Shards())
	if third == second {
		t.Fatal("SetRow must rebuild the partitions")
	}

	// An injector changes what a scan returns: the shard tables must be
	// rebuilt carrying it, and rebuilt again when it is cleared.
	boom := errors.New("boom")
	db.SetInjector(failScans{boom})
	faulted := view.Shards()
	if built(faulted) == third {
		t.Fatal("SetInjector must rebuild the partitions")
	}
	for s, sh := range faulted {
		if err := sh.Table.ScanFault(); !errors.Is(err, boom) {
			t.Fatalf("shard %d scan fault = %v, want the injected error", s, err)
		}
	}
	db.SetInjector(nil)
	for s, sh := range view.Shards() {
		if err := sh.Table.ScanFault(); err != nil {
			t.Fatalf("shard %d still faults after the injector was cleared: %v", s, err)
		}
	}
}

type failScans struct{ err error }

func (f failScans) Fail(_ string, op Op) error {
	if op == OpScan {
		return f.err
	}
	return nil
}

func TestCloneStartsWithNoView(t *testing.T) {
	db := NewDB()
	src := dirtyTable(t, db, "fact", 100, 10)
	srcView := src.Sharded(4)
	srcView.Shards()
	clone, err := db.Clone()
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := clone.Table("fact")
	if viewCount(dst) != 0 {
		t.Fatalf("a clone starts with %d views, want none", viewCount(dst))
	}
	dstView := dst.Sharded(4)
	if dstView == srcView || dstView.Base() != dst {
		t.Fatal("a clone's view must be its own, over its own rows")
	}
	// The two stay independent: mutating the clone rebuilds only its view.
	before := built(srcView.Shards())
	dst.MustInsert(value.Int(100), value.Str("c0"), value.Float(1))
	dstView.Shards()
	if built(srcView.Shards()) != before {
		t.Fatal("mutating a clone rebuilt the source's partitions")
	}
}

// TestShardPartitionsAreSizedExactly pins what a view retains: one row
// header and one ordinal per base row, no append slack, with the
// placement the executor relies on — a cluster on one shard, ordinals
// ascending within a shard, clean tables in contiguous blocks.
func TestShardPartitionsAreSizedExactly(t *testing.T) {
	db := NewDB()
	dirty := dirtyTable(t, db, "fact", 1000, 37)
	clean := db.MustCreateTable(schema.MustRelation("dim", schema.Column{Name: "k", Type: value.KindInt}))
	for i := 0; i < 1000; i++ {
		clean.MustInsert(value.Int(int64(i)))
	}
	for _, tb := range []*Table{dirty, clean} {
		for _, n := range []int{1, 3, 4, 7} {
			seen := make([]bool, tb.Len())
			shardOfCluster := map[string]int{}
			for s, sh := range tb.Sharded(n).Shards() {
				rows := sh.Table.Rows()
				if cap(rows) != len(rows) || cap(sh.Ords) != len(sh.Ords) || len(rows) != len(sh.Ords) {
					t.Fatalf("%s n=%d shard %d: rows len %d cap %d, ords len %d cap %d",
						tb.Schema.Name, n, s, len(rows), cap(rows), len(sh.Ords), cap(sh.Ords))
				}
				for i, ord := range sh.Ords {
					if i > 0 && ord <= sh.Ords[i-1] {
						t.Fatalf("%s n=%d shard %d: ordinals not ascending at %d", tb.Schema.Name, n, s, i)
					}
					if seen[ord] {
						t.Fatalf("%s n=%d: row %d placed twice", tb.Schema.Name, n, ord)
					}
					seen[ord] = true
					if &rows[i][0] != &tb.Row(int(ord))[0] {
						t.Fatalf("%s n=%d shard %d: row %d is not the base row %d", tb.Schema.Name, n, s, i, ord)
					}
					if tb == dirty {
						id := rows[i][1].AsString()
						if prev, ok := shardOfCluster[id]; ok && prev != s {
							t.Fatalf("cluster %s split across shards %d and %d", id, prev, s)
						}
						shardOfCluster[id] = s
					} else if i > 0 && ord != sh.Ords[i-1]+1 {
						t.Fatalf("clean n=%d shard %d: block not contiguous at %d", n, s, i)
					}
				}
			}
			for ord, ok := range seen {
				if !ok {
					t.Fatalf("%s n=%d: row %d placed nowhere", tb.Schema.Name, n, ord)
				}
			}
		}
	}
}
