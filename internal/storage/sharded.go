package storage

import (
	"hash/fnv"
	"sync"

	"conquer/internal/value"
)

// Shard is one partition of a ShardedTable: a plain Table holding a
// subset of the base table's rows (the row slices are shared, not
// copied) plus the base-table ordinal of each shard row. The ordinals
// let the executor reconstruct the base table's serial row order after
// scatter/gather, which is what keeps sharded results byte-identical
// to unsharded execution.
type Shard struct {
	Table *Table
	Ords  []int64
}

// shardOf returns the shard index for a cluster identifier. The hash is
// FNV-1a over the identifier's textual form, so the same cluster always
// lands on the same shard — the property that makes cluster-partitioned
// execution semantically free under Dfn 2 (a tuple's clean-answer
// probability depends only on its own cluster, and a cluster is never
// split across shards).
func shardOf(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(n))
}

// ShardedTable is an N-way partitioned view of a base Table. Dirty
// tables (those with an identifier column) are hash-partitioned by
// cluster id via shardOf; clean tables are block-partitioned into N
// contiguous ranges. Each shard is backed by an ordinary Table sharing
// the base's row slices and fault injector, so per-shard scans go
// through the same seams as unsharded ones.
//
// The view is lazily (re)built: Shards() compares the base table's
// mutation counter against the version the partitions were built from
// and rebuilds when the base has moved. Table.Sharded hands out the one
// view a table keeps per shard count, so every engine over the table
// shares its partitions.
type ShardedTable struct {
	base *Table
	n    int

	mu          sync.Mutex
	shards      []*Shard
	baseVersion int64
}

// NewShardedTable creates an N-way sharded view of base. n < 1 is
// treated as 1. The partitions are built on first use.
func NewShardedTable(base *Table, n int) *ShardedTable {
	if n < 1 {
		n = 1
	}
	return &ShardedTable{base: base, n: n}
}

// Base returns the underlying table.
func (st *ShardedTable) Base() *Table { return st.base }

// NumShards returns the shard count N.
func (st *ShardedTable) NumShards() int { return st.n }

// Shards returns the current partitions, rebuilding them first if the
// base table has been mutated since they were last built. The rebuild
// cannot fail — partitioning is a pure function of the rows — so the
// call is infallible, which lets the executor consume the view inside
// seams that have no error return.
func (st *ShardedTable) Shards() []*Shard {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.shards == nil || st.baseVersion != st.base.Version() {
		st.rebuild()
	}
	return st.shards
}

// rebuild recomputes the partitions from the base table's current rows.
// Callers must hold st.mu. The partitions live as long as the table, so
// they are sized exactly: one pass assigns every row its shard and counts,
// one fills, and a view retains a row header and an ordinal per row with
// no slack.
func (st *ShardedTable) rebuild() {
	rows := st.base.rows
	assign := make([]int32, len(rows)) // row ordinal -> shard
	counts := make([]int, st.n)
	if idIdx := st.base.Schema.IdentifierIndex(); idIdx >= 0 {
		for i, row := range rows {
			s := shardOf(row[idIdx].String(), st.n)
			assign[i] = int32(s)
			counts[s]++
		}
	} else {
		// Clean tables carry no cluster structure; block-partition so
		// each shard scans a contiguous ordinal range.
		for s := range counts {
			lo, hi := s*len(rows)/st.n, (s+1)*len(rows)/st.n
			for i := lo; i < hi; i++ {
				assign[i] = int32(s)
			}
			counts[s] = hi - lo
		}
	}
	shards := make([]*Shard, st.n)
	for s, c := range counts {
		tb := NewTable(st.base.Schema)
		tb.inj = st.base.inj
		tb.rows = make([][]value.Value, 0, c)
		shards[s] = &Shard{Table: tb, Ords: make([]int64, 0, c)}
	}
	for i, s := range assign {
		sh := shards[s]
		sh.Table.rows = append(sh.Table.rows, rows[i])
		sh.Ords = append(sh.Ords, int64(i))
	}
	st.shards = shards
	st.baseVersion = st.base.Version()
}
