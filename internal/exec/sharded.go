// Cluster-sharded execution (DESIGN.md §14).
//
// A ShardView hands the executor a cluster-partitioned view of a base
// table. splitPipeline turns a Scan into a group of per-shard morsel
// cursors — a scan with no view is a group of one shard, its own table —
// and worker i starts on shard i mod k, claims morsels from it until it
// runs dry, then moves to the shard with the most unclaimed morsels.
// Because Dfn 2 makes duplicate clusters independent worlds,
// hash-partitioning rows by cluster id never splits a cluster across
// shards, and the order-preserving Gather reassembles the interleaved
// per-shard streams back into exact base-table row order by the per-row
// ordinals the shards carry. Shards only schedule: they change neither
// the rows nor what a query is charged.
package exec

import (
	"fmt"
	"strings"
	"sync/atomic"

	"conquer/internal/storage"
)

// ShardView is the executor's seam onto a partitioned table. It is
// deliberately minimal — shard enumeration plus the base table — so a
// future implementation could serve shards from behind the serving
// layer's RPC boundary instead of storage.ShardedTable's in-process
// partitions (ROADMAP: sharded execution).
type ShardView interface {
	// Base returns the unpartitioned table the view was built from.
	Base() *storage.Table
	// NumShards returns the shard count N.
	NumShards() int
	// Shards returns the current partitions; implementations must make
	// this infallible (rebuild lazily, never error).
	Shards() []*storage.Shard
}

// shardGroup is the shared claim state of one split scan: a morsel
// cursor per shard plus the per-shard counters EXPLAIN ANALYZE reports.
// Morsel ids are offset per shard so they stay globally unique across
// the group.
type shardGroup struct {
	shards     []*storage.Shard
	cursors    []*morselCursor
	morselBase []int
	rows       []atomic.Int64 // rows claimed per shard
	claims     []atomic.Int64 // morsels claimed per shard
	rebalances atomic.Int64   // times a worker moved off its current shard
}

func newShardGroup(shards []*storage.Shard) *shardGroup {
	g := &shardGroup{
		shards:     shards,
		cursors:    make([]*morselCursor, len(shards)),
		morselBase: make([]int, len(shards)),
		rows:       make([]atomic.Int64, len(shards)),
		claims:     make([]atomic.Int64, len(shards)),
	}
	base := 0
	for i, sh := range shards {
		g.cursors[i] = newMorselCursor(sh.Table.Len(), morselSize)
		g.morselBase[i] = base
		base += g.cursors[i].morsels()
	}
	return g
}

// totalMorsels returns how many morsels the group will hand out.
func (g *shardGroup) totalMorsels() int {
	n := 0
	for _, c := range g.cursors {
		n += c.morsels()
	}
	return n
}

// claim hands a worker currently sourced on shard src its next morsel:
// from src while it lasts, then from the shard with the most unclaimed
// morsels (stole=true — the skew rebalance). ok=false means every
// shard is exhausted.
func (g *shardGroup) claim(src int) (nsrc, m, lo, hi int, stole, ok bool) {
	if m, lo, hi, ok := g.cursors[src].claim(); ok {
		return src, m, lo, hi, false, true
	}
	for {
		best, rem := -1, 0
		for s, c := range g.cursors {
			if s == src {
				continue
			}
			if r := c.remaining(); r > rem {
				best, rem = s, r
			}
		}
		if best < 0 {
			return src, 0, 0, 0, false, false
		}
		if m, lo, hi, ok := g.cursors[best].claim(); ok {
			return best, m, lo, hi, true, true
		}
		src = best // drained between peek and claim; rescan the rest
	}
}

// render formats the per-shard counters for EXPLAIN ANALYZE.
func (g *shardGroup) render() string {
	st := g.stat("")
	var b strings.Builder
	b.WriteString(" shards=[")
	for _, sh := range st.Shards {
		if sh.Shard > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "s%d:%dr/%dm", sh.Shard, sh.Rows, sh.Claims)
	}
	fmt.Fprintf(&b, "] skew=%.2f rebalances=%d", st.Skew(), st.Rebalances)
	return b.String()
}

// ShardStat is one shard's counters from an executed sharded scan.
type ShardStat struct {
	Shard  int
	Rows   int64 // rows this shard's morsels contributed
	Claims int64 // morsels claimed from this shard
}

// ShardGroupStat is the per-shard breakdown of one sharded scan, as
// surfaced in engine Stats, metrics and the query log.
type ShardGroupStat struct {
	Table      string
	Shards     []ShardStat
	Rebalances int64
}

// Skew returns max/mean of the per-shard row counts (1.0 = balanced).
func (s ShardGroupStat) Skew() float64 {
	var total, maxRows int64
	for _, sh := range s.Shards {
		total += sh.Rows
		if sh.Rows > maxRows {
			maxRows = sh.Rows
		}
	}
	if total == 0 || len(s.Shards) == 0 {
		return 1
	}
	return float64(maxRows) / (float64(total) / float64(len(s.Shards)))
}

func (g *shardGroup) stat(table string) ShardGroupStat {
	st := ShardGroupStat{Table: table, Rebalances: g.rebalances.Load()}
	for s := range g.shards {
		st.Shards = append(st.Shards, ShardStat{
			Shard:  s,
			Rows:   g.rows[s].Load(),
			Claims: g.claims[s].Load(),
		})
	}
	return st
}

// CollectShardStats walks an executed tree and returns the per-shard
// breakdown of every sharded scan that actually ran split.
func CollectShardStats(op Operator) []ShardGroupStat {
	var out []ShardGroupStat
	collectShardStats(op, &out)
	return out
}

func collectShardStats(op Operator, out *[]ShardGroupStat) {
	if sc, ok := op.(*Scan); ok && sc.lastGroup != nil {
		*out = append(*out, sc.lastGroup.stat(sc.Table.Schema.Name))
	}
	for _, c := range children(op) {
		if c != nil {
			collectShardStats(c, out)
		}
	}
}

// splitScan is splitPipeline's leaf case: one shared shardGroup over the
// scan's shard view, or over its table as one shard when it has none, and
// up to n MorselScans, worker i starting on shard i mod k. Only a view's
// group is kept for EXPLAIN ANALYZE and CollectShardStats.
func splitScan(op *Scan, n int) ([]Operator, []*MorselScan, bool) {
	shards := []*storage.Shard{{Table: op.Table}}
	if op.Sharded != nil {
		shards = op.Sharded.Shards()
	}
	grp := newShardGroup(shards)
	if op.Sharded != nil {
		op.lastGroup = grp
	}
	if m := grp.totalMorsels(); m > 0 && m < n {
		n = m
	}
	parts := make([]Operator, n)
	leaves := make([]*MorselScan, n)
	for i := range parts {
		ms := &MorselScan{Table: op.Table, Alias: op.Alias, schema: op.schema, group: grp, home: i % len(shards)}
		ms.stats = op.stats
		parts[i], leaves[i] = ms, ms
	}
	return parts, leaves, true
}
