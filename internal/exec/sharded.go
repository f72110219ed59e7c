// Cluster-sharded execution (DESIGN.md §14).
//
// A ShardView hands the executor a cluster-partitioned view of a base
// table. splitPipeline turns a Scan carrying one into per-shard morsel
// cursors: each worker is homed on a shard (workers are allotted to
// shards proportionally to their morsel counts) and claims morsels from
// it until it runs dry, then rebalances onto the shard with the most
// unclaimed morsels. Because Dfn 2 makes duplicate clusters independent
// worlds, hash-partitioning rows by cluster id never splits a cluster
// across shards, and the order-preserving Gather reassembles the
// interleaved per-shard streams back into exact base-table row order by
// the per-row ordinals the shards carry.
package exec

import (
	"fmt"
	"sort"
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

// shardGroup is the shared claim state of one sharded scan: a morsel
// cursor per shard plus the per-shard counters EXPLAIN ANALYZE and the
// skew balancer feed on. Morsel ids are offset per shard so they stay
// globally unique across the group.
type shardGroup struct {
	shards     []*storage.Shard
	cursors    []*morselCursor
	morselBase []int
	rows       []atomic.Int64 // rows claimed per shard
	claims     []atomic.Int64 // morsels claimed per shard
	buffered   []atomic.Int64 // buffered-row reservations attributed per home shard
	rebalances atomic.Int64   // times a worker moved off its current shard
}

func newShardGroup(view ShardView, morselSize int) *shardGroup {
	shards := view.Shards()
	g := &shardGroup{
		shards:     shards,
		cursors:    make([]*morselCursor, len(shards)),
		morselBase: make([]int, len(shards)),
		rows:       make([]atomic.Int64, len(shards)),
		claims:     make([]atomic.Int64, len(shards)),
		buffered:   make([]atomic.Int64, len(shards)),
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

// homes allots n workers to shards proportionally to their morsel
// counts (largest remainder), so initial placement already tracks the
// skew the per-shard row counts imply; stealing corrects the rest.
func (g *shardGroup) homes(n int) []int {
	total := g.totalMorsels()
	homes := make([]int, 0, n)
	if total == 0 {
		for i := 0; i < n; i++ {
			homes = append(homes, 0)
		}
		return homes
	}
	type rem struct {
		shard int
		frac  int // n*morsels mod total, the largest-remainder key
	}
	quota := make([]int, len(g.cursors))
	rems := make([]rem, len(g.cursors))
	used := 0
	for i, c := range g.cursors {
		m := c.morsels()
		quota[i] = n * m / total
		used += quota[i]
		rems[i] = rem{shard: i, frac: n * m % total}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; used < n; i = (i + 1) % len(rems) {
		if rems[i].frac == 0 && g.cursors[rems[i].shard].morsels() == 0 {
			continue
		}
		quota[rems[i].shard]++
		used++
	}
	for s, q := range quota {
		for i := 0; i < q; i++ {
			homes = append(homes, s)
		}
	}
	return homes
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
	var b strings.Builder
	b.WriteString(" shards=[")
	for s := range g.shards {
		if s > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "s%d:%dr/%dm", s, g.rows[s].Load(), g.claims[s].Load())
	}
	fmt.Fprintf(&b, "] skew=%.2f rebalances=%d", g.skew(), g.rebalances.Load())
	return b.String()
}

// skew returns max/mean of the per-shard claimed row counts (1.0 means
// perfectly balanced; 0 rows total also reports 1.0).
func (g *shardGroup) skew() float64 {
	var total, maxRows int64
	for s := range g.rows {
		r := g.rows[s].Load()
		total += r
		if r > maxRows {
			maxRows = r
		}
	}
	if total == 0 || len(g.rows) == 0 {
		return 1
	}
	mean := float64(total) / float64(len(g.rows))
	return float64(maxRows) / mean
}

// ShardStat is one shard's counters from an executed sharded scan.
type ShardStat struct {
	Shard    int
	Rows     int64 // rows this shard's morsels contributed
	Claims   int64 // morsels claimed from this shard
	Buffered int64 // buffered-row reservations attributed to workers homed here
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
			Shard:    s,
			Rows:     g.rows[s].Load(),
			Claims:   g.claims[s].Load(),
			Buffered: g.buffered[s].Load(),
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

// splitShardedScan is splitPipeline's leaf case for a sharded scan: one
// shared shardGroup, n MorselScans homed per the proportional
// allotment.
func splitShardedScan(op *Scan, n, morselSize int) ([]Operator, []*MorselScan, bool) {
	grp := newShardGroup(op.Sharded, morselSizeOr(morselSize))
	op.lastGroup = grp
	if m := grp.totalMorsels(); m > 0 && m < n {
		n = m
	}
	if n < 1 {
		n = 1
	}
	homes := grp.homes(n)
	parts := make([]Operator, n)
	leaves := make([]*MorselScan, n)
	for i := range parts {
		sh := grp.shards[homes[i]]
		ms := &MorselScan{
			Table: sh.Table, Alias: op.Alias, schema: op.schema,
			group: grp, home: homes[i], src: homes[i], ords: sh.Ords,
		}
		ms.stats = op.stats
		parts[i], leaves[i] = ms, ms
	}
	return parts, leaves, true
}
