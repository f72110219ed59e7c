// Morsel-driven parallel execution (see DESIGN.md §9).
//
// Base-table scans read fixed-size morsels — morsel m is rows
// [m·size, (m+1)·size) of the table, where size is morselSize or, for a
// small table probing a larger one, less (morselRows) — handed out by a
// cursor; a pipeline over such a scan (filters, projections, the probe
// side of hash joins) splits into N independent parts over one shared
// cursor, which workers drive to completion: N is the run's worker count,
// which the Governor carries, not the tree. Three operators consume the
// parts of a split:
//
//   - Gather runs N parts to completion and re-emits their rows in
//     base-table row order, so a parallel scan→filter→project plan
//     produces exactly the serial row order.
//   - HashJoin builds its hash table from the parts of its right input
//     (per-part runs merged in morsel order, as Gather merges) and can
//     itself split into probe parts sharing one build.
//   - HashAggregate aggregates each part into thread-local groups and
//     merges them in a final phase, folding each group's float sums
//     morsel by morsel in morsel order.
//
// The join build and the aggregate run a pipeline that does not split as
// the one part of its split: the template tree itself, on the same grid,
// on the caller's goroutine, so the serial pass folds what the workers
// fold. Every worker of a split runs in a qerr.Pool and polls a Governor
// it forks from its operator's under the pool's context (fresh poll
// ticker, shared budget): the first worker error (or a cancellation)
// drains the pool, and panics cross goroutine boundaries only through
// qerr.Recover.
package exec

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"conquer/internal/qerr"
	"conquer/internal/value"
)

// DefaultMorselSize is the number of base-table rows per morsel. Small
// enough that a handful of morsels exist even at this repository's
// reduced bench scales, large enough that the claim overhead (one atomic
// add) vanishes against per-row evaluation cost.
const DefaultMorselSize = 1024

// morselSize is the morsel grid split pipelines cut their tables into
// (morselRows gives the exception), and the one-morsel rule's threshold.
// It is DefaultMorselSize always, except inside this package's tests,
// which shrink it to get many morsels from small tables.
var morselSize = DefaultMorselSize

// morselCursor hands out the morsels of one base table, in table order, to
// the scans claiming them: morsel m is rows [m·size, (m+1)·size).
type morselCursor struct {
	next  atomic.Int64
	size  int
	total int
}

// claim returns the next unclaimed morsel index and row range, or
// ok=false when the table is exhausted.
func (c *morselCursor) claim() (m, lo, hi int, ok bool) {
	m = int(c.next.Add(1)) - 1
	lo = m * c.size
	if lo >= c.total {
		return 0, 0, 0, false
	}
	hi = lo + c.size
	if hi > c.total {
		hi = c.total
	}
	return m, lo, hi, true
}

// morsels returns how many morsels the cursor will hand out.
func (c *morselCursor) morsels() int {
	return (c.total + c.size - 1) / c.size
}

// rowOrd orders pipeline output rows by base-table provenance: the
// base-table ordinal of the leaf row that produced the output, plus an
// emission sequence within that leaf row (join fanout emits several
// rows per leaf row). Sorting by rowOrd reconstructs the serial
// execution order exactly, however the leaf rows' morsels were
// interleaved across workers.
type rowOrd struct {
	base int64
	seq  int64
}

// compare orders o and p three ways.
func (o rowOrd) compare(p rowOrd) int {
	if c := cmp.Compare(o.base, p.base); c != 0 {
		return c
	}
	return cmp.Compare(o.seq, p.seq)
}

// opensSplit reports whether an operator running on n workers should
// open the pipeline op split (Gather, the join build and HashAggregate
// all ask): it must have more than one worker to split across, and some
// base table it reads — the driving scan or the build side of one of its
// probe joins — must hold more than one morsel of rows. A pipeline whose
// every input fits one morsel opens serially instead of setting up a
// worker pool, forked governors and a morsel cursor around a claim or two
// (DESIGN.md §17); s, the asking operator's stats, records that for
// EXPLAIN ANALYZE.
func opensSplit(op Operator, n int, s *OpStats) bool {
	if n <= 1 || drivingScan(op) == nil {
		return false
	}
	if largestInput(op) <= morselSize {
		s.markOneMorsel()
		return false
	}
	return true
}

// largestInput returns the row count of the largest base table a
// splittable pipeline reads, probe-join build sides included.
func largestInput(op Operator) int {
	switch op := op.(type) {
	case *Scan:
		return op.Table.Len()
	case *Filter:
		return largestInput(op.Child)
	case *Project:
		return largestInput(op.Child)
	case *HashJoin:
		return max(largestInput(op.Left), largestInput(op.Right))
	}
	return math.MaxInt // not a pipeline operator: assume the worst
}

// drivingScan returns the base-table scan a splittable pipeline's morsels
// come from, or nil when op does not split.
func drivingScan(op Operator) *Scan {
	switch op := op.(type) {
	case *Scan:
		return op
	case *Filter:
		return drivingScan(op.Child)
	case *Project:
		return drivingScan(op.Child)
	case *HashJoin:
		return drivingScan(op.Left)
	}
	return nil
}

// CanSplit reports whether splitPipeline can parallelize op: a pipeline
// of filters, projections and join probes over base-table scans.
func CanSplit(op Operator) bool { return drivingScan(op) != nil }

// morselRows returns the morsel size of the split pipeline op's driving
// scan. It is morselSize, unless a probe join's build side holds more rows
// than the driving table: then the driving table is cut into as many
// morsels as the largest input holds, so that a small table probing a
// large one (TPC-H Q9's filtered part against lineitem) still spreads
// its probes, which do most of the work, over the workers. Either way the
// grid is a function of the tables' sizes and never of the worker count,
// so what it cuts — Gather's runs, the aggregate's fold units — is the
// same at every parallelism. A build side that is no pipeline has no
// known size, and leaves the grid plain.
func morselRows(op Operator) int {
	rows, largest := drivingScan(op).Table.Len(), largestInput(op)
	if rows >= largest || largest == math.MaxInt {
		return morselSize
	}
	k := (largest + morselSize - 1) / morselSize
	return max(1, (rows+k-1)/k)
}

// splitPipeline clones op into at most n independent parts over a fresh
// shared morsel cursor, on morselRows' grid. Compiled evaluators are
// shared — they are pure functions of the row — while all iteration state
// is per-part. Each clone also shares its template's OpStats pointer, so
// the counters of all workers aggregate onto the template tree that
// EXPLAIN ANALYZE renders. The returned leaves report morsel provenance
// for each part. Fewer than n parts come back when the base table has
// fewer morsels than workers. op is a pipeline drivingScan walks, as
// opensSplit has checked: its recursion is this one's.
func splitPipeline(op Operator, n int) ([]Operator, []*Scan) {
	return splitAt(op, n, morselRows(op))
}

// splitAt is splitPipeline with the driving scan's morsel size given.
func splitAt(op Operator, n, size int) ([]Operator, []*Scan) {
	switch op := op.(type) {
	case *Filter:
		children, leaves := splitAt(op.Child, n, size)
		parts := make([]Operator, len(children))
		for i, c := range children {
			f := &Filter{Child: c, Pred: op.Pred, test: op.test}
			f.stats = op.stats
			parts[i] = f
		}
		return parts, leaves

	case *Project:
		children, leaves := splitAt(op.Child, n, size)
		parts := make([]Operator, len(children))
		for i, c := range children {
			p := &Project{Child: c, schema: op.schema, evals: op.evals, passthrough: op.passthrough}
			p.stats = op.stats
			parts[i] = p
		}
		return parts, leaves

	case *HashJoin:
		children, leaves := splitAt(op.Left, n, size)
		build := newJoinBuild(op.Right, op.rk, len(children), op.stats)
		parts := make([]Operator, len(children))
		for i, c := range children {
			// Right stays nil on parts: the shared build owns the right
			// input, and leaving it reachable would make every worker's
			// Attach race on the one template operator.
			j := &HashJoin{
				Left:     c,
				LeftKeys: op.LeftKeys, RightKeys: op.RightKeys,
				joinOutput: op.joinOutput, lk: op.lk, rk: op.rk,
				build: build, part: true,
			}
			j.stats = op.stats
			parts[i] = j
		}
		return parts, leaves
	}
	return splitScan(op.(*Scan), n, size)
}

// splitScan is splitPipeline's leaf case: up to n Scans claiming the
// size-row morsels of op's table from one shared cursor.
func splitScan(op *Scan, n, size int) ([]Operator, []*Scan) {
	cur := &morselCursor{size: size, total: op.Table.Len()}
	if m := cur.morsels(); m > 0 && m < n {
		n = m
	}
	parts := make([]Operator, n)
	leaves := make([]*Scan, n)
	for i := range parts {
		s := &Scan{Table: op.Table, Alias: op.Alias, schema: op.schema, cursor: cur}
		s.stats = op.stats
		parts[i], leaves[i] = s, s
	}
	return parts, leaves
}

// split is the parts a consumer runs a pipeline as: splitPipeline's
// clones, each with the scan at its leaf, or, when parts is nil, the
// pipeline op itself, the one part of its split, whose driving scan is
// leaf (nil when op is no pipeline).
type split struct {
	parts  []Operator
	leaves []*Scan
	op     Operator
	leaf   *Scan
}

// splitFor is the split a consumer running on n workers, whose stats
// are s, runs op as: splitPipeline's when opensSplit says so, and
// otherwise op itself as the one part, its driving scan on morselRows'
// grid, so that its batches fall on the morsels a split would claim
// (DESIGN.md §9). An op that is no pipeline runs whole, as one morsel.
func splitFor(op Operator, n int, s *OpStats) split {
	if opensSplit(op, n, s) {
		parts, leaves := splitPipeline(op, n)
		return split{parts: parts, leaves: leaves}
	}
	sp := split{op: op, leaf: drivingScan(op)}
	if sp.leaf != nil {
		sp.leaf.grid = morselRows(op)
	}
	return sp
}

// A partFiller consumes the parts of a split: fillPart pulls part w,
// open, to its end under gov. leaf is the scan at the part's leaf, whose
// morsel is the one every batch the part returns comes from, or nil when
// the part is no pipeline.
type partFiller interface {
	fillPart(w int, part Operator, leaf *Scan, gov *Governor) error
}

// run opens each part of sp, has f fill from it and closes them all,
// keeping the first error: splitPipeline's clones each on a worker of a
// qerr.Pool under a fork of gov, closed after the worker barrier so that
// shared state (a join build referenced by all probe parts) is released
// exactly once, even when a worker failed before opening its part; the one
// part on the caller's goroutine under gov itself, with no clone, pool or
// fork.
func (sp *split) run(gov *Governor, f partFiller) error {
	if sp.parts == nil {
		if err := sp.op.Open(); err != nil {
			return err
		}
		err := f.fillPart(0, sp.op, sp.leaf, gov)
		if cerr := sp.op.Close(); err == nil {
			err = cerr
		}
		return err
	}
	parts, leaves := sp.parts, sp.leaves
	err := qerr.Pool(gov.Context(), len(parts), func(ctx context.Context, w int) error {
		g := gov.Fork(ctx)
		Attach(parts[w], g)
		if err := parts[w].Open(); err != nil {
			return err
		}
		return f.fillPart(w, parts[w], leaves[w], g)
	})
	for _, p := range parts {
		if cerr := p.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// pull drains op, open, under gov through b, polling once per batch and
// counting its rows into s, and hands each batch to each with its morsel:
// the morsel of leaf, op's driving scan, since a pipeline batch never
// spans one, or 0 when op is no pipeline.
func pull(op Operator, leaf *Scan, gov *Governor, b *Batch, s *OpStats, each func(b *Batch, morsel int) error) error {
	for {
		if err := gov.PollBatch(); err != nil {
			return err
		}
		if err := op.NextBatch(b); err != nil {
			return err
		}
		n := b.Len()
		if n == 0 {
			return nil
		}
		s.addIn(int64(n))
		m := 0
		if leaf != nil {
			m = leaf.morsel
		}
		if err := each(b, m); err != nil {
			return err
		}
	}
}

// slots returns a slot per part of sp: one's, when sp's one part is its
// op, so that a consumer running its pipeline as one part allocates none.
func slots[T any](one *[1]T, sp *split) []T {
	if sp.parts == nil {
		return one[:]
	}
	return make([]T, len(sp.parts))
}

// ---------------------------------------------------------------------------
// Gather
// ---------------------------------------------------------------------------

// Gather is the exchange operator: it runs a partial pipeline per worker
// of the run to completion on worker goroutines and re-emits their rows in
// base-table row order, so its output order (and content) matches the
// serial plan row-for-row. When the child cannot split (or the run has one
// worker) it degenerates to a transparent pass-through.
//
// The reassembly buffer is not charged against MaxBufferedRows: it holds
// exactly the rows the client is about to receive, which MaxOutputRows
// already governs; charging them would make a streaming query's budget
// depend on its degree of parallelism.
type Gather struct {
	Child Operator

	govHolder
	statsHolder
	serial bool
	rows   [][]value.Value
	pos    int
	outs   []runs[[]value.Value] // each worker's rows, while Open runs
	// workerMorsels[w] is how many morsels worker w claimed during the
	// last parallel Open; EXPLAIN ANALYZE reports it per worker.
	workerMorsels []int64
}

// NewGather wraps child in an exchange over the run's workers.
func NewGather(child Operator) *Gather {
	return &Gather{Child: child}
}

func (g *Gather) Schema() RowSchema { return g.Child.Schema() }

// Open splits the child and runs the partial pipelines to completion
// when opensSplit says so; the reassembly makes a split result identical
// to the serial scan at any worker count.
func (g *Gather) Open() error {
	g.stats.markOpen()
	g.rows, g.pos, g.workerMorsels = nil, 0, nil
	if n := g.workers(); opensSplit(g.Child, n, g.stats) {
		g.serial = false
		outs, err := g.runParts(splitPipeline(g.Child, n))
		if err == nil {
			g.rows, err = mergeRuns(outs, g.gov)
		}
		return err
	}
	g.serial = true
	return g.Child.Open()
}

// runParts drives the parts to completion on workers and closes them;
// worker w collects its rows into outs[w], in runs tagged by the morsel
// that produced them.
func (g *Gather) runParts(parts []Operator, leaves []*Scan) ([]runs[[]value.Value], error) {
	g.outs = make([]runs[[]value.Value], len(parts))
	sp := split{parts: parts, leaves: leaves}
	err := sp.run(g.gov, g)
	outs := g.outs
	g.outs = nil
	g.workerMorsels = make([]int64, len(leaves))
	for w, leaf := range leaves {
		g.workerMorsels[w] = int64(leaf.claims)
	}
	return outs, err
}

// fillPart collects part w's rows into outs[w], counting a batch per morsel.
func (g *Gather) fillPart(w int, part Operator, leaf *Scan, gov *Governor) error {
	cur := -1
	return pull(part, leaf, gov, NewBatch(batchSize), g.stats, func(b *Batch, m int) error {
		if m != cur {
			cur = m
			g.stats.incBatch()
		}
		addBatch(&g.outs[w], m, b)
		return nil
	})
}

func (g *Gather) Close() error {
	g.stats.markDone()
	g.rows = nil
	if g.serial {
		return g.Child.Close()
	}
	return nil
}

// Describe implements Operator.
func (g *Gather) Describe() string { return fmt.Sprintf("Gather[n=%d]", g.workers()) }

// ---------------------------------------------------------------------------
// Hash-join build
// ---------------------------------------------------------------------------

// joinBuild is a hash-join build shared by one or more probe parts: the
// first Open runs it over the parts of its right input's split, later
// opens reuse the result, and the table is released when the last part
// closes. The table is one vector of entries, in right-input order, and
// one power-of-two vector of bucket heads, each the link of its bucket's
// first entry; a bucket is the chain through the entries whose hashes
// agree in the bits mask keeps, in right-input order. So a key costs a
// head slot, not a map slot or a slice of its own, and a bucket can hold
// other hashes than the probe's: the probe compares the stored hash first.
type joinBuild struct {
	right Operator
	rk    []Evaluator
	stats *OpStats // owning HashJoin's stats: right rows count as its input

	once     onceErr
	refs     atomic.Int32
	reserved atomic.Int64
	entries  []buildEntry
	heads    []int32
	mask     uint64             // len(heads) - 1
	outs     []runs[buildEntry] // each part's entries while the build runs
	one      [1]runs[buildEntry]
}

// onceErr is a sync.Once that remembers the error of its single run.
type onceErr struct {
	done atomic.Bool
	mu   sync.Mutex
	err  error
}

func newJoinBuild(right Operator, rk []Evaluator, refs int, stats *OpStats) *joinBuild {
	b := &joinBuild{right: right, rk: rk, stats: stats}
	b.refs.Store(int32(refs))
	return b
}

// run executes the build exactly once under the first caller's governor;
// concurrent callers block until it finishes and share its error.
func (b *joinBuild) run(gov *Governor) error {
	if b.once.done.Load() {
		return b.once.err
	}
	b.once.mu.Lock()
	defer b.once.mu.Unlock()
	if b.once.done.Load() {
		return b.once.err
	}
	b.once.err = b.build(gov)
	b.once.done.Store(true)
	return b.once.err
}

// lookup returns the link to the first entry of hash h's bucket.
func (b *joinBuild) lookup(h uint64) int32 {
	return b.heads[h&b.mask]
}

// headSlots is the length of a head vector for n entries: the least power
// of two at least n, so a head vector is at most half empty.
func headSlots(n int) int {
	s := 1
	for s < n {
		s <<= 1
	}
	return s
}

// link chains entries into heads by the bits of their hashes mask keeps,
// each bucket in vector order: walked backwards, every entry becomes its
// bucket's first and points at the one it displaced.
func link(entries []buildEntry, heads []int32, mask uint64) {
	for i := len(entries) - 1; i >= 0; i-- {
		e := &entries[i]
		slot := e.hash & mask
		e.next, heads[slot] = heads[slot], int32(i+1)
	}
}

// close releases the build when the last referencing part closes.
func (b *joinBuild) close(gov *Governor) {
	if b.refs.Add(-1) != 0 {
		return
	}
	b.entries, b.heads = nil, nil
	gov.ReleaseBuffered(b.reserved.Load())
	b.reserved.Store(0)
}

// build drains the parts of the right input's split over gov's workers,
// each into runs of its own tagged by morsel, merges the runs in morsel
// order into the entry vector — the one part's insertion order, however
// the morsels were interleaved across workers — and links it.
func (b *joinBuild) build(gov *Governor) error {
	sp := splitFor(b.right, gov.workers, b.stats)
	b.outs = slots(&b.one, &sp)
	err := sp.run(gov, b)
	if err == nil {
		b.entries, err = mergeRuns(b.outs, gov)
	}
	b.outs, b.one = nil, [1]runs[buildEntry]{}
	if err != nil {
		return err
	}
	// Unpolled: a head store per entry the polled drain has just reserved.
	n := headSlots(len(b.entries))
	b.heads, b.mask = make([]int32, n), uint64(n-1)
	link(b.entries, b.heads, b.mask)
	return nil
}

// fillPart drains part w into outs[w].
func (b *joinBuild) fillPart(w int, part Operator, leaf *Scan, gov *Governor) error {
	return b.drain(part, leaf, gov, &b.outs[w])
}

// drain pulls op's rows under gov and adds to out every row whose build
// keys are not NULL, as an entry carrying the keys' hash, in runs tagged
// by morsel. It reserves once per batch. Rows added before a mid-batch
// evaluation error were never reserved, so the refcounted release stays
// balanced without a compensating charge.
func (b *joinBuild) drain(op Operator, leaf *Scan, gov *Governor, out *runs[buildEntry]) error {
	var keySlab valueSlab // retained buildEntry keys carve per-slab, not per-row
	nk := len(b.rk)
	return pull(op, leaf, gov, NewBatch(batchSize), b.stats, func(bb *Batch, m int) error {
		n := bb.Len()
		var kept int64
		for i := 0; i < n; i++ {
			row := bb.Row(i)
			keys, null, err := evalKeysInto(b.rk, row, keySlab.carve(nk, n, batchSize))
			if err != nil {
				return err
			}
			if null {
				continue // NULL keys never join
			}
			kept++
			out.add(m, buildEntry{keys: keys, row: row, hash: value.HashRow(keys)}, n-i)
		}
		if kept == 0 {
			return nil
		}
		// A failed reservation still charges (drainBatches convention).
		b.reserved.Add(kept)
		b.stats.addBuffered(kept)
		return gov.ReserveBuffered(kept)
	})
}

// ---------------------------------------------------------------------------
// Parallel partial aggregation
// ---------------------------------------------------------------------------

// merge combines the accumulators of several parts into one order of
// groups and returns it with chain, the merged groups' sums over their
// other morsels, for foldSums. Merged groups are ordered by
// first-appearance ordinal, so group order matches the one part's exactly.
func (a *HashAggregate) merge(accs []*aggAcc) (order []*aggState, chain []morselSum, err error) {
	// Sized for no group shared between workers, so neither ever grows.
	total := 0
	for _, acc := range accs {
		total += len(acc.order)
	}
	heads := make([]*aggState, headSlots(total))
	order = make([]*aggState, 0, total)
	// Each merged group's chain moves to chain from its worker's, and every
	// state combined into it joins it with its own.
	var surplus int64
	for _, acc := range accs {
		for _, st := range acc.order {
			if err := a.gov.Poll(); err != nil {
				return nil, nil, err
			}
			dst := findGroup(heads, st.hash, st.groupVals)
			if dst == nil {
				// st leaves its worker's chain for the merged one: the merge
				// walks each worker's order, never its chains.
				chainGroup(heads, st)
				order = append(order, st)
				st.earlier = moveSums(&chain, acc.setAside, st.earlier, 0)
				continue
			}
			if err := combine(dst, st, a.Aggs); err != nil {
				return nil, nil, err
			}
			head := moveSums(&chain, acc.setAside, st.earlier, dst.earlier)
			chain = append(chain, morselSum{st.morsel, st.sum, head})
			dst.earlier = int32(len(chain))
			surplus++
		}
	}
	slices.SortFunc(order, func(x, y *aggState) int { return x.ord.compare(y.ord) })
	a.gov.ReleaseBuffered(surplus)
	a.reserved.Add(-surplus)
	return order, chain, nil
}

// ShardView, ShardGroupStat and CollectShardStats are inert: scans are
// not partitioned, and nothing in this module reads them. They stay only
// because the benchmark module compiles against them; ROADMAP item 3(b)
// deletes them.
type ShardView interface{}

// ShardGroupStat is inert; see ShardView.
type ShardGroupStat struct {
	Rebalances int64
}

// Skew is inert; see ShardView.
func (ShardGroupStat) Skew() float64 { return 1 }

// CollectShardStats is inert and returns nil; see ShardView.
func CollectShardStats(Operator) []ShardGroupStat { return nil }
