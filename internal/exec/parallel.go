// Morsel-driven parallel execution (see DESIGN.md §9).
//
// Base-table scans are split into fixed-size morsels handed out by
// atomic per-shard cursors (sharded.go); a pipeline over such a scan
// (filters, projections, the probe side of hash joins) splits into N
// independent partial pipelines that workers drive to completion. Three
// operators consume partial pipelines:
//
//   - Gather runs N partial pipelines to completion and re-emits their
//     rows in base-table row order, so a parallel scan→filter→project plan
//     produces exactly the serial row order.
//   - HashJoin builds its hash table with parallel workers (per-worker
//     runs merged by right-input ordinal, as Gather merges) and can itself
//     split into probe shards sharing one build.
//   - HashAggregate aggregates each partial pipeline into thread-local
//     groups and merges them in a final phase.
//
// Every worker runs in a qerr.Pool and polls a Governor it forks from its
// operator's under the pool's context (fresh poll ticker, shared budget):
// the first worker error (or a cancellation) drains the pool, and panics
// cross goroutine boundaries only through qerr.Recover.
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
	"conquer/internal/storage"
	"conquer/internal/value"
)

// DefaultMorselSize is the number of base-table rows per morsel. Small
// enough that a handful of morsels exist even at this repository's
// reduced bench scales, large enough that the claim overhead (one atomic
// add) vanishes against per-row evaluation cost.
const DefaultMorselSize = 1024

// morselSize is the one morsel grid every split pipeline cuts its tables
// into, and the one-morsel rule's threshold. It is DefaultMorselSize
// always, except inside this package's tests, which shrink it to get many
// morsels from small tables.
var morselSize = DefaultMorselSize

// morselCursor hands out disjoint row ranges ("morsels") of one shard
// table to competing workers, in the shard's scan order.
type morselCursor struct {
	next  atomic.Int64
	size  int
	total int
}

func newMorselCursor(total, size int) *morselCursor {
	return &morselCursor{size: size, total: total}
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

// remaining estimates how many morsels are still unclaimed. It is a
// racy snapshot — the skew balancer uses it only to pick a steal
// target; claim() stays the sole source of truth.
func (c *morselCursor) remaining() int {
	r := c.morsels() - int(c.next.Load())
	if r < 0 {
		r = 0
	}
	return r
}

// rowOrd orders pipeline output rows by base-table provenance: the
// base-table ordinal of the leaf row that produced the output, plus an
// emission sequence within that leaf row (join fanout emits several
// rows per leaf row). Sorting by rowOrd reconstructs the serial
// execution order exactly, however the leaf rows' morsels were
// interleaved across workers and cluster shards.
type rowOrd struct {
	base int64
	seq  int64
}

func (o rowOrd) less(p rowOrd) bool {
	return o.base < p.base || (o.base == p.base && o.seq < p.seq)
}

// compare is less as a three-way comparison.
func (o rowOrd) compare(p rowOrd) int {
	if c := cmp.Compare(o.base, p.base); c != 0 {
		return c
	}
	return cmp.Compare(o.seq, p.seq)
}

// MorselScan is the leaf of a partial pipeline: a Scan over whichever
// morsels of the shared shard group this worker wins. Its consumers read
// it after the pipeline returns a batch: morsel is the morsel that
// produced the batch (Gather keeps a run per morsel), and claims how many
// morsels this leaf has claimed (the per-worker share EXPLAIN ANALYZE
// reports).
type MorselScan struct {
	Table *storage.Table
	Alias string

	govHolder
	statsHolder
	schema RowSchema
	morsel int
	claims int
	pos    int
	end    int

	// The shared shard group, the shard this worker starts on, the shard
	// it is draining, and that shard's base-table ordinals (nil when the
	// shard is the whole table).
	group *shardGroup
	home  int
	src   int
	ords  []int64
}

func (s *MorselScan) Schema() RowSchema { return s.schema }

// Open resets the worker-local range (the shared cursors are reset by
// re-splitting, not here — resetting per part would race).
func (s *MorselScan) Open() error {
	s.stats.markOpen()
	s.pos, s.end, s.morsel, s.claims = 0, 0, -1, 0
	s.src = s.home
	sh := s.group.shards[s.home]
	s.Table, s.ords = sh.Table, sh.Ords
	return nil
}

// claim acquires the next morsel from the shard group: the current shard
// first, then stealing from the most-loaded shard. Steals after the first
// claim count as rebalances (a worker whose shard drained moved onto
// another shard's range).
func (s *MorselScan) claim() (m, lo, hi int, ok bool) {
	nsrc, m, lo, hi, stole, ok := s.group.claim(s.src)
	if !ok {
		return 0, 0, 0, false
	}
	if stole && s.claims > 0 {
		s.group.rebalances.Add(1)
	}
	if nsrc != s.src {
		s.src = nsrc
		sh := s.group.shards[nsrc]
		s.Table, s.ords = sh.Table, sh.Ords
	}
	s.group.rows[nsrc].Add(int64(hi - lo))
	s.group.claims[nsrc].Add(1)
	return s.group.morselBase[nsrc] + m, lo, hi, true
}

func (s *MorselScan) Close() error { s.stats.markDone(); return nil }

// Describe implements Operator.
func (s *MorselScan) Describe() string {
	return fmt.Sprintf("MorselScan(%s AS %s)", s.Table.Schema.Name, s.Alias)
}

// opensSplit reports whether an operator configured for n workers should
// open the pipeline op split (Gather, the join build and HashAggregate's
// parallel arm all ask): it must have more than one worker to split
// across, and some base table it reads — the driving scan or the build
// side of one of its probe joins — must hold more than one morsel of
// rows. A pipeline whose every input fits one morsel opens serially
// instead of setting up a worker pool, forked governors, morsel cursors
// and shard views around a claim or two (DESIGN.md §17); s, the asking
// operator's stats, records that for EXPLAIN ANALYZE.
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

// splitPipeline clones op into at most n independent partial pipelines
// over a fresh shared shard group. Compiled evaluators are shared —
// they are pure functions of the row — while all iteration state is
// per-part. Each clone also shares its template's OpStats pointer, so
// the counters of all workers aggregate onto the template tree that
// EXPLAIN ANALYZE renders. The returned leaves report morsel provenance
// for each part. Fewer than n parts come back when the base table has
// fewer morsels than workers. op is a pipeline drivingScan walks, as
// opensSplit has checked: its recursion is this one's.
func splitPipeline(op Operator, n int) ([]Operator, []*MorselScan) {
	switch op := op.(type) {
	case *Filter:
		children, leaves := splitPipeline(op.Child, n)
		parts := make([]Operator, len(children))
		for i, c := range children {
			f := &Filter{Child: c, Pred: op.Pred, test: op.test}
			f.stats = op.stats
			parts[i] = f
		}
		return parts, leaves

	case *Project:
		children, leaves := splitPipeline(op.Child, n)
		parts := make([]Operator, len(children))
		for i, c := range children {
			p := &Project{Child: c, schema: op.schema, evals: op.evals, passthrough: op.passthrough}
			p.stats = op.stats
			parts[i] = p
		}
		return parts, leaves

	case *HashJoin:
		children, leaves := splitPipeline(op.Left, n)
		build := newJoinBuild(op.Right, op.rk, op.Parallelism, len(children), op.batchCap(), op.stats)
		parts := make([]Operator, len(children))
		for i, c := range children {
			// Right stays nil on shards: the shared build owns the right
			// input, and leaving it reachable would make every worker's
			// Attach race on the one template operator.
			j := &HashJoin{
				Left:     c,
				LeftKeys: op.LeftKeys, RightKeys: op.RightKeys,
				Parallelism: op.Parallelism,
				joinOutput:  op.joinOutput, lk: op.lk, rk: op.rk,
				build: build, shard: true,
			}
			j.batch = op.batch
			j.stats = op.stats
			parts[i] = j
		}
		return parts, leaves
	}
	return splitScan(op.(*Scan), n)
}

// closeAll closes every part, keeping the first error. The coordinator
// calls it after the worker barrier so shared state (e.g. a join build
// referenced by all probe shards) is released exactly once, even when a
// worker failed before opening its part.
func closeAll(parts []Operator) error {
	var first error
	for _, p := range parts {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ---------------------------------------------------------------------------
// Gather
// ---------------------------------------------------------------------------

// Gather is the exchange operator: it runs N partial pipelines to
// completion on worker goroutines and re-emits their rows in base-table
// row order, so its output order (and content) matches the serial plan
// row-for-row. When the child cannot split (or N <= 1) it degenerates
// to a transparent pass-through.
//
// The reassembly buffer is not charged against MaxBufferedRows: it holds
// exactly the rows the client is about to receive, which MaxOutputRows
// already governs; charging them would make a streaming query's budget
// depend on its degree of parallelism.
type Gather struct {
	Child Operator
	N     int
	// Shards is the effective shard count of the plan, for display only
	// (the shard views on the leaf scans drive actual execution).
	Shards int

	govHolder
	statsHolder
	batchHolder
	serial bool
	rows   [][]value.Value
	pos    int
	// workerMorsels[w] is how many morsels worker w claimed during the
	// last parallel Open; EXPLAIN ANALYZE reports it per worker.
	workerMorsels []int64
}

// NewGather wraps child in an exchange over n workers.
func NewGather(child Operator, n int) *Gather {
	return &Gather{Child: child, N: n}
}

func (g *Gather) Schema() RowSchema { return g.Child.Schema() }

// Open splits the child and runs the partial pipelines to completion
// when opensSplit says so; the reassembly makes a split result identical
// to the serial scan at any worker count.
func (g *Gather) Open() error {
	g.stats.markOpen()
	g.rows, g.pos, g.workerMorsels = nil, 0, nil
	if opensSplit(g.Child, g.N, g.stats) {
		g.serial = false
		return g.openParallel(splitPipeline(g.Child, g.N))
	}
	g.serial = true
	return g.Child.Open()
}

func (g *Gather) openParallel(parts []Operator, leaves []*MorselScan) error {
	outs := make([]runs[[]value.Value], len(parts))
	err := qerr.Pool(g.gov.Context(), len(parts), func(ctx context.Context, w int) error {
		gov, part, leaf := g.gov.Fork(ctx), parts[w], leaves[w]
		Attach(part, gov)
		if err := part.Open(); err != nil {
			return err
		}
		// A pipeline batch never spans a morsel, so the whole batch belongs
		// to the leaf's current morsel.
		cur := -1
		bb := NewBatch(g.batchCap())
		for {
			if err := gov.PollBatch(); err != nil {
				return err
			}
			if err := part.NextBatch(bb); err != nil {
				return err
			}
			n := bb.Len()
			if n == 0 {
				return nil
			}
			g.stats.addIn(int64(n))
			if m := leaf.morsel; m != cur {
				cur = m
				g.stats.incBatch()
			}
			addBatch(&outs[w], cur, bb, true)
		}
	})
	g.workerMorsels = make([]int64, len(leaves))
	for w, leaf := range leaves {
		g.workerMorsels[w] = int64(leaf.claims)
	}
	if cerr := closeAll(parts); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	g.rows, err = mergeRuns(outs, g.gov)
	return err
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
func (g *Gather) Describe() string {
	s := fmt.Sprintf("Gather[n=%d]", g.N)
	if g.Shards > 1 {
		s += fmt.Sprintf("[shards=%d]", g.Shards)
	}
	return s
}

// ---------------------------------------------------------------------------
// Hash-join build
// ---------------------------------------------------------------------------

// joinBuild is a hash-join build shared by one or more probe shards: the
// first Open runs it (serially, or with parallel workers), later opens
// reuse the result, and the table is released when the last shard closes.
// The table is one vector of entries, in right-input order, and one
// power-of-two vector of bucket heads, each the link of its bucket's first
// entry; a bucket is the chain through the entries whose hashes agree in
// the bits mask keeps, in right-input order. So a key costs a head slot,
// not a map slot or a slice of its own, and a bucket can hold other hashes
// than the probe's: the probe compares the stored hash before the keys.
type joinBuild struct {
	right       Operator
	rk          []Evaluator
	parallelism int
	batch       int      // rows per build batch
	stats       *OpStats // owning HashJoin's stats: right rows count as its input

	once     onceErr
	refs     atomic.Int32
	reserved atomic.Int64
	entries  []buildEntry
	heads    []int32
	mask     uint64 // len(heads) - 1
}

// onceErr is a sync.Once that remembers the error of its single run.
type onceErr struct {
	done atomic.Bool
	mu   sync.Mutex
	err  error
}

func newJoinBuild(right Operator, rk []Evaluator, parallelism, refs, batch int, stats *OpStats) *joinBuild {
	b := &joinBuild{right: right, rk: rk, parallelism: parallelism, batch: batch, stats: stats}
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

// close releases the build when the last referencing shard closes.
func (b *joinBuild) close(gov *Governor) {
	if b.refs.Add(-1) != 0 {
		return
	}
	b.entries, b.heads = nil, nil
	gov.ReleaseBuffered(b.reserved.Load())
	b.reserved.Store(0)
}

// build drains the right input into the entry vector — serially, or with
// parallel workers when the input splits — and links it.
func (b *joinBuild) build(gov *Governor) error {
	var err error
	if opensSplit(b.right, b.parallelism, b.stats) {
		b.entries, err = b.buildParallel(gov)
	} else {
		b.entries, err = b.buildSerial(gov)
	}
	if err != nil {
		return err
	}
	// Unpolled: a head store per entry the polled drain has just reserved.
	n := headSlots(len(b.entries))
	b.heads, b.mask = make([]int32, n), uint64(n-1)
	link(b.entries, b.heads, b.mask)
	return nil
}

// buildSerial drains the right input into one run and returns its entries.
func (b *joinBuild) buildSerial(gov *Governor) ([]buildEntry, error) {
	if err := b.right.Open(); err != nil {
		return nil, err
	}
	defer b.right.Close()
	var out runs[buildEntry]
	if err := b.drain(b.right, nil, gov, &out); err != nil {
		return nil, err
	}
	return concatRuns(out.runs, gov)
}

// buildParallel drains the split right input with worker goroutines, each
// collecting its entries into runs tagged by morsel, and merges the runs by
// right-input ordinal into the entry vector: the serial insertion order,
// however the morsels were interleaved across workers and cluster shards.
func (b *joinBuild) buildParallel(gov *Governor) ([]buildEntry, error) {
	parts, leaves := splitPipeline(b.right, b.parallelism)
	outs := make([]runs[buildEntry], len(parts))
	err := qerr.Pool(gov.Context(), len(parts), func(ctx context.Context, w int) error {
		g := gov.Fork(ctx)
		Attach(parts[w], g)
		if err := parts[w].Open(); err != nil {
			return err
		}
		return b.drain(parts[w], leaves[w], g, &outs[w])
	})
	if cerr := closeAll(parts); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return mergeRuns(outs, gov)
}

// drain pulls op's rows under gov and adds to out every row whose build
// keys are not NULL, as an entry carrying the keys' hash: the serial build
// over the right input in one untagged run, and each parallel worker over
// its part (leaf its morsel scan) in runs tagged by morsel, with ordinals.
// It polls and reserves once per batch. Rows added before a mid-batch
// evaluation error were never reserved, so the refcounted release stays
// balanced without a compensating charge.
func (b *joinBuild) drain(op Operator, leaf *MorselScan, gov *Governor, out *runs[buildEntry]) error {
	bb := NewBatch(b.batch)
	var keySlab valueSlab // retained buildEntry keys carve per-slab, not per-row
	nk := len(b.rk)
	for {
		if err := gov.PollBatch(); err != nil {
			return err
		}
		if err := op.NextBatch(bb); err != nil {
			return err
		}
		n := bb.Len()
		if n == 0 {
			return nil
		}
		b.stats.addIn(int64(n))
		// A pipeline batch never spans a morsel.
		tag := 0
		if leaf != nil {
			tag = leaf.morsel
		}
		var kept int64
		for i := 0; i < n; i++ {
			row := bb.Row(i)
			keys, null, err := evalKeysInto(b.rk, row, keySlab.carve(nk, n, b.batch))
			if err != nil {
				return err
			}
			if null {
				continue // NULL keys never join
			}
			kept++
			out.add(tag, buildEntry{keys: keys, row: row, hash: value.HashRow(keys)}, bb.Ord(i), leaf != nil, n-i)
		}
		if kept > 0 {
			// A failed reservation still charges (drainBatches convention).
			b.reserved.Add(kept)
			b.stats.addBuffered(kept)
			if err := gov.ReserveBuffered(kept); err != nil {
				return err
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Parallel partial aggregation
// ---------------------------------------------------------------------------

// openParallel drains the split child with worker goroutines, each
// folding its morsels into a thread-local aggAcc, then merges the
// partials. Merged groups are ordered by first-appearance ordinal, so
// group order matches the serial pass exactly; float SUM/AVG values may
// differ in the last bits because partial sums re-associate the
// addition.
func (a *HashAggregate) openParallel(parts []Operator) error {
	accs := make([]*aggAcc, len(parts))
	err := qerr.Pool(a.gov.Context(), len(parts), func(ctx context.Context, w int) error {
		gov := a.gov.Fork(ctx)
		Attach(parts[w], gov)
		if err := parts[w].Open(); err != nil {
			return err
		}
		acc := a.newAcc()
		accs[w] = acc // pre-published so error paths can release acc.reserved
		return a.fill(acc, parts[w], gov)
	})
	for _, acc := range accs {
		if acc != nil {
			a.reserved += acc.reserved
		}
	}
	if cerr := closeAll(parts); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	// Sized for no group shared between workers, so neither ever grows.
	total := 0
	for _, acc := range accs {
		total += len(acc.order)
	}
	heads, order := make([]*aggState, headSlots(total)), make([]*aggState, 0, total)
	var surplus int64
	for _, acc := range accs {
		for _, st := range acc.order {
			if err := a.gov.Poll(); err != nil {
				return err
			}
			dst := findGroup(heads, st.hash, st.groupVals)
			if dst == nil {
				// st leaves its worker's chain for the merged one: the merge
				// walks each worker's order, never its chains.
				chainGroup(heads, st)
				order = append(order, st)
				continue
			}
			if err := combine(dst, st, a.Aggs); err != nil {
				return err
			}
			surplus++
		}
	}
	slices.SortFunc(order, func(x, y *aggState) int { return x.ord.compare(y.ord) })
	a.gov.ReleaseBuffered(surplus)
	a.reserved -= surplus
	return a.emit(order)
}
