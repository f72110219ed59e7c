// Batch-at-a-time execution (DESIGN.md §15). A Batch is a reusable slab
// of row references plus an optional selection vector; an operator fills
// one batch per NextBatch call, amortizing the virtual-dispatch,
// governor-poll and buffered-row-reservation overheads of a pull loop
// across DefaultBatchSize rows. The Operator comment in rowschema.go has
// the contract.
package exec

import (
	"cmp"
	"math"
	"slices"

	"conquer/internal/value"
)

// DefaultBatchSize is the number of rows per execution batch. It equals
// DefaultMorselSize so a parallel scan's batches align with its morsels
// (a batch never spans a morsel boundary — order reconstruction in
// Gather depends on that); the batch-size sweep (BenchmarkBatchSize,
// recorded in EXPERIMENTS.md) found the plateau flat from 256 up, so
// matching the morsel grid costs nothing.
const DefaultBatchSize = 1024

// batchSize is the one batch size: every batch and every drain of every
// tree holds at most this many rows. Results are identical at every size
// (DESIGN.md §15), so nothing outside the package sets it; it is
// DefaultBatchSize except in this package's tests, which shrink it to put
// a batch boundary inside every morsel, fan-out and group.
var batchSize = DefaultBatchSize

// ResolveBatchSize canonicalizes a root batch capacity for
// CollectBatchesGoverned: zero or negative means the package batch size,
// positive passes through.
func ResolveBatchSize(n int) int {
	if n <= 0 {
		return batchSize
	}
	return n
}

// Batch is one unit of batch-at-a-time dataflow: up to Cap() row
// references, each optionally tagged with its rowOrd provenance, plus a
// selection vector written by filtering operators. With a selection
// vector installed, Len/Row/Ord address only the selected rows; the
// unselected rows stay in place untouched (selection instead of
// copying is what makes Filter allocation-free).
type Batch struct {
	capacity int
	rows     [][]value.Value
	ords     []rowOrd
	hasOrds  bool
	sel      []int // selection vector; nil = all rows selected
	selBuf   []int // retained backing array for sel, reused across Shrinks
	// transient is the consumer's promise, fixed at construction, that it
	// reads the rows of one fill only until its next NextBatch on this
	// batch; a producer may then reuse the storage those rows sit in.
	transient bool
}

// NewBatch creates a batch of the given capacity (<= 0 uses the package
// batch size). It allocates no vector: each producer reserves, right
// after Reset, room for the rows it is about to write, so a query whose
// operators see a handful of rows pays a handful of slots per batch, not a
// capacity-sized vector, and a full batch pays its vector once — Reset
// keeps the backing arrays for the next fill.
func NewBatch(capacity int) *Batch {
	return &Batch{capacity: ResolveBatchSize(capacity)}
}

// NewTransientBatch is NewBatch for a consumer that copies what it needs
// out of the rows before it asks for the next batch and keeps no reference
// to them: the operator filling the batch overwrites the previous fill's
// rows instead of allocating fresh ones (the row-lifetime rule of
// DESIGN.md §15). Anything that keeps a row past its next NextBatch on the
// batch must use NewBatch.
func NewTransientBatch(capacity int) *Batch {
	b := NewBatch(capacity)
	b.transient = true
	return b
}

// Cap returns the batch's row capacity.
func (b *Batch) Cap() int { return b.capacity }

// Reset empties the batch and drops any selection vector (the sel
// backing array is retained for the next Shrink).
func (b *Batch) Reset() {
	b.rows = b.rows[:0]
	b.ords = b.ords[:0]
	b.hasOrds = false
	b.sel = nil
}

// reserve readies a just-Reset batch for the n rows its producer is about
// to write, capped at the capacity: the row vector, and the ordinal vector
// when ords, hold them without growing. A vector is only ever replaced by
// a larger one, of exactly n. Every producer knows n before it writes a
// row — a join counts its fill's matches first — so none appends past
// what it reserved.
func (b *Batch) reserve(n int, ords bool) {
	n = min(n, b.capacity)
	if cap(b.rows) < n {
		b.rows = make([][]value.Value, 0, n)
	}
	if ords && cap(b.ords) < n {
		b.ords = make([]rowOrd, 0, n)
	}
}

// Len returns the number of selected rows.
func (b *Batch) Len() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return len(b.rows)
}

// Full reports whether the producer has filled the batch to capacity.
func (b *Batch) Full() bool { return len(b.rows) >= b.capacity }

// Append adds one untagged row. Producers only append into a Reset
// batch, never through a selection vector.
func (b *Batch) Append(row []value.Value) { b.rows = append(b.rows, row) }

// AppendOrd adds one row tagged with its provenance ordinal. Partial
// pipelines tag every row so order-preserving consumers (Gather, the
// parallel join build and aggregation) can restore serial order without
// per-row leaf callbacks.
func (b *Batch) AppendOrd(row []value.Value, ord rowOrd) {
	b.rows = append(b.rows, row)
	b.ords = append(b.ords, ord)
	b.hasOrds = true
}

// rowIdx maps a selected position to its physical slot.
func (b *Batch) rowIdx(i int) int {
	if b.sel != nil {
		return b.sel[i]
	}
	return i
}

// Row returns the i-th selected row.
func (b *Batch) Row(i int) []value.Value { return b.rows[b.rowIdx(i)] }

// Ord returns the i-th selected row's provenance ordinal (zero when the
// producer did not tag rows).
func (b *Batch) Ord(i int) rowOrd {
	if !b.hasOrds {
		return rowOrd{}
	}
	return b.ords[b.rowIdx(i)]
}

// Shrink narrows the selection to the rows keep accepts, writing a new
// selection vector instead of moving any row. Repeated Shrinks compose:
// the new vector is compacted in place over the retained backing array
// (the write index never passes the read index, so aliasing the old
// vector is safe).
func (b *Batch) Shrink(keep func(row []value.Value) (bool, error)) error {
	n := b.Len()
	if b.selBuf == nil || cap(b.selBuf) < n {
		// sel must come out non-nil even when nothing survives: a nil
		// vector means "all rows selected". Sized like the row vector, from
		// what its producer reserved, not the capacity — Reset retains it
		// for reuse. A live sel has at most cap(selBuf) rows, so this never
		// replaces the vector a repeated Shrink compacts.
		b.selBuf = make([]int, 0, cap(b.rows))
	}
	out := b.selBuf[:0]
	for i := 0; i < n; i++ {
		idx := b.rowIdx(i)
		ok, err := keep(b.rows[idx])
		if err != nil {
			return err
		}
		if ok {
			out = append(out, idx)
		}
	}
	b.sel, b.selBuf = out, out
	return nil
}

// Truncate keeps only the first n selected rows.
func (b *Batch) Truncate(n int) {
	if n >= b.Len() {
		return
	}
	if b.sel != nil {
		b.sel = b.sel[:n]
		return
	}
	b.rows = b.rows[:n]
	if b.hasOrds {
		b.ords = b.ords[:n]
	}
}

// run is a run of consecutive items collected under one tag — for a
// parallel worker, the morsel that produced them.
type run[T any] struct {
	tag   int
	items []T
}

// runs collects items (row headers, build entries) into blocks that
// double in size, the first as large as the first batch; each run lies in
// one block. Blocks cost one to two times the items they hold, where an
// append chain growing by 1.25x costs five. free is the unused tail of the
// newest block; the last run, while it lies in that block, ends where free
// begins and grows into it.
type runs[T any] struct {
	runs  []run[T]
	free  []T
	block int  // items in the newest block
	open  bool // the last run lies in the newest block and may grow
}

// add appends x, tagged tag, onto the last run while it has tag and its
// block has room, onto a new run otherwise. rest is how many items the
// caller may still add from its current batch, x included: a new block
// holds that many, or twice the last block when that is more.
func (o *runs[T]) add(tag int, x T, rest int) {
	if len(o.free) == 0 {
		o.block = max(2*o.block, rest)
		o.free = make([]T, o.block)
		o.open = false
	}
	if !o.open || o.runs[len(o.runs)-1].tag != tag {
		o.runs = append(o.runs, run[T]{tag: tag, items: o.free[:0]})
		o.open = true
	}
	r := &o.runs[len(o.runs)-1]
	r.items = append(r.items, x)
	o.free = o.free[1:]
}

// addBatch adds the headers of b's rows, all of them tagged tag.
func addBatch(o *runs[[]value.Value], tag int, b *Batch) {
	for i, n := 0, b.Len(); i < n; i++ {
		o.add(tag, b.Row(i), n-i)
	}
}

// concatRuns returns the items of runs, in run order, in one vector of
// exactly their number, polling g once per run: the only run's own block
// when there is one (the first block is as large as the first batch), a
// copy otherwise.
func concatRuns[T any](runs []run[T], g *Governor) ([]T, error) {
	total := 0
	for _, r := range runs {
		total += len(r.items)
	}
	switch {
	case total == 0:
		return nil, nil
	case len(runs) == 1:
		return runs[0].items, nil
	}
	out := make([]T, total)
	at := 0
	for _, r := range runs {
		if err := g.Poll(); err != nil {
			return nil, err
		}
		at += copy(out[at:], r.items)
	}
	return out, nil
}

// mergeRuns returns the items of the workers' runs, each tagged by the
// morsel that produced it, in one vector of exactly their number and in
// rowOrd order — (leaf ordinal, fanout sequence), exactly the serial
// emission order. On the one morsel grid every row of morsel m precedes
// every row of morsel m+1, a morsel's rows come out of its pipeline in
// order, and one worker collects them, in runs it appends in order; so
// the runs stably sorted by tag, then concatenated, are that order. One
// part claims its morsels in order, so its runs already are.
func mergeRuns[T any](outs []runs[T], g *Governor) ([]T, error) {
	if len(outs) == 1 {
		return concatRuns(outs[0].runs, g)
	}
	var all []run[T]
	for _, o := range outs {
		all = append(all, o.runs...)
	}
	slices.SortStableFunc(all, func(a, b run[T]) int { return cmp.Compare(a.tag, b.tag) })
	return concatRuns(all, g)
}

// materialized is implemented by the operators that hold their whole
// output once open (Sort, HashAggregate, Gather). handOver gives the
// consumer the rows not yet emitted, with the operator's stats to count
// them out on. The vector is the consumer's from then on: its producer
// never writes it again, and its next Open builds a fresh one (DESIGN.md
// §15, "Hand-over").
type materialized interface {
	handOver() (rows [][]value.Value, s *OpStats)
}

// openKeeping opens op for a consumer that uses at most keep of its rows.
// An operator that can stop short then is told: a Gather stops its parts
// once each holds keep rows, a Limit passes the fewer of N and keep down.
// The switch is on concrete types: an interface assertion would add an
// entry per operator type to the runtime's itab table.
func openKeeping(op Operator, keep int) error {
	switch op := op.(type) {
	case *Gather:
		return op.openKeeping(keep)
	case *Limit:
		return op.openKeeping(keep)
	}
	return op.Open()
}

// drainRows opens op for a consumer that uses at most keep of its rows,
// pulls all its rows under g and closes it: the one drain under Sort and
// at the root. each is called once per batch-sized run of rows, after a
// poll, with the run's length: per batch of a streaming op, per size rows
// of a vector a materialized op hands over whole. The runs, and with them
// every reservation, counter and failure point, are the same either way;
// what differs is that a handed-over vector is not copied and a streamed
// one is copied once, through runs. size is the batch's row capacity. An
// empty result is nil.
func drainRows(op Operator, g *Governor, size, keep int, each func(n int64) error) ([][]value.Value, error) {
	if err := openKeeping(op, keep); err != nil {
		return nil, err
	}
	defer op.Close()
	if m, ok := op.(materialized); ok {
		rows, s := m.handOver()
		for lo := 0; lo < len(rows); lo += size {
			if err := g.PollBatch(); err != nil {
				return nil, err
			}
			n := int64(min(size, len(rows)-lo))
			s.addOut(n)
			if err := each(n); err != nil {
				return nil, err
			}
		}
		if len(rows) == 0 {
			return nil, nil
		}
		return rows, nil
	}
	b := NewBatch(size)
	var out runs[[]value.Value]
	for {
		if err := g.PollBatch(); err != nil {
			return nil, err
		}
		if err := op.NextBatch(b); err != nil {
			return nil, err
		}
		n := b.Len()
		if n == 0 {
			return concatRuns(out.runs, g)
		}
		if err := each(int64(n)); err != nil {
			return nil, err
		}
		addBatch(&out, 0, b)
	}
}

// drainBatches materializes op's rows while polling g and reserving
// buffered budget once per batch; s, the draining operator's stats,
// counts the rows pulled and buffered. A failed reservation
// still counts into the returned total so the caller's Close releases
// exactly what was charged.
func drainBatches(op Operator, g *Governor, s *OpStats) (rows [][]value.Value, reserved int64, err error) {
	rows, err = drainRows(op, g, batchSize, math.MaxInt, func(n int64) error {
		s.addIn(n)
		s.addBuffered(n)
		reserved += n
		return g.ReserveBuffered(n)
	})
	return rows, reserved, err
}

// CollectBatchesGoverned drains op while polling g once per batch and
// charging the output budget per batch; it returns the rows and how many
// batches the root produced. size is the root batch's row capacity
// (<= 0 means the package batch size).
func CollectBatchesGoverned(op Operator, g *Governor, size int) (rows [][]value.Value, batches int64, err error) {
	keep := math.MaxInt // a root uses one row past the output budget: that row fails the run
	if m := g.limits.MaxOutputRows; m > 0 {
		keep = int(max(m-g.shared.output.Load(), 0)) + 1
	}
	rows, err = drainRows(op, g, ResolveBatchSize(size), keep, func(n int64) error {
		batches++
		return g.CountOutputN(n)
	})
	return rows, batches, err
}
