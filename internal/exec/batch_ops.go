// The operators' NextBatch methods (DESIGN.md §15). Each refills the
// caller's Batch with one run of rows, polling the governor once per
// batch. Two invariants hold throughout:
//
//   - A batch never spans a morsel: MorselScan returns at morsel
//     boundaries and every pipeline operator emits a non-empty output
//     batch before pulling the next child batch, so Gather's worker loop
//     can attribute a whole batch to its leaf MorselScan's current morsel.
//   - Output rows live as long as the batch that carries them says: rows
//     put into a plain batch are carved forward-only from fresh slabs and
//     never overwritten; rows put into a transient batch (NewTransientBatch)
//     are overwritten by the next fill of that batch, and by nothing else.
//
// Fault injection (storage.Table.ScanFault) stays per row inside the
// fill loops: fault schedules count instrumented calls, so amortizing
// them would shift every "fail the N-th scan" trigger point.
package exec

import (
	"fmt"

	"conquer/internal/qerr"
	"conquer/internal/value"
)

// batchProbe is the probe-side state of a join: the probe input
// batch with a cursor, the output slab, and the run-length ordinal
// generator that tags join fanout (base carried over from the probe row,
// sequence counting emissions per base). The probe batch is transient:
// emit copies the probe row's values out before the next one is pulled.
type batchProbe struct {
	probe    *Batch
	idx      int
	slab     valueSlab
	curBase  int64
	lastBase int64
	seq      int64
}

func (p *batchProbe) reset() {
	p.probe, p.idx = nil, 0
	// Blocks start over with every Open: a tree re-opened many times over
	// small inputs (one candidate world after another) must not keep a
	// batch-sized block it carves a few rows from.
	p.slab = valueSlab{}
	p.curBase, p.lastBase, p.seq = 0, -1, 0
}

// carve returns the next width-wide output row of b's fill, from a block
// bounded by the probe batch's length. When the slab runs dry in the
// middle of the fill, the new block takes over the rows b already holds —
// nothing has seen them yet — so a fill lies in one block: the block a
// transient batch's next fill rewinds to holds all of the last one.
func (p *batchProbe) carve(width int, b *Batch) []value.Value {
	bound := p.probe.Len()
	if len(p.slab.block) < width && b.Len() > 0 {
		p.slab.refill(width, bound, b.Cap())
		for i, row := range b.rows {
			moved := p.slab.carve(width, bound, b.Cap())
			copy(moved, row)
			b.rows[i] = moved
		}
	}
	return p.slab.carve(width, bound, b.Cap())
}

// begin starts one output batch. The rows of a transient batch's previous
// fill are dead by its consumer's promise, so their block is carved again.
func (p *batchProbe) begin(b *Batch) {
	b.Reset()
	if b.transient {
		p.slab.rewind()
	}
}

// valueSlab is an arena of value slices: carve returns a fresh
// width-sized slice, allocating a new block when the newest runs dry. A
// block holds the rows the carver's current batch bounds — the probe
// batch's length for a join's output, the input batch's length for the
// build's keys — or twice the previous block when that is more, up to one
// full batch: an operator that emits a handful of rows hands the GC a
// handful of slots, not a width×batchCap pointer slab (stacked selective
// joins spend more time in the collector than in the probe loop), a
// sustained output settles on one block per batch, and a fan-out past the
// bound doubles instead of carving block after small block. Carved slices
// stay immutable until rewind, which only the filler of a transient batch
// calls; a slab nobody rewinds (join build keys) is forward-only.
type valueSlab struct {
	block []value.Value
	base  []value.Value // the newest block whole: what rewind returns to
	rows  int           // rows of the newest block
}

// rewind makes the newest block carvable from its start again. A batch
// that outgrew its block got a larger one from carve, and that one is
// the newest from then on, so a sustained output settles on one block.
func (s *valueSlab) rewind() {
	recycle(s.base)
	s.block = s.base
}

// poisonRecycled is a test hook, set from _test.go files only: storage
// about to be handed out a second time is first overwritten with a
// sentinel, so that a consumer which kept a row of a batch it declared
// transient reads the sentinel instead of a plausible later row.
var poisonRecycled bool

func recycle(block []value.Value) {
	if poisonRecycled {
		for i := range block {
			block[i] = value.Str("\x00recycled")
		}
	}
}

// carve returns the next width-sized slice; bound is the rows the current
// batch is known to need and batchCap the most one batch holds.
func (s *valueSlab) carve(width, bound, batchCap int) []value.Value {
	if width == 0 {
		// A join nothing above reads from (COUNT(*)) emits zero-width
		// rows; they are still rows, so not nil.
		return []value.Value{}
	}
	if len(s.block) < width {
		s.refill(width, bound, batchCap)
	}
	row := s.block[:width:width]
	s.block = s.block[width:]
	return row
}

// refill starts a new block of bound rows, or of twice the last block's
// when that is more, at most batchCap.
func (s *valueSlab) refill(width, bound, batchCap int) {
	s.rows = min(max(bound, 2*s.rows), batchCap)
	s.base = make([]value.Value, width*s.rows)
	s.block = s.base
}

// nextOrd tags one emitted row with (curBase, run-length sequence).
func (p *batchProbe) nextOrd() rowOrd {
	if p.curBase == p.lastBase {
		p.seq++
	} else {
		p.lastBase, p.seq = p.curBase, 0
	}
	return rowOrd{base: p.lastBase, seq: p.seq}
}

// NextBatch fills b from the table cursor. The serial scan counts one
// batch at Open (the whole table), so refills do not bump the counter.
// Leaf fill loops poll the ticker per row: a batch is the unit of *work*
// amortization, but cancellation latency must stay within pollInterval
// rows, not a whole batch.
func (s *Scan) NextBatch(b *Batch) error {
	b.Reset()
	b.reserve(s.Table.Len()-s.pos, false)
	for !b.Full() && s.pos < s.Table.Len() {
		if err := s.gov.PollLeaf(); err != nil {
			return err
		}
		if err := s.Table.ScanFault(); err != nil {
			return fmt.Errorf("exec: scanning %s: %w", s.Table.Schema.Name, err)
		}
		b.Append(s.Table.Row(s.pos))
		s.pos++
	}
	s.stats.addOut(int64(b.Len()))
	return nil
}

// NextBatch fills b from the current morsel, claiming the next one when
// it runs dry. A batch never crosses a morsel boundary, and every row is
// tagged with its base-table ordinal so downstream consumers can restore
// serial order without leaf callbacks.
func (s *MorselScan) NextBatch(b *Batch) error {
	b.Reset()
	for {
		if err := s.gov.PollBatch(); err != nil {
			return err
		}
		if s.pos < s.end {
			b.reserve(s.end-s.pos, true)
			for !b.Full() && s.pos < s.end {
				// Per-row ticker poll, same rationale as Scan.NextBatch.
				if err := s.gov.PollLeaf(); err != nil {
					return err
				}
				if err := s.Table.ScanFault(); err != nil {
					return fmt.Errorf("exec: scanning %s: %w", s.Table.Schema.Name, err)
				}
				b.AppendOrd(s.Table.Row(s.pos), rowOrd{base: int64(s.pos)})
				s.pos++
			}
			s.stats.addOut(int64(b.Len()))
			return nil
		}
		m, lo, hi, ok := s.cursor.claim()
		if !ok {
			return nil // empty batch: exhausted
		}
		s.claims++
		s.stats.incBatch()
		s.morsel, s.pos, s.end = m, lo, hi
	}
}

// NextBatch evaluates the predicate over whole child batches, narrowing
// each to a selection vector instead of copying rows; child batches that
// filter to empty are skipped with one poll apiece.
func (f *Filter) NextBatch(b *Batch) error {
	for {
		if err := f.gov.PollBatch(); err != nil {
			return err
		}
		if err := f.Child.NextBatch(b); err != nil {
			return err
		}
		n := b.Len()
		if n == 0 {
			return nil
		}
		f.stats.addIn(int64(n))
		if err := b.Shrink(f.test); err != nil {
			return err
		}
		if k := b.Len(); k > 0 {
			f.stats.addOut(int64(k))
			f.stats.incBatch()
			return nil
		}
	}
}

// NextBatch projects one child batch into one output slab: a fresh one,
// or the previous one again when b is transient and it is large enough.
// Passthrough columns (plain column references) copy the child value
// directly, skipping the evaluator; ordinal tags propagate unchanged.
func (p *Project) NextBatch(b *Batch) error {
	if err := p.gov.PollBatch(); err != nil {
		return err
	}
	if p.scratch == nil || p.scratch.Cap() < b.Cap() {
		p.scratch = NewTransientBatch(b.Cap())
	}
	if err := p.Child.NextBatch(p.scratch); err != nil {
		return err
	}
	b.Reset()
	n := p.scratch.Len()
	if n == 0 {
		return nil
	}
	p.stats.addIn(int64(n))
	b.reserve(n, p.scratch.hasOrds)
	width := len(p.evals)
	if b.transient && len(p.out) >= n*width {
		recycle(p.out)
	} else {
		p.out = make([]value.Value, n*width)
	}
	slab := p.out
	for i := 0; i < n; i++ {
		row := p.scratch.Row(i)
		out := slab[i*width : (i+1)*width : (i+1)*width]
		for c, ev := range p.evals {
			if src := p.passthrough[c]; src >= 0 {
				out[c] = row[src]
				continue
			}
			v, err := ev(row)
			if err != nil {
				return &EvalError{err}
			}
			out[c] = v
		}
		if p.scratch.hasOrds {
			b.AppendOrd(out, p.scratch.Ord(i))
		} else {
			b.Append(out)
		}
	}
	p.stats.addOut(int64(n))
	p.stats.incBatch()
	return nil
}

// prehash evaluates and hashes the probe keys of the whole pending probe
// batch in one pass; probeKeys[i] == nil marks a NULL key (never joins).
// The keys are refilled into the join's one key slab, whose previous
// contents die here: the next probe batch is pulled only after every
// bucket of the current one is drained, and nothing keeps a probe key.
// The slab is never nil, so a keyless join's empty key vectors are not
// nil either, and its rows all join.
func (j *HashJoin) prehash(n int) error {
	if cap(j.probeHash) < n {
		j.probeHash = make([]uint64, n)
		j.probeKeys = make([][]value.Value, n)
	}
	j.probeHash = j.probeHash[:n]
	j.probeKeys = j.probeKeys[:n]
	nk := len(j.lk)
	if j.keySlab == nil || len(j.keySlab) < n*nk {
		j.keySlab = make([]value.Value, n*nk)
	} else {
		recycle(j.keySlab)
	}
	slab := j.keySlab
	for i := 0; i < n; i++ {
		buf := slab[i*nk : (i+1)*nk : (i+1)*nk]
		keys, null, err := evalKeysInto(j.lk, j.bp.probe.Row(i), buf)
		if err != nil {
			return err
		}
		if null {
			j.probeKeys[i] = nil
			continue
		}
		j.probeKeys[i] = keys
		j.probeHash[i] = value.HashRow(keys)
	}
	return nil
}

// NextBatch probes the build table with a pre-hashed probe batch in a
// tight loop, carving joined rows into the output slab. The output batch
// never merges rows of two probe batches, preserving morsel alignment.
func (j *HashJoin) NextBatch(b *Batch) error {
	j.bp.begin(b)
	width := len(j.schema)
	for {
		if err := j.gov.PollBatch(); err != nil {
			return err
		}
		for j.next != 0 {
			if b.Full() {
				j.stats.addOut(int64(b.Len()))
				j.stats.incBatch()
				return nil
			}
			e := &j.build.entries[j.next-1]
			j.next = e.next
			if e.hash != j.curHash || !keysEqual(e.keys, j.curKeys) {
				continue // the bucket's other keys, of this hash or another
			}
			out := j.bp.carve(width, b)
			j.emit(out, j.curLeft, e.row)
			b.AppendOrd(out, j.bp.nextOrd())
		}
		if j.bp.probe == nil || j.bp.idx >= j.bp.probe.Len() {
			if b.Len() > 0 {
				j.stats.addOut(int64(b.Len()))
				j.stats.incBatch()
				return nil
			}
			if j.bp.probe == nil {
				j.bp.probe = NewTransientBatch(b.Cap())
			}
			if err := j.Left.NextBatch(j.bp.probe); err != nil {
				return err
			}
			pn := j.bp.probe.Len()
			if pn == 0 {
				return nil
			}
			j.stats.addIn(int64(pn))
			b.reserve(pn, true)
			j.bp.idx = 0
			if err := j.prehash(pn); err != nil {
				return err
			}
		}
		i := j.bp.idx
		j.bp.idx++
		keys := j.probeKeys[i]
		if keys == nil {
			continue // NULL join keys never join
		}
		j.curHash = j.probeHash[i]
		j.next, j.curKeys, j.curLeft = j.build.lookup(j.curHash), keys, j.bp.probe.Row(i)
		j.bp.curBase = j.bp.probe.Ord(i).base
	}
}

// NextBatch deduplicates whole child batches through the selection
// vector, reserving buffered budget once per batch for the fresh rows
// the seen-table retains.
func (d *Distinct) NextBatch(b *Batch) error {
	if b.transient {
		// Distinct forwards b to its child and keeps the surviving rows in
		// seen: the next fill of a transient b would overwrite them.
		return fmt.Errorf("exec: Distinct handed a transient batch: %w", qerr.ErrInternal)
	}
	for {
		if err := d.gov.PollBatch(); err != nil {
			return err
		}
		if err := d.Child.NextBatch(b); err != nil {
			return err
		}
		n := b.Len()
		if n == 0 {
			return nil
		}
		d.stats.addIn(int64(n))
		var fresh int64
		err := b.Shrink(func(row []value.Value) (bool, error) {
			h := value.HashRow(row)
			for _, prev := range d.seen[h] {
				if value.RowsIdentical(prev, row) {
					return false, nil
				}
			}
			d.seen[h] = append(d.seen[h], row)
			fresh++
			return true, nil
		})
		if err != nil {
			return err
		}
		if fresh > 0 {
			// One lump reservation per batch; a failed reservation still
			// charges (drainBatches convention).
			d.stats.addBuffered(fresh)
			d.reserved += fresh
			if err := d.gov.ReserveBuffered(fresh); err != nil {
				return err
			}
		}
		if k := b.Len(); k > 0 {
			d.stats.addOut(int64(k))
			d.stats.incBatch()
			return nil
		}
	}
}

// NextBatch truncates the child batch to the remaining limit.
func (l *Limit) NextBatch(b *Batch) error {
	if l.emitted >= l.N {
		b.Reset()
		return nil
	}
	if err := l.Child.NextBatch(b); err != nil {
		return err
	}
	n := b.Len()
	if n == 0 {
		return nil
	}
	l.stats.addIn(int64(n))
	if rem := l.N - l.emitted; n > rem {
		b.Truncate(rem)
		n = rem
	}
	l.emitted += n
	l.stats.addOut(int64(n))
	l.stats.incBatch()
	return nil
}

// emitMaterialized fills b from a materialized row slice, advancing
// *pos; the shared emission path of Sort/HashAggregate/Gather.
func emitMaterialized(b *Batch, rows [][]value.Value, pos *int, s *OpStats) {
	b.Reset()
	b.reserve(len(rows)-*pos, false)
	for !b.Full() && *pos < len(rows) {
		b.Append(rows[*pos])
		*pos++
	}
	s.addOut(int64(b.Len()))
}

// handOverRows gives up rows[*pos:] to a consumer that takes the vector
// whole; the shared hand-over of Sort/HashAggregate/Gather.
func handOverRows(rows *[][]value.Value, pos *int) [][]value.Value {
	out := (*rows)[*pos:]
	*rows, *pos = nil, 0
	return out
}

// NextBatch emits the sorted rows batch-at-a-time.
func (s *Sort) NextBatch(b *Batch) error {
	if err := s.gov.PollBatch(); err != nil {
		return err
	}
	emitMaterialized(b, s.rows, &s.pos, s.stats)
	return nil
}

func (s *Sort) handOver() ([][]value.Value, *OpStats, bool) {
	return handOverRows(&s.rows, &s.pos), s.stats, true
}

// NextBatch emits the finished group rows batch-at-a-time.
func (a *HashAggregate) NextBatch(b *Batch) error {
	if err := a.gov.PollBatch(); err != nil {
		return err
	}
	emitMaterialized(b, a.out, &a.pos, a.stats)
	return nil
}

func (a *HashAggregate) handOver() ([][]value.Value, *OpStats, bool) {
	return handOverRows(&a.out, &a.pos), a.stats, true
}

// NextBatch passes batches through in serial mode and emits the
// reassembled rows otherwise. The batches counter is owned by the worker
// loop (one per morsel run), so emission does not bump it.
func (g *Gather) NextBatch(b *Batch) error {
	if err := g.gov.PollBatch(); err != nil {
		return err
	}
	if g.serial {
		if err := g.Child.NextBatch(b); err != nil {
			return err
		}
		n := int64(b.Len())
		g.stats.addIn(n)
		g.stats.addOut(n)
		return nil
	}
	emitMaterialized(b, g.rows, &g.pos, g.stats)
	return nil
}

func (g *Gather) handOver() ([][]value.Value, *OpStats, bool) {
	if g.serial {
		return nil, nil, false
	}
	return handOverRows(&g.rows, &g.pos), g.stats, true
}
