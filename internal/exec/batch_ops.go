// The operators' NextBatch methods (DESIGN.md §15). Each refills the
// caller's Batch with one run of rows, polling the governor once per
// batch. Two invariants hold throughout:
//
//   - A batch never spans a morsel: Scan returns at morsel boundaries and
//     every pipeline operator emits a non-empty output batch before
//     pulling the next child batch, so the consumer of a split part can
//     attribute a whole batch to its leaf Scan's current morsel.
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
	"slices"

	"conquer/internal/qerr"
	"conquer/internal/value"
)

// batchProbe is the probe-side state of a join: the probe input batch
// with a cursor, the last fill's block, and the run-length ordinal
// generator that tags join fanout (base carried over from the probe row,
// sequence counting emissions per base). The probe batch is transient: a
// fill copies the probe rows' values out before the next one is pulled.
type batchProbe struct {
	probe    *Batch
	idx      int
	out      []value.Value
	lastBase int64
	seq      int64
}

func (p *batchProbe) reset() {
	// The block starts over with every Open: a tree re-opened many times
	// over small inputs (one candidate world after another) must not keep
	// a batch-sized block it carves a few rows from.
	p.probe, p.idx, p.out = nil, 0, nil
	p.lastBase, p.seq = -1, 0
}

// block returns the n values of one fill, one block of exactly n, and
// keeps it as out. The rows of a transient batch's previous fill are dead
// by its consumer's promise, so their block is carved again when it holds
// n; a larger fill gets a fresh block, which the next fills return to. A
// plain batch's rows are never overwritten: each of its fills gets a block
// of its own.
func (p *batchProbe) block(n int, transient bool) []value.Value {
	if transient && p.out != nil && cap(p.out) >= n {
		recycle(p.out)
	} else {
		p.out = make([]value.Value, n)
	}
	return p.out[:n:n]
}

// nextOrd tags one emitted row of the probe row whose ordinal base is base
// with (base, run-length sequence).
func (p *batchProbe) nextOrd(base int64) rowOrd {
	if base == p.lastBase {
		p.seq++
	} else {
		p.lastBase, p.seq = base, 0
	}
	return rowOrd{base: base, seq: p.seq}
}

// valueSlab is a forward-only arena of value slices: carve returns a fresh
// width-sized slice, allocating a new block when the newest runs dry. A
// block holds the rows the carver's batch bounds — the input batch's
// length for the build's keys — or twice the previous block when that is
// more, up to one full batch: an operator that carves a handful of rows
// hands the GC a handful of slots, not a width×batchCap pointer slab, and
// a sustained output settles on one block per batch. A carver that knows
// better sizes the next block itself (refill), as a streaming aggregate
// does. Carved slices are never overwritten.
type valueSlab struct {
	block []value.Value
	rows  int // rows of the newest block
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

// carve returns the next width-sized slice; bound is the rows the carver
// is known to need and batchCap the most one batch holds.
func (s *valueSlab) carve(width, bound, batchCap int) []value.Value {
	if width == 0 {
		// A keyless join's build keys are zero-width; they are still key
		// vectors, so not nil.
		return []value.Value{}
	}
	if len(s.block) < width {
		s.refill(width, min(max(bound, 2*s.rows), batchCap))
	}
	row := s.block[:width:width]
	s.block = s.block[width:]
	return row
}

// refill starts a new block of rows width-wide rows.
func (s *valueSlab) refill(width, rows int) {
	s.rows = rows
	s.block = make([]value.Value, width*rows)
}

// NextBatch fills b from the current morsel, claiming the next one when
// it runs dry, so a batch never crosses a morsel boundary; a shared scan
// tags every row with its ordinal, so that the consumers of a split can
// restore serial order without leaf callbacks. The fill loop polls the
// ticker per row: a batch is the unit of *work* amortization, but
// cancellation latency must stay within pollInterval rows, not a whole
// batch.
func (s *Scan) NextBatch(b *Batch) error {
	b.Reset()
	for s.pos == s.end {
		if err := s.gov.PollBatch(); err != nil {
			return err
		}
		m, lo, hi, ok := s.cursor.claim()
		if !ok {
			return nil // empty batch: exhausted
		}
		s.claims++
		s.stats.incBatch()
		s.morsel, s.pos, s.end = m, lo, hi
	}
	shared := s.cursor != &s.own
	b.reserve(s.end-s.pos, shared)
	for !b.Full() && s.pos < s.end {
		if err := s.gov.PollLeaf(); err != nil {
			return err
		}
		if err := s.Table.ScanFault(); err != nil {
			return fmt.Errorf("exec: scanning %s: %w", s.Table.Schema.Name, err)
		}
		if shared {
			b.AppendOrd(s.Table.Row(s.pos), rowOrd{base: int64(s.pos)})
		} else {
			b.Append(s.Table.Row(s.pos))
		}
		s.pos++
	}
	s.read += b.Len()
	s.stats.addOut(int64(b.Len()))
	return nil
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
// directly; ordinal tags propagate unchanged.
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
	width := len(p.cols)
	if b.transient && len(p.out) >= n*width {
		recycle(p.out)
	} else {
		p.out = make([]value.Value, n*width)
	}
	slab := p.out
	for i := 0; i < n; i++ {
		row := p.scratch.Row(i)
		out := slab[i*width : (i+1)*width : (i+1)*width]
		for c := range p.cols {
			o := &p.cols[c]
			if o.col >= 0 { // a passthrough, copied in place
				out[c] = row[o.col]
				continue
			}
			v, err := o.eval(row)
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
// batch in one pass; probeKeys[i].keys == nil marks a NULL key (never
// joins). The keys are refilled into the join's one key slab, whose
// previous contents die here: the next probe batch is pulled only after
// every bucket of the current one is drained, and nothing keeps a probe
// key. The slab is never nil, so a keyless join's empty key vectors are
// not nil either, and its rows all join.
func (j *HashJoin) prehash(n int) error {
	if cap(j.probeKeys) < n {
		j.probeKeys = make([]probeKey, n)
	}
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
			j.probeKeys[i] = probeKey{}
			continue
		}
		j.probeKeys[i] = probeKey{keys: keys, hash: value.HashRow(keys)}
	}
	return nil
}

// NextBatch matches before it carves. For the pending probe batch, match
// records the (probe row, build entry) pairs of one fill, at most b's
// capacity of them; fill then reserves exactly their rows, carves one
// block of exactly their values and writes them without comparing a key
// again. An output batch never merges rows of two probe batches,
// preserving morsel alignment.
func (j *HashJoin) NextBatch(b *Batch) error {
	b.Reset()
	for {
		if err := j.gov.PollBatch(); err != nil {
			return err
		}
		if j.next == 0 && (j.bp.probe == nil || j.bp.idx >= j.bp.probe.Len()) {
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
			j.bp.idx = 0
			if err := j.prehash(pn); err != nil {
				return err
			}
		}
		if m := j.match(b.Cap()); len(m) > 0 {
			j.fill(b, m)
			j.stats.addOut(int64(len(m)))
			j.stats.incBatch()
			return nil
		}
	}
}

// match walks the pending probe batch's buckets in probe order into the
// match vector, stopping at limit pairs or at the batch's end: the chain
// cursor — the bucket of probe row idx-1 from link next on, then probe row
// idx — resumes where the last fill stopped, so a fan-out past the limit
// spans fills in bucket order.
func (j *HashJoin) match(limit int) []joinMatch {
	m, entries := j.matches[:0], j.build.entries
	n, from := j.bp.probe.Len(), j.bp.idx
	if j.next != 0 {
		from--
	}
	for {
		if j.next != 0 {
			i := j.bp.idx - 1
			h, keys := j.probeKeys[i].hash, j.probeKeys[i].keys
			for j.next != 0 {
				if len(m) == limit {
					j.matches = m
					return m
				}
				at := j.next - 1
				e := &entries[at]
				j.next = e.next
				// The bucket's other keys, of this hash or another, are skipped.
				if e.hash != h || !keysEqual(e.keys, keys) {
					continue
				}
				if len(m) == cap(m) {
					ahead := 0
					if i == from {
						ahead = j.chainAhead(h, limit-len(m)-1)
					}
					m = growMatches(m, i-from, n-from, ahead, limit)
				}
				m = append(m, joinMatch{probe: int32(i), entry: at})
			}
		}
		if j.bp.idx >= n {
			j.matches = m
			return m
		}
		i := j.bp.idx
		j.bp.idx++
		if pk := &j.probeKeys[i]; pk.keys != nil { // NULL join keys never join
			j.next = j.build.lookup(pk.hash)
		}
	}
}

// chainAhead counts the entries of hash h left on the chain the cursor
// is walking, up to most: what the probe row being walked may still match.
func (j *HashJoin) chainAhead(h uint64, most int) int {
	c, entries := 0, j.build.entries
	for at := j.next; at != 0 && c < most; at = entries[at-1].next {
		if entries[at-1].hash == h {
			c++
		}
	}
	return c
}

// growMatches makes room in a full match vector for the pairs its fill is
// expected to make: the pairs so far, the one being added and the ahead
// ones its row's chain may still give, scaled from the done probe rows
// whose buckets the fill has walked to all rows it may walk — from the row
// being walked when none is done — and at least twice the vector, at most
// limit. A 1:1 join sizes the vector on its first match, a fan-out on its
// first row's bucket (match passes ahead for that row only), so a one-row
// probe batch grows it once.
func growMatches(m []joinMatch, done, rows, ahead, limit int) []joinMatch {
	want := min(limit, max(2*cap(m), (len(m)+1+ahead)*rows/max(done, 1)))
	return slices.Grow(m, want-len(m))
}

// fill writes the matched rows into b, which holds them without growing,
// from one block of exactly their values, each tagged with its probe row's
// ordinal and its place in that row's fan-out.
func (j *HashJoin) fill(b *Batch, m []joinMatch) {
	width := len(j.schema)
	b.reserve(len(m), true)
	block := j.bp.block(len(m)*width, b.transient)
	probe, entries := j.bp.probe, j.build.entries
	cur, left, base := int32(-1), []value.Value(nil), int64(0)
	for k, p := range m {
		if p.probe != cur { // a probe row's matches are consecutive
			cur, left, base = p.probe, probe.Row(int(p.probe)), probe.Ord(int(p.probe)).base
		}
		out := block[k*width : (k+1)*width : (k+1)*width]
		j.emit(out, left, entries[p.entry].row)
		b.AppendOrd(out, j.bp.nextOrd(base))
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

func (s *Sort) handOver() ([][]value.Value, *OpStats) {
	return handOverRows(&s.rows, &s.pos), s.stats
}

// NextBatch emits the finished group rows batch-at-a-time.
func (a *HashAggregate) NextBatch(b *Batch) error {
	if err := a.gov.PollBatch(); err != nil {
		return err
	}
	emitMaterialized(b, a.out, &a.pos, a.stats)
	return nil
}

func (a *HashAggregate) handOver() ([][]value.Value, *OpStats) {
	return handOverRows(&a.out, &a.pos), a.stats
}

// NextBatch emits the reassembled rows batch-at-a-time. The batches
// counter is owned by fillPart (one per morsel run), so emission does not
// bump it.
func (g *Gather) NextBatch(b *Batch) error {
	if err := g.gov.PollBatch(); err != nil {
		return err
	}
	emitMaterialized(b, g.rows, &g.pos, g.stats)
	return nil
}

func (g *Gather) handOver() ([][]value.Value, *OpStats) {
	return handOverRows(&g.rows, &g.pos), g.stats
}
