// Package exec seeds unpolled-operator-loop violations for the ctxpoll
// analyzer (the analyzer keys on the package name, so the fixture
// declares itself "exec").
package exec

// governor stands in for the real exec.Governor.
type governor struct{}

func (g *governor) Poll() error      { return nil }
func (g *governor) PollBatch() error { return nil }
func (g *governor) PollLeaf() error  { return nil }

// Row is a placeholder row type.
type Row []int

// BadBuild drains its input into memory inside Open without ever polling —
// the violation ctxpoll exists for.
type BadBuild struct {
	input []Row
	built [][]int
}

// Open buffers the whole input.
func (b *BadBuild) Open() error {
	for _, r := range b.input { // want `does not poll cancellation`
		b.built = append(b.built, r)
	}
	return nil
}

// GoodBuild polls its governor at the top of the row loop.
type GoodBuild struct {
	gov   *governor
	input []Row
	built [][]int
}

// Open polls before each row.
func (b *GoodBuild) Open() error {
	for _, r := range b.input {
		if err := b.gov.Poll(); err != nil {
			return err
		}
		b.built = append(b.built, r)
	}
	return nil
}

// GoodAnnotated shows the sanctioned escape hatch for loops bounded by
// the schema width rather than the data size.
type GoodAnnotated struct {
	widths []int
}

// Open sums fixed-width schema metadata.
func (g *GoodAnnotated) Open() error {
	total := 0
	for _, w := range g.widths { //lint:allow ctxpoll -- bounded by schema width, not data size
		total += w
	}
	_ = total
	return nil
}

// helper loops outside Open that pull no batch are not the analyzer's
// business.
func (g *GoodAnnotated) describe() int {
	n := 0
	for range g.widths {
		n++
	}
	return n
}

// pool stands in for package qerr, whose Pool runs the exec worker pools;
// the analyzer matches the call qerr.Pool by its spelling.
type pool struct{}

func (pool) Pool(ctx any, n int, fn func(ctx any, w int) error) error {
	for w := 0; w < n; w++ { //lint:allow ctxpoll -- bounded by worker count
		if err := fn(ctx, w); err != nil {
			return err
		}
	}
	return nil
}

var qerr pool

// fork stands in for Governor.Fork.
func fork(any) *governor { return &governor{} }

// BadGoWorker launches a goroutine whose row loop never polls — under
// the parallel layer such a worker outlives cancellation by its whole
// input.
func BadGoWorker(rows []Row) {
	done := make(chan struct{})
	go func() {
		for _, r := range rows { // want `worker function spawned by BadGoWorker does not poll`
			_ = r
		}
		close(done)
	}()
	<-done
}

// BadPoolWorker hands qerr.Pool a loop that never polls its forked
// governor.
func BadPoolWorker(rows []Row) error {
	return qerr.Pool(nil, 2, func(ctx any, w int) error {
		for _, r := range rows { // want `worker function spawned by BadPoolWorker does not poll`
			_ = r
		}
		return nil
	})
}

// GoodPoolWorker polls the forked governor at the top of its row loop.
func GoodPoolWorker(rows []Row) error {
	return qerr.Pool(nil, 2, func(ctx any, w int) error {
		gov := fork(ctx)
		for _, r := range rows {
			if err := gov.Poll(); err != nil {
				return err
			}
			_ = r
		}
		return nil
	})
}

// Batch stands in for the real exec.Batch.
type Batch struct{ rows []Row }

func (b *Batch) Len() int     { return len(b.rows) }
func (b *Batch) Full() bool   { return len(b.rows) >= 4 }
func (b *Batch) Reset()       { b.rows = b.rows[:0] }
func (b *Batch) Append(r Row) { b.rows = append(b.rows, r) }

// child stands in for an operator below the one under test.
type child interface {
	NextBatch(b *Batch) error
}

// BadBatchFilter pulls child batches in a loop without polling: empty or filtered-out child
// batches keep the loop spinning unbounded by the batch in hand.
type BadBatchFilter struct {
	child child
}

// NextBatch skips empty child batches, never polling.
func (f *BadBatchFilter) NextBatch(b *Batch) error {
	for { // want `batch-puller loop in BadBatchFilter.NextBatch does not poll cancellation`
		if err := f.child.NextBatch(b); err != nil {
			return err
		}
		if b.Len() != 1 {
			return nil
		}
	}
}

// GoodBatchFilter polls once per pulled batch — the amortized cadence
// batching exists for.
type GoodBatchFilter struct {
	gov   *governor
	child child
}

// NextBatch polls at the top of the puller loop.
func (f *GoodBatchFilter) NextBatch(b *Batch) error {
	for {
		if err := f.gov.PollBatch(); err != nil {
			return err
		}
		if err := f.child.NextBatch(b); err != nil {
			return err
		}
		if b.Len() != 1 {
			return nil
		}
	}
}

// badDrain is the drain an Open and its parallel workers share: a helper,
// neither Open nor NextBatch, whose puller loop is held to the batch
// cadence all the same.
func badDrain(c child, b *Batch) error {
	for { // want `batch-puller loop in badDrain does not poll cancellation`
		if err := c.NextBatch(b); err != nil {
			return err
		}
		if b.Len() == 0 {
			return nil
		}
	}
}

// drainer hands out a puller as a function literal, which the rule
// reaches too.
func (f *GoodBatchFilter) drainer(b *Batch) func() error {
	return func() error {
		for b.Len() != 0 { // want `batch-puller loop in GoodBatchFilter.drainer does not poll cancellation`
			if err := f.child.NextBatch(b); err != nil {
				return err
			}
		}
		return nil
	}
}

// GoodBatchScan keeps the ticker-amortized per-row poll inside its fill
// loop: leaves are the only per-row pollers of a batch pipeline.
type GoodBatchScan struct {
	gov  *governor
	rows []Row
	pos  int
}

// NextBatch fills b from the table, polling per row.
func (s *GoodBatchScan) NextBatch(b *Batch) error {
	b.Reset()
	for !b.Full() && s.pos < len(s.rows) {
		if err := s.gov.PollLeaf(); err != nil {
			return err
		}
		b.Append(s.rows[s.pos])
		s.pos++
	}
	return nil
}

// GoodBatchProject polls once per batch; its copy loop only walks the
// batch in hand — bounded by the batch capacity, not the data size — so
// it needs neither a poll nor an annotation.
type GoodBatchProject struct {
	gov   *governor
	child child
}

// NextBatch projects one pulled batch.
func (p *GoodBatchProject) NextBatch(b *Batch) error {
	if err := p.gov.PollBatch(); err != nil {
		return err
	}
	if err := p.child.NextBatch(b); err != nil {
		return err
	}
	for i := 0; i < b.Len(); i++ {
		_ = b.rows[i]
	}
	return nil
}

// BadBatchEmitter neither polls nor pulls: its batches would be
// invisible to cancellation for the whole emission phase.
type BadBatchEmitter struct {
	rows []Row
	pos  int
}

// NextBatch emits materialized rows without ever touching the governor.
func (e *BadBatchEmitter) NextBatch(b *Batch) error { // want `BadBatchEmitter.NextBatch neither polls cancellation nor pulls a child`
	b.Reset()
	if e.pos < len(e.rows) {
		b.Append(e.rows[e.pos])
		e.pos++
	}
	return nil
}

// goodGather mirrors Gather.openParallel: the worker's collection loop
// polls, and the bounded reassembly loop is annotated.
type goodGather struct {
	gov *governor
}

// Open runs the partial pipelines.
func (g *goodGather) Open() error {
	batches := make([][]Row, 2)
	err := qerr.Pool(nil, 2, func(ctx any, w int) error {
		gov := fork(ctx)
		for {
			if err := gov.Poll(); err != nil {
				return err
			}
			break
		}
		return nil
	})
	for _, b := range batches { //lint:allow ctxpoll -- bounded by worker count
		_ = b
	}
	return err
}
