// Per-operator instrumentation (DESIGN.md §10). Every operator carries
// an OpStats block counting rows in/out, batches (morsels for scans,
// reassembly batches for Gather), buffered-row reservations and, on a
// timed tree, an inclusive wall-clock window. Attach installs the block,
// so there is no uncounted run. Counters are atomic and *shared between
// an operator and its split-pipeline clones*: splitPipeline propagates
// the template's OpStats pointer into every MorselScan and part clone, so
// the template tree the planner returned — the one EXPLAIN renders —
// reports totals across all workers without any merge step.
package exec

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// now is the clock the wall-clock window reads, only on a timed tree
// (Instrument): once as an operator (or a worker's clone of it) opens and
// once as it closes, however many rows pass. A variable so that a test can
// count the reads.
var now = time.Now

// OpStats holds one operator's execution counters. The counters are
// atomic: probe parts, morsel scans and build workers update the same
// block concurrently.
type OpStats struct {
	in       atomic.Int64
	out      atomic.Int64
	batches  atomic.Int64
	buffered atomic.Int64
	start    atomic.Int64 // unix nanos of the first Open
	end      atomic.Int64 // unix nanos of exhaustion/Close (max wins)
	// oneMorsel records that the operator was configured to split its
	// input across workers and opened it serially because every table it
	// reads held at most one morsel (opensSplit).
	oneMorsel atomic.Bool
	// timed makes markOpen and markDone read the clock. Instrument sets
	// it before the tree runs; nothing writes it during a run.
	timed bool
}

// markOneMorsel records a serial open under the one-morsel rule.
func (s *OpStats) markOneMorsel() { s.oneMorsel.Store(true) }

// addIn counts rows the operator pulled from its children.
func (s *OpStats) addIn(n int64) { s.in.Add(n) }

// addOut counts n emitted rows in one atomic add, once per output batch.
func (s *OpStats) addOut(n int64) {
	if n != 0 {
		s.out.Add(n)
	}
}

// incBatch counts one batch: a claimed morsel for scans, one reassembled
// worker run for Gather.
func (s *OpStats) incBatch() { s.batches.Add(1) }

// addBuffered counts rows reserved against the buffered-row budget.
// Operators release their reservations only at Close, so the cumulative
// count is also the operator's buffered high-water mark.
func (s *OpStats) addBuffered(n int64) { s.buffered.Add(n) }

// markOpen records the wall-clock start once; with split pipelines the
// first clone to open wins.
func (s *OpStats) markOpen() {
	if !s.timed {
		return
	}
	s.start.CompareAndSwap(0, now().UnixNano())
}

// markDone advances the wall-clock end; the last clone to finish wins.
func (s *OpStats) markDone() {
	if !s.timed {
		return
	}
	t := now().UnixNano()
	for {
		cur := s.end.Load()
		if t <= cur || s.end.CompareAndSwap(cur, t) {
			return
		}
	}
}

// RowsIn returns the rows pulled from children (0 for leaves).
func (s *OpStats) RowsIn() int64 { return s.in.Load() }

// RowsOut returns the rows the operator emitted.
func (s *OpStats) RowsOut() int64 { return s.out.Load() }

// Batches returns the batch count (morsels claimed, for scans).
func (s *OpStats) Batches() int64 { return s.batches.Load() }

// Buffered returns the cumulative buffered-row reservations — the
// operator's high-water mark, since releases happen only at Close.
func (s *OpStats) Buffered() int64 { return s.buffered.Load() }

// Elapsed returns the inclusive wall-clock window from the operator's
// first Open to its last exhaustion (0 when the operator never ran, never
// finished or was not timed).
func (s *OpStats) Elapsed() time.Duration {
	start, end := s.start.Load(), s.end.Load()
	if start == 0 || end <= start {
		return 0
	}
	return time.Duration(end - start)
}

// instrumented is the part of Operator that reaches its OpStats block.
type instrumented interface {
	opStats() *OpStats
	setStats(*OpStats)
}

// statsHolder embeds the stats reference into an operator, mirroring
// govHolder. splitPipeline copies the pointer into clones so counters
// aggregate across workers.
type statsHolder struct {
	stats *OpStats
}

func (h *statsHolder) opStats() *OpStats   { return h.stats }
func (h *statsHolder) setStats(s *OpStats) { h.stats = s }

// Instrument makes every operator of the tree time its runs as well as
// count them: it installs an OpStats block where Attach has not yet, and
// marks every block timed, so that each operator (or worker clone of it)
// reads the clock once as it opens and once as it finishes, however many
// rows pass. Call it after planning and before a run; the engine times
// every tree it prepares.
func Instrument(op Operator) {
	if op.opStats() == nil {
		op.setStats(&OpStats{})
	}
	op.opStats().timed = true
	for _, c := range children(op) {
		if c != nil {
			Instrument(c)
		}
	}
}

// ExplainAnalyze renders the operator tree like Explain, annotated with
// the observed counters: rows in/out, batches, buffered reservations and
// inclusive wall time. Call it after the tree has executed. Gather nodes
// additionally report the morsels each worker claimed.
func ExplainAnalyze(op Operator) string {
	var b strings.Builder
	explainAnalyze(&b, op, 0)
	return b.String()
}

func explainAnalyze(b *strings.Builder, op Operator, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(op.Describe())
	s := op.opStats()
	fmt.Fprintf(b, " (in=%d out=%d", s.RowsIn(), s.RowsOut())
	if n := s.Batches(); n > 0 {
		fmt.Fprintf(b, " batches=%d", n)
		if out := s.RowsOut(); out > 0 {
			fmt.Fprintf(b, " rows/batch=%d", out/n)
		}
	}
	if n := s.Buffered(); n > 0 {
		fmt.Fprintf(b, " buffered=%d", n)
	}
	switch op.(type) {
	case *Filter, *Distinct:
		if in := s.RowsIn(); in > 0 {
			fmt.Fprintf(b, " sel=%.2f", float64(s.RowsOut())/float64(in))
		}
	}
	fmt.Fprintf(b, " time=%s)", s.Elapsed().Round(time.Microsecond))
	if s.oneMorsel.Load() {
		b.WriteString(" [serial: one morsel]")
	}
	if g, ok := op.(*Gather); ok && len(g.workerMorsels) > 0 {
		parts := make([]string, len(g.workerMorsels))
		for w, m := range g.workerMorsels {
			parts[w] = fmt.Sprintf("w%d:%d", w, m)
		}
		fmt.Fprintf(b, " morsels=[%s]", strings.Join(parts, " "))
	}
	b.WriteByte('\n')
	for _, c := range children(op) {
		if c != nil {
			explainAnalyze(b, c, depth+1)
		}
	}
}

// StatLine is one operator's counters in StatsTree's pre-order listing.
type StatLine struct {
	Depth    int
	Op       string // Describe() output
	In       int64
	Out      int64
	Batches  int64
	Buffered int64
}

// StatsTree lists the tree's operators pre-order with their counters —
// the programmatic twin of ExplainAnalyze, used by the determinism suite
// to compare counters across worker counts.
func StatsTree(op Operator) []StatLine {
	var out []StatLine
	statsTree(op, 0, &out)
	return out
}

func statsTree(op Operator, depth int, out *[]StatLine) {
	s := op.opStats()
	*out = append(*out, StatLine{
		Depth: depth, Op: op.Describe(),
		In: s.RowsIn(), Out: s.RowsOut(), Batches: s.Batches(), Buffered: s.Buffered(),
	})
	for _, c := range children(op) {
		if c != nil {
			statsTree(c, depth+1, out)
		}
	}
}

// CheckConservation verifies the row-flow invariant over an executed
// tree: every operator's rows-in equals the sum of its children's
// rows-out — each row a child emitted was counted exactly once by the
// parent that pulled it. Leaves have no children to check.
func CheckConservation(op Operator) error {
	kids := children(op)
	if kids[0] != nil {
		var sum int64
		for _, c := range kids {
			if c != nil {
				sum += c.opStats().RowsOut()
			}
		}
		if in := op.opStats().RowsIn(); sum != in {
			return fmt.Errorf("exec: conservation violated at %s: rows-in=%d but children emitted %d",
				op.Describe(), in, sum)
		}
	}
	for _, c := range kids {
		if c == nil {
			continue
		}
		if err := CheckConservation(c); err != nil {
			return err
		}
	}
	return nil
}
