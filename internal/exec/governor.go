package exec

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"conquer/internal/qerr"
)

// Limits is the execution budget of one query (or of one clean-answer
// evaluation spanning many queries). The zero value imposes no limits.
type Limits struct {
	// Timeout is the wall-clock budget; entry points (engine.QueryCtx,
	// core.Evaluator.Eval) apply it to their context once, at the
	// outermost call.
	Timeout time.Duration
	// MaxBufferedRows caps the rows held concurrently in stateful
	// operator memory: hash-join build tables, aggregate groups, sort
	// and cross-join buffers, DISTINCT's seen set. Exceeding it fails
	// the query with qerr.ErrBudgetExceeded.
	MaxBufferedRows int64
	// MaxOutputRows caps the rows a query may return.
	MaxOutputRows int64
	// MaxCandidates caps candidate-database enumeration for the exact
	// evaluator, counted over the relations the statement names (0 falls
	// back to dirty.EnumerateLimit).
	MaxCandidates int64
	// MaxSamples caps Monte-Carlo sample counts.
	MaxSamples int
}

// WithContext derives a context carrying the Timeout. Without one it
// returns ctx itself and a cancel func that does nothing: a query joins
// every goroutine it starts before it returns (qerr.Pool cancels its own
// workers), so no derived context is needed to stop them, and a query or
// an evaluation — a cache hit included — pays for none. The returned
// cancel func must always be called.
//
// The deadline is installed with qerr.ErrDeadline as its cause, marking
// it as the engine's own query timeout: qerr.FromContext reports a
// marked deadline as ErrDeadline ("deadline", HTTP 504) and any other
// termination — explicit cancel or a deadline the caller imposed — as
// ErrCanceled ("canceled", HTTP 499), so the serving layer can tell who
// gave up.
func (l Limits) WithContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if l.Timeout > 0 {
		return context.WithTimeoutCause(ctx, l.Timeout,
			fmt.Errorf("exec: query timeout %v: %w", l.Timeout, qerr.ErrDeadline))
	}
	return ctx, func() {}
}

// CheckOutput fails with qerr.ErrBudgetExceeded when rows result rows
// pass MaxOutputRows: the check a governor makes as rows leave the root,
// and the one a cached result makes before it is served.
func (l Limits) CheckOutput(rows int64) error {
	if l.MaxOutputRows > 0 && rows > l.MaxOutputRows {
		return fmt.Errorf("exec: output rows exceed budget %d: %w",
			l.MaxOutputRows, qerr.ErrBudgetExceeded)
	}
	return nil
}

// WithoutTimeout returns a copy with the Timeout cleared; inner layers
// use it so a budget applied once at the entry point is not re-applied
// per sub-query.
func (l Limits) WithoutTimeout() Limits {
	l.Timeout = 0
	return l
}

// Governor enforces a Limits budget over one operator tree: operators
// poll it for cancellation inside their row loops and account the rows
// they buffer against the shared budget. Every run has one: NewGovernor
// makes it and Attach installs it before the tree opens. It carries the
// run's worker count too, so one tree serves every count (DESIGN.md §9).
//
// One Governor value serves one goroutine (its poll ticker is not
// synchronized), but the budget counters live in state shared by every
// governor Fork derives, so parallel workers draw on the same budget.
type Governor struct {
	ctx     context.Context
	limits  Limits
	workers int
	tick    qerr.Ticker
	shared  *govShared
}

// govShared is the budget state common to a governor and all its forks;
// counters are atomic because forks run on worker goroutines.
type govShared struct {
	buffered atomic.Int64
	output   atomic.Int64
	peak     atomic.Int64 // buffered high-water mark across the whole query
}

// NewGovernor creates a governor enforcing limits under ctx, for a serial
// run. Timeout is not applied here — see Limits.WithContext.
func NewGovernor(ctx context.Context, limits Limits) *Governor {
	return &Governor{ctx: ctx, limits: limits, workers: 1, shared: &govShared{}}
}

// SetWorkers sets the run's worker count before the tree opens; n <= 1 is serial.
func (g *Governor) SetWorkers(n int) { g.workers = max(n, 1) }

// Fork derives a governor for a worker goroutine running under ctx
// (typically a cancelable child of the parent's context, so the
// coordinator can drain the pool on first error). The fork has a fresh
// poll ticker but draws on the parent's budget counters and worker count.
func (g *Governor) Fork(ctx context.Context) *Governor {
	return &Governor{ctx: ctx, limits: g.limits, workers: g.workers, shared: g.shared}
}

// Context returns the governing context.
func (g *Governor) Context() context.Context { return g.ctx }

// Poll is the per-row cancellation check: amortized over the poll
// interval, it returns a qerr taxonomy error once the context
// terminates. Loops that walk materialized rows one at a time (sort-key
// evaluation, group emission, the merges after a worker barrier) call it
// per iteration.
func (g *Governor) Poll() error { return g.tick.Poll(g.ctx) }

// PollLeaf is the per-row cancellation check of the leaf fill loops
// (Scan, MorselScan): the only per-row poll of a pipeline. It advances
// the ticker twice per call, so a leaf checks the context every 128
// scanned rows (half of qerr's poll interval). Where a cancellation or
// an injected context fault lands in a scan depends on that cadence.
func (g *Governor) PollLeaf() error {
	if err := g.Poll(); err != nil {
		return err
	}
	return g.Poll()
}

// PollBatch is the per-batch cancellation check: unlike Poll it checks
// the context on every call. A batch already amortizes hundreds of rows,
// so routing batch loops through the ticker would stretch cancellation
// latency to pollInterval batches.
func (g *Governor) PollBatch() error { return qerr.FromContext(g.ctx) }

// ReserveBuffered charges n rows against the buffered-row budget,
// failing with qerr.ErrBudgetExceeded once the budget is exhausted.
func (g *Governor) ReserveBuffered(n int64) error {
	buffered := g.shared.buffered.Add(n)
	for {
		peak := g.shared.peak.Load()
		if buffered <= peak || g.shared.peak.CompareAndSwap(peak, buffered) {
			break
		}
	}
	if g.limits.MaxBufferedRows > 0 && buffered > g.limits.MaxBufferedRows {
		return fmt.Errorf("exec: %d buffered rows exceed budget %d: %w",
			buffered, g.limits.MaxBufferedRows, qerr.ErrBudgetExceeded)
	}
	return nil
}

// ReleaseBuffered returns n previously reserved rows to the budget;
// operators call it from Close when they drop their state.
func (g *Governor) ReleaseBuffered(n int64) {
	if g.shared.buffered.Add(-n) < 0 {
		g.shared.buffered.Store(0)
	}
}

// Buffered returns the rows currently charged against the budget.
func (g *Governor) Buffered() int64 { return g.shared.buffered.Load() }

// BufferedPeak returns the query's buffered-row high-water mark — the
// largest concurrent reservation observed across all forks.
func (g *Governor) BufferedPeak() int64 { return g.shared.peak.Load() }

// CountOutputN charges n result rows against the output budget in one
// atomic add, once per root batch.
func (g *Governor) CountOutputN(n int64) error {
	return g.limits.CheckOutput(g.shared.output.Add(n))
}

// governed is the part of Operator that takes the run's governor.
type governed interface {
	setGovernor(*Governor)
}

// govHolder embeds the governor reference into an operator; Attach
// installs it through the governed interface.
type govHolder struct {
	gov *Governor
}

func (h *govHolder) setGovernor(g *Governor) { h.gov = g }

// workers is the attached governor's worker count, 1 before Attach.
func (h *govHolder) workers() int {
	if h.gov == nil {
		return 1
	}
	return h.gov.workers
}

// Attach readies the tree rooted at op for a run under g, the one way a
// tree runs: it installs g on every operator and points each at its
// OpStats block, so every run is governed and counted. The engine calls it
// before each run of a prepared tree; it allocates nothing.
func Attach(op Operator, g *Governor) {
	op.setGovernor(g)
	op.opStats()
	for _, c := range children(op) {
		if c != nil {
			Attach(c, g)
		}
	}
}
