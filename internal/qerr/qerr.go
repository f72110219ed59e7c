// Package qerr defines the typed error taxonomy of the query-execution
// stack. Every governed code path — the physical operators, the three
// clean-answer evaluators, candidate enumeration and sampling — reports
// resource exhaustion and termination through these sentinels so callers
// dispatch with errors.Is instead of string matching:
//
//	ErrCanceled          the caller gave up: its context was canceled, or
//	                     a deadline the caller itself imposed passed
//	ErrDeadline          the engine's own query timeout (exec.Limits.Timeout)
//	                     passed
//	ErrShutdown          the serving process canceled the query while
//	                     draining for shutdown
//	ErrBudgetExceeded    an exec.Limits budget (buffered rows, output
//	                     rows, samples) was exhausted
//	ErrTooManyCandidates the candidate-database count exceeds the
//	                     enumeration budget (Dfn 3 is exponential)
//	ErrBadModel          the dirty-database metadata is unusable (NULL or
//	                     missing cluster identifiers, invalid probabilities)
//	ErrInternal          an executor panic was caught at a recovery
//	                     boundary (see Recover)
//
// The package also provides the shared machinery the taxonomy implies:
// FromContext maps a context's termination onto the sentinels, Ticker
// amortizes cancellation polling across tight per-row loops, Recover
// converts panics into *PanicError values with captured stacks at the
// engine and facade entry points, and Pool runs the worker pools of the
// executor and of the offline probability pass under those rules.
package qerr

import (
	"context"
	"errors"
	"fmt"
	"runtime"
)

// Sentinel errors of the taxonomy. They are compared with errors.Is;
// concrete failures wrap them with %w and add detail.
var (
	ErrCanceled          = errors.New("query canceled")
	ErrDeadline          = errors.New("query deadline exceeded")
	ErrShutdown          = errors.New("query aborted by server shutdown")
	ErrBudgetExceeded    = errors.New("execution budget exceeded")
	ErrTooManyCandidates = errors.New("too many candidate databases")
	ErrBadModel          = errors.New("invalid dirty-database model")
	ErrInternal          = errors.New("internal execution error")
)

// FromContext maps a context's termination state onto the taxonomy: nil
// while the context is live, a taxonomy error afterwards. The original
// context error stays reachable through errors.Is as well.
//
// Attribution is cause-aware (the 499-vs-504 split the serving layer
// depends on): whoever terminates a context can install a taxonomy error
// as its cause — exec.Limits.WithContext marks its own deadline with
// ErrDeadline, a draining server cancels with ErrShutdown — and that
// cause is reported directly. Without a taxonomy cause the termination
// is attributed to the caller and reported as ErrCanceled, *including* a
// bare deadline: a deadline the engine did not set is the caller's own
// clock expiring, which is the caller giving up exactly like an explicit
// cancel. Only the engine's configured query timeout reports ErrDeadline.
func FromContext(ctx context.Context) error {
	err := ctx.Err()
	if err == nil {
		return nil
	}
	if cause := context.Cause(ctx); cause != nil && Reason(cause) != "" {
		return fmt.Errorf("qerr: %w: %w", cause, err)
	}
	return fmt.Errorf("qerr: %w: %w", ErrCanceled, err)
}

// Reason classifies err into a short stable keyword for user-facing
// display — "canceled", "deadline", "shutdown", "budget", "candidates",
// "model", "internal" — or "" when err is outside the taxonomy.
func Reason(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrDeadline):
		return "deadline"
	case errors.Is(err, ErrShutdown):
		return "shutdown"
	case errors.Is(err, ErrCanceled):
		return "canceled"
	case errors.Is(err, ErrBudgetExceeded):
		return "budget"
	case errors.Is(err, ErrTooManyCandidates):
		return "candidates"
	case errors.Is(err, ErrBadModel):
		return "model"
	case errors.Is(err, ErrInternal):
		return "internal"
	}
	return ""
}

// LogReason is the query-log variant of Reason: "" for nil, the
// taxonomy keyword for typed errors, and "error" for failures outside
// the taxonomy — a log line should always record that a query failed
// even when the failure is untyped.
func LogReason(err error) string {
	if err == nil {
		return ""
	}
	if r := Reason(err); r != "" {
		return r
	}
	return "error"
}

// IsResource reports whether err is a degradable resource failure — one
// the graceful-degradation ladder may respond to by retrying a cheaper
// evaluation method. Cancellation and deadline are deliberately excluded:
// once the caller has given up, no rung can help.
func IsResource(err error) bool {
	return errors.Is(err, ErrBudgetExceeded) || errors.Is(err, ErrTooManyCandidates)
}

// pollInterval is how many Poll calls pass between context checks; a
// power of two so the modulus compiles to a mask. Cancellation is
// therefore noticed within pollInterval rows of work (the first call
// always checks, so short queries are covered too).
const pollInterval = 256

// Ticker amortizes context polling across tight per-row loops. The zero
// value is ready to use; Ticker is not safe for concurrent use — create
// one per goroutine.
type Ticker struct {
	n uint64
}

// Poll checks the context on the first call and every pollInterval-th
// call thereafter, returning a taxonomy error once ctx terminates.
func (t *Ticker) Poll(ctx context.Context) error {
	t.n++
	if t.n&(pollInterval-1) != 1 {
		return nil
	}
	return FromContext(ctx)
}

// PanicError is a panic caught at a recovery boundary, carrying the
// recovered value and the goroutine stack at the point of the panic. It
// matches errors.Is(err, ErrInternal).
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("qerr: recovered panic: %v", e.Value)
}

// Unwrap makes the error dispatchable as ErrInternal, and as the panic
// value itself when the panic carried an error.
func (e *PanicError) Unwrap() []error {
	if err, ok := e.Value.(error); ok {
		return []error{ErrInternal, err}
	}
	return []error{ErrInternal}
}

// Recover converts an in-flight panic into a *PanicError stored in
// *errp. Use it in a defer at an execution boundary (engine.Query*, the
// facade's clean-answer entry points) so executor bugs surface as typed,
// loggable errors instead of tearing the process down:
//
//	func Exec(...) (res *Result, err error) {
//		defer qerr.Recover(&err)
//		...
//	}
func Recover(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	buf := make([]byte, 64<<10)
	buf = buf[:runtime.Stack(buf, false)]
	*errp = &PanicError{Value: r, Stack: buf}
}

// Pool runs fn on n goroutines, worker w as fn(ctx, w), under a cancelable
// child of ctx: the first failure cancels the rest, so the pool drains, and
// a panic crosses the goroutine boundary only as a Recover error. Pool
// returns once every worker has exited, with the root cause: the first
// error, unless it is a cancellation and a later one is not — a worker that
// saw the pool's own cancel reports ErrCanceled after the failure that
// caused it.
func Pool(ctx context.Context, n int, fn func(ctx context.Context, w int) error) error {
	wctx, cancel := context.WithCancel(ctx) // a new name: ctx reassigned would escape
	defer cancel()
	errs := make(chan error, n)
	for w := 0; w < n; w++ {
		go func(w int) {
			var err error
			func() {
				defer Recover(&err)
				err = fn(wctx, w)
			}()
			if err != nil {
				cancel()
			}
			errs <- err
		}(w)
	}
	var first error
	for i := 0; i < n; i++ {
		err := <-errs
		switch {
		case err == nil:
		case first == nil:
			first = err
		case errors.Is(first, ErrCanceled) && !errors.Is(err, ErrCanceled):
			first = err
		}
	}
	return first
}
