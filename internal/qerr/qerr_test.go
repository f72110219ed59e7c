package qerr

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestFromContext(t *testing.T) {
	if err := FromContext(context.Background()); err != nil {
		t.Fatalf("live context: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := FromContext(ctx)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("canceled: %v", err)
	}
	// The zero time is always in the past, so the deadline is already
	// exceeded when the context is created. A deadline the engine did
	// not mark is the caller's own clock: it classifies as the caller
	// giving up (ErrCanceled), with the deadline error still reachable.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Time{})
	defer dcancel()
	err = FromContext(dctx)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("caller deadline: %v", err)
	}
	if errors.Is(err, ErrDeadline) {
		t.Errorf("caller deadline classified as the engine's: %v", err)
	}
}

// Regression for the 499-vs-504 split: a client canceling (or timing
// out on its own clock) must stay distinguishable from the engine's
// configured query timeout and from a server draining for shutdown —
// the three cases an HTTP front end maps to 499, 504 and 503.
func TestFromContextCauseSplit(t *testing.T) {
	// Engine-marked deadline (the exec.Limits.WithContext convention):
	// cause carries ErrDeadline → reason "deadline".
	mctx, mcancel := context.WithTimeoutCause(context.Background(), 0,
		fmt.Errorf("query timeout: %w", ErrDeadline))
	defer mcancel()
	<-mctx.Done()
	if err := FromContext(mctx); Reason(err) != "deadline" || !errors.Is(err, ErrDeadline) {
		t.Errorf("marked deadline: reason %q, err %v", Reason(err), err)
	}

	// Client cancellation → reason "canceled".
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if err := FromContext(cctx); Reason(err) != "canceled" {
		t.Errorf("client cancel: reason %q", Reason(err))
	}

	// Client-imposed deadline → also "canceled": the client gave up.
	dctx, dcancel := context.WithTimeout(context.Background(), 0)
	defer dcancel()
	<-dctx.Done()
	if err := FromContext(dctx); Reason(err) != "canceled" {
		t.Errorf("client deadline: reason %q", Reason(err))
	}

	// Server drain: cancellation with ErrShutdown as the cause →
	// reason "shutdown", distinct from both of the above.
	sctx, scancel := context.WithCancelCause(context.Background())
	scancel(ErrShutdown)
	err := FromContext(sctx)
	if Reason(err) != "shutdown" || !errors.Is(err, ErrShutdown) || !errors.Is(err, context.Canceled) {
		t.Errorf("drain cancel: reason %q, err %v", Reason(err), err)
	}
	if errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadline) {
		t.Errorf("drain cancel leaked into canceled/deadline: %v", err)
	}
}

func TestReason(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{ErrCanceled, "canceled"},
		{ErrDeadline, "deadline"},
		{fmt.Errorf("wrapped: %w", ErrShutdown), "shutdown"},
		{fmt.Errorf("wrapped: %w", ErrBudgetExceeded), "budget"},
		{fmt.Errorf("wrapped: %w", ErrTooManyCandidates), "candidates"},
		{ErrBadModel, "model"},
		{ErrInternal, "internal"},
		{errors.New("unrelated"), ""},
	}
	for _, c := range cases {
		if got := Reason(c.err); got != c.want {
			t.Errorf("Reason(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestIsResource(t *testing.T) {
	if !IsResource(fmt.Errorf("x: %w", ErrBudgetExceeded)) || !IsResource(ErrTooManyCandidates) {
		t.Error("resource errors not recognized")
	}
	if IsResource(ErrCanceled) || IsResource(ErrDeadline) || IsResource(ErrShutdown) || IsResource(nil) {
		t.Error("non-degradable errors classified as resource")
	}
}

// The ticker must check the context on the very first call, so even
// queries far shorter than the poll interval observe cancellation.
func TestTickerPollsFirstCall(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var tick Ticker
	if err := tick.Poll(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("first poll = %v, want ErrCanceled", err)
	}
}

// Between checks the ticker must be free: no context inspection for the
// amortized calls.
func TestTickerAmortizes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var tick Ticker
	if err := tick.Poll(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	checked := 0
	for i := 0; i < 2*pollInterval; i++ {
		if tick.Poll(ctx) != nil {
			checked++
		}
	}
	if checked != 2 {
		t.Errorf("polls noticing cancellation = %d in 2 intervals, want 2", checked)
	}
}

func TestRecoverCapturesPanic(t *testing.T) {
	run := func() (err error) {
		defer Recover(&err)
		panic("kaboom") //lint:allow nopanic -- the panic under test
	}
	err := run()
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("recovered error = %v, want ErrInternal", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("recovered error is %T, want *PanicError", err)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "qerr") {
		t.Error("panic stack not captured")
	}
}

func TestRecoverUnwrapsErrorValue(t *testing.T) {
	cause := errors.New("root cause")
	run := func() (err error) {
		defer Recover(&err)
		panic(cause) //lint:allow nopanic -- the panic under test
	}
	err := run()
	if !errors.Is(err, cause) || !errors.Is(err, ErrInternal) {
		t.Fatalf("recovered error = %v, want both ErrInternal and the cause", err)
	}
}

func TestRecoverNoPanicLeavesErrorAlone(t *testing.T) {
	run := func() (err error) {
		defer Recover(&err)
		return nil
	}
	if err := run(); err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
}

// A pool returns after every worker has exited, with the failure that
// drained it rather than the cancellations it caused, and with a worker's
// panic as an ErrInternal error.
func TestPoolDrainsOnTheRootCause(t *testing.T) {
	cause := errors.New("root cause")
	var exited atomic.Int32
	err := Pool(context.Background(), 4, func(ctx context.Context, w int) error {
		defer exited.Add(1)
		if w == 2 {
			return cause
		}
		<-ctx.Done()
		return FromContext(ctx)
	})
	if !errors.Is(err, cause) {
		t.Errorf("pool error = %v, want the root cause", err)
	}
	if n := exited.Load(); n != 4 {
		t.Errorf("%d of 4 workers had exited when the pool returned", n)
	}

	err = Pool(context.Background(), 3, func(ctx context.Context, w int) error {
		if w == 1 {
			var m map[int]int
			m[w] = w // a nil-map write panics
		}
		<-ctx.Done()
		return FromContext(ctx)
	})
	if !errors.Is(err, ErrInternal) {
		t.Errorf("pool error = %v, want the panic as ErrInternal", err)
	}

	if err := Pool(context.Background(), 3, func(context.Context, int) error { return nil }); err != nil {
		t.Errorf("pool of clean workers: %v", err)
	}
}
