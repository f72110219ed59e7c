package core

import (
	"context"
	"fmt"
	"math"

	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/qerr"
	"conquer/internal/sqlparse"
)

// The paper leaves queries with grouping and aggregation as future work
// (§6). This file provides the natural first step: *expected* aggregates
// over the clean-answer distribution. For a query q with clean answers
// {(t, p_t)}, the number of answers produced by the clean database is a
// random variable; by linearity of expectation,
//
//	E[COUNT]      = Σ_t p_t
//	E[SUM(col)]   = Σ_t p_t · t.col
//
// are exact regardless of the correlations between answers, so both can
// be computed directly from any clean-answer Result — no extra candidate
// enumeration. Non-linear aggregates (AVG, MIN, MAX) do not decompose
// this way; Evaluator.EstimateAggregate computes them by Monte-Carlo
// sampling.

// ExpectedCount returns the expected number of clean answers.
func ExpectedCount(r *Result) float64 {
	total := 0.0
	for _, a := range r.Answers {
		total += a.Prob
	}
	return total
}

// ExpectedSum returns the expected sum of column col over the clean
// answers. NULL values contribute nothing, as in SQL aggregation.
func ExpectedSum(r *Result, col int) (float64, error) {
	if col < 0 || col >= len(r.Columns) {
		return 0, fmt.Errorf("core: column %d out of range (result has %d)", col, len(r.Columns))
	}
	total := 0.0
	for _, a := range r.Answers {
		v := a.Values[col]
		if v.IsNull() {
			continue
		}
		if !v.IsNumeric() {
			return 0, fmt.Errorf("core: ExpectedSum over non-numeric column %q", r.Columns[col])
		}
		total += a.Prob * v.AsFloat()
	}
	return total, nil
}

// AggregateKind selects the aggregate EstimateAggregate computes.
type AggregateKind uint8

// Supported Monte-Carlo aggregates.
const (
	AggregateCount AggregateKind = iota
	AggregateSum
	AggregateAvg
	AggregateMin
	AggregateMax
)

// AggregateEstimate is a Monte-Carlo estimate of an aggregate over the
// query's answers on the clean database.
type AggregateEstimate struct {
	Mean float64
	// StdDev is the sample standard deviation of the per-candidate
	// aggregate — the spread of the aggregate across possible clean
	// databases, not the standard error of Mean.
	StdDev float64
	// Samples counts candidate databases with at least one answer (MIN,
	// MAX and AVG are undefined on empty answer sets and skip those
	// samples; COUNT and SUM treat them as zero).
	Samples int
}

// EstimateAggregate estimates E[agg(col over q's answers)] by sampling
// n candidate databases. col is ignored for AggregateCount (pass -1).
// This covers the non-linear aggregates the closed-form expectations
// above cannot, at Monte-Carlo accuracy. It runs under the engine's
// budget like Eval: the Timeout is applied once here, MaxSamples (when
// positive) caps n, and the sampling loop polls ctx between candidates.
func (ev Evaluator) EstimateAggregate(ctx context.Context, stmt *sqlparse.SelectStmt, kind AggregateKind, col int, n int, seed int64) (est AggregateEstimate, err error) {
	defer qerr.Recover(&err)
	if err := ev.check(EvalOptions{}); err != nil {
		return AggregateEstimate{}, err
	}
	if n <= 0 {
		return AggregateEstimate{}, fmt.Errorf("core: EstimateAggregate needs a positive sample count")
	}
	lim := ev.Engine.Options().Limits
	if lim.MaxSamples > 0 && n > lim.MaxSamples {
		return AggregateEstimate{}, fmt.Errorf("core: %d aggregate samples exceed budget %d: %w",
			n, lim.MaxSamples, qerr.ErrBudgetExceeded)
	}
	ctx, cancel := lim.WithContext(ctx)
	defer cancel()
	samples, err := ev.sampleAggregates(ctx, stmt, kind, col, n, seed)
	if err != nil {
		return AggregateEstimate{}, err
	}
	if len(samples) == 0 {
		return AggregateEstimate{}, nil
	}
	mean := 0.0
	for _, s := range samples {
		mean += s
	}
	mean /= float64(len(samples))
	variance := 0.0
	for _, s := range samples {
		dlt := s - mean
		variance += dlt * dlt
	}
	if len(samples) > 1 {
		variance /= float64(len(samples) - 1)
	}
	return AggregateEstimate{Mean: mean, StdDev: math.Sqrt(variance), Samples: len(samples)}, nil
}

// sampleAggregates draws n candidate databases and computes the aggregate
// on each one's (set-semantics) answers.
func (ev Evaluator) sampleAggregates(ctx context.Context, stmt *sqlparse.SelectStmt, kind AggregateKind, col int, n int, seed int64) ([]float64, error) {
	var out []float64
	cs, err := ev.DB.CandidatesOf(stmt.Tables())
	if err != nil {
		return nil, err
	}
	acc := newAccumulator() // for its per-candidate set semantics; the weights go unused
	_, _, err = ev.overWorlds(ctx, stmt, cs, sample(ctx, n, seed), func(_ *dirty.Candidate, res *engine.Result) error {
		rows := acc.addWorld(res.Rows, 0)
		if kind == AggregateCount {
			out = append(out, float64(len(rows)))
			return nil
		}
		if col < 0 || col >= len(res.Columns) {
			return fmt.Errorf("core: aggregate column %d out of range", col)
		}
		var vals []float64
		for _, row := range rows {
			v := row[col]
			if v.IsNull() {
				continue
			}
			if !v.IsNumeric() {
				return fmt.Errorf("core: aggregate over non-numeric column %q", res.Columns[col])
			}
			vals = append(vals, v.AsFloat())
		}
		switch kind {
		case AggregateSum:
			s := 0.0
			for _, v := range vals {
				s += v
			}
			out = append(out, s)
		case AggregateAvg, AggregateMin, AggregateMax:
			if len(vals) == 0 {
				return nil // undefined on an empty answer set; skip the sample
			}
			agg := vals[0]
			switch kind {
			case AggregateAvg:
				s := 0.0
				for _, v := range vals {
					s += v
				}
				agg = s / float64(len(vals))
			case AggregateMin:
				for _, v := range vals[1:] {
					if v < agg {
						agg = v
					}
				}
			case AggregateMax:
				for _, v := range vals[1:] {
					if v > agg {
						agg = v
					}
				}
			}
			out = append(out, agg)
		default:
			return fmt.Errorf("core: unknown aggregate kind %d", kind)
		}
		return nil
	})
	return out, err
}
