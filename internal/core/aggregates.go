package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"conquer/internal/dirty"
	"conquer/internal/qerr"
	"conquer/internal/sqlparse"
	"conquer/internal/value"
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
// are exact regardless of the correlations between answers, so both
// follow directly from any clean-answer result (the facade's
// CleanResult.ExpectedCount and ExpectedSum) — no extra candidate
// enumeration. Non-linear aggregates (AVG, MIN, MAX) do not decompose
// this way; Evaluator.EstimateAggregate computes them by Monte-Carlo
// sampling.

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

// EstimateAggregate estimates E[agg(column over q's answers)] by sampling
// n candidate databases. column is one of the names Eval reports as the
// answers' columns; AggregateCount ignores it. The kind and the column are
// checked before any candidate is drawn; a non-numeric value fails where a
// sample meets it. This covers the non-linear aggregates the closed-form
// expectations cannot, at Monte-Carlo accuracy. It runs under the engine's
// budget like Eval: the Timeout is applied once here, MaxSamples (when
// positive) caps n, and the sampling loop polls ctx between candidates.
func (ev Evaluator) EstimateAggregate(ctx context.Context, stmt *sqlparse.SelectStmt, kind AggregateKind, column string, n int, seed int64) (est AggregateEstimate, err error) {
	defer qerr.Recover(&err)
	if err := ev.check(EvalOptions{}); err != nil {
		return AggregateEstimate{}, err
	}
	if n <= 0 {
		return AggregateEstimate{}, fmt.Errorf("core: EstimateAggregate needs a positive sample count")
	}
	if kind > AggregateMax {
		return AggregateEstimate{}, fmt.Errorf("core: unknown aggregate kind %d", kind)
	}
	lim := ev.Engine.Options().Limits
	if lim.MaxSamples > 0 && n > lim.MaxSamples {
		return AggregateEstimate{}, fmt.Errorf("core: %d aggregate samples exceed budget %d: %w",
			n, lim.MaxSamples, qerr.ErrBudgetExceeded)
	}
	ctx, cancel := lim.WithContext(ctx)
	defer cancel()
	samples, err := ev.sampleAggregates(ctx, stmt, kind, column, n, seed)
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

// sampleAggregates draws n candidate databases from seed and folds the
// aggregate over the answers each one holds (overHeld): an SPJ statement's
// from its lineage, one query for all n, any other's from a run on each.
// The fold visits the held answers in the loop's order, so a float SUM or
// AVG over an SPJ statement may differ in its last bits from a fold in a
// world's row order (DESIGN.md §17).
func (ev Evaluator) sampleAggregates(ctx context.Context, stmt *sqlparse.SelectStmt, kind AggregateKind, column string, n int, seed int64) ([]float64, error) {
	cs, err := ev.DB.CandidatesOf(stmt.Tables())
	if err != nil {
		return nil, err
	}
	col := -1
	sampling := sample(ctx, n, seed)
	draw := func(cs dirty.Candidates, cols []string, visit func(*dirty.Candidate) error) error {
		if kind != AggregateCount {
			if col = slices.Index(cols, column); col < 0 {
				return fmt.Errorf("core: the query has no column %q (it has %s)", column, strings.Join(cols, ", "))
			}
		}
		return sampling(cs, cols, visit)
	}
	out := make([]float64, 0, n)
	_, _, _, err = ev.overHeld(ctx, stmt, cs, lineageWorlds, draw, func(_ *dirty.Candidate, answers [][]value.Value, held []int32) error {
		if kind == AggregateCount {
			out = append(out, float64(len(held)))
			return nil
		}
		sum, best, k := 0.0, 0.0, 0 // best: the minimum or maximum of the k non-NULL values
		for _, id := range held {
			v := answers[id][col]
			if v.IsNull() {
				continue
			}
			if !v.IsNumeric() {
				return fmt.Errorf("core: aggregate over non-numeric column %q", column)
			}
			f := v.AsFloat()
			sum += f
			if k == 0 || (kind == AggregateMin && f < best) || (kind == AggregateMax && f > best) {
				best = f
			}
			k++
		}
		switch {
		case kind == AggregateSum:
			out = append(out, sum)
		case k == 0: // AVG, MIN and MAX are undefined on no values; skip the sample
		case kind == AggregateAvg:
			out = append(out, sum/float64(k))
		default:
			out = append(out, best)
		}
		return nil
	})
	return out, err
}
