package conquer

import (
	"context"
	"fmt"

	"conquer/internal/core"
	"conquer/internal/sqlparse"
)

// Expected aggregates over clean answers — the natural first step toward
// the grouping-and-aggregation support the paper lists as future work
// (§6). COUNT and SUM are linear, so their expectations over the
// candidate-database distribution follow exactly from the clean answers;
// non-linear aggregates are estimated by Monte-Carlo sampling.

// ExpectedCount returns the expected number of answers the query has on
// the clean database: the sum of the clean answers' probabilities.
func (r *CleanResult) ExpectedCount() float64 {
	total := 0.0
	for _, a := range r.Answers {
		total += a.Prob
	}
	return total
}

// ExpectedSum returns the expected sum of the named result column over
// the clean database's answers.
func (r *CleanResult) ExpectedSum(column string) (float64, error) {
	col := r.columnIndex(column)
	if col < 0 {
		return 0, fmt.Errorf("conquer: result has no column %q", column)
	}
	total := 0.0
	for _, a := range r.Answers {
		v := a.Values[col]
		if v == nil {
			continue
		}
		f, ok := asFloat(v)
		if !ok {
			return 0, fmt.Errorf("conquer: ExpectedSum over non-numeric column %q", column)
		}
		total += a.Prob * f
	}
	return total, nil
}

func (r *CleanResult) columnIndex(name string) int {
	for i, c := range r.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

func asFloat(v any) (float64, bool) {
	switch v := v.(type) {
	case int64:
		return float64(v), true
	case float64:
		return v, true
	default:
		return 0, false
	}
}

// AggregateEstimate is a Monte-Carlo estimate of an aggregate over the
// query's answers on the clean database.
type AggregateEstimate struct {
	// Mean is the estimated expectation.
	Mean float64
	// StdDev is the spread of the aggregate across candidate databases.
	StdDev float64
	// Samples counts the candidate databases that contributed (MIN, MAX
	// and AVG skip candidates with empty answer sets).
	Samples int
}

// EstimateAggregate estimates an aggregate of a result column over the
// clean database's answers by sampling n candidate databases. kind is one
// of "count", "sum", "avg", "min", "max"; column is one of the names Eval
// reports as the result's Columns, and is ignored for "count".
// Unlike CleanAnswers, this works for any query the engine can run — it
// never relies on the rewriting.
func (db *Database) EstimateAggregate(sql, kind, column string, n int, seed int64) (AggregateEstimate, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return AggregateEstimate{}, err
	}
	var k core.AggregateKind
	switch kind {
	case "count":
		k = core.AggregateCount
	case "sum":
		k = core.AggregateSum
	case "avg":
		k = core.AggregateAvg
	case "min":
		k = core.AggregateMin
	case "max":
		k = core.AggregateMax
	default:
		return AggregateEstimate{}, fmt.Errorf("conquer: unknown aggregate %q", kind)
	}
	est, err := db.evaluator(Limits{}).EstimateAggregate(context.Background(), stmt, k, column, n, seed)
	if err != nil {
		return AggregateEstimate{}, err
	}
	return AggregateEstimate{Mean: est.Mean, StdDev: est.StdDev, Samples: est.Samples}, nil
}
