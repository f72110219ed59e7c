// Package passes registers the conquerlint analyzer suite.
package passes

import (
	"conquer/internal/analysis"
	"conquer/internal/analysis/passes/ctxpoll"
	"conquer/internal/analysis/passes/errwrap"
	"conquer/internal/analysis/passes/floatcmp"
	"conquer/internal/analysis/passes/maporder"
	"conquer/internal/analysis/passes/nopanic"
	"conquer/internal/analysis/passes/probflow"
)

// All returns the full suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxpoll.Analyzer,
		errwrap.Analyzer,
		floatcmp.Analyzer,
		maporder.Analyzer,
		nopanic.Analyzer,
		probflow.Analyzer,
	}
}
