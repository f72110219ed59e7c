// Package floatcmp defines an analyzer that flags == and != between
// floating-point values, and floating-point values used as map keys.
//
// Probability arithmetic is the backbone of the paper's semantics: Dfn 2
// requires per-cluster probabilities to sum to 1, and RewriteClean's
// correctness (Thm 1) multiplies and sums such values. After a handful of
// float64 operations, exact equality is meaningless — comparisons must go
// through the epsilon helpers value.ProbEq / value.FloatEq. A map key is
// an exact comparison too: epsilon-equal values land in different
// entries, so lookups miss. Intentional exact uses (bit-level
// normalization, NaN tricks) carry a "//lint:allow floatcmp" annotation.
package floatcmp

import (
	"go/ast"
	"go/token"
	"go/types"

	"conquer/internal/analysis"
)

// Analyzer flags floating-point equality comparisons and map keys.
var Analyzer = &analysis.Analyzer{
	Name: "floatcmp",
	Doc:  "flag == and != on floating-point values (use value.ProbEq / value.FloatEq, Dfn 2 tolerances) and floating-point map keys",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				x, y := pass.TypesInfo.Types[n.X], pass.TypesInfo.Types[n.Y]
				// Two untyped constants compare exactly at compile time.
				if x.Value != nil && y.Value != nil {
					return true
				}
				if isFloat(x.Type) || isFloat(y.Type) {
					pass.Reportf(n.OpPos, "floating-point equality comparison (%s); use value.ProbEq or value.FloatEq", n.Op)
				}
			case *ast.IndexExpr:
				m := pass.TypesInfo.Types[n.X].Type
				if m == nil {
					return true
				}
				if _, isMap := m.Underlying().(*types.Map); isMap && isFloat(pass.TypesInfo.Types[n.Index].Type) {
					pass.Reportf(n.Index.Pos(), "floating-point map key; epsilon-equal values land in different entries")
				}
			}
			return true
		})
	}
	return nil, nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
