// Package probflow defines a heuristic taint-style analyzer for the
// cluster-probability invariant.
//
// Dfn 2 requires the probabilities within every cluster of a dirty
// relation to sum to 1; every downstream guarantee — candidate-database
// probabilities (Dfn 4), RewriteClean's correctness (Thm 1) — silently
// breaks when they do not. The taint source is a call that marks a
// relation as probability-carrying (SetDirty); the sinks that sanction it
// are the validators and probability producers that establish or check
// the sum-to-1 invariant (dirty.Validate, dirty.Normalize, the probcalc
// assignment/annotation entry points).
//
// The check is intentionally function-local and name-based: a function
// that sets dirty metadata but never routes through a sanctioner in the
// same body is reported. Builders whose probabilities are provably
// established elsewhere (schema-time catalog construction, fixtures
// validated after load) annotate the SetDirty call with
// "//lint:allow probflow" and a reason.
package probflow

import (
	"go/ast"

	"conquer/internal/analysis"
)

// Analyzer flags dirty-metadata construction that skips validation.
var Analyzer = &analysis.Analyzer{
	Name: "probflow",
	Doc:  "require functions that construct dirty (probability-carrying) relations to route through a cluster-sum validator (Dfn 2)",
	Run:  run,
}

// sources taint a function: they mark a relation as carrying tuple
// probabilities.
var sources = map[string]bool{"SetDirty": true}

// sanctioners establish or verify the per-cluster sum-to-1 invariant.
var sanctioners = map[string]bool{
	"Validate":                true,
	"Normalize":               true,
	"NormalizeProbabilities":  true,
	"AssignProbabilities":     true,
	"AssignProbabilitiesEdit": true,
	"AnnotateTableCtx":        true,
	"AnnotateAllParCtx":       true,
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() == "main" {
		return nil, nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var taints []*ast.CallExpr
			sanctioned := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch name := calleeName(call); {
				case sources[name]:
					taints = append(taints, call)
				case sanctioners[name]:
					sanctioned = true
				}
				return true
			})
			if sanctioned {
				continue
			}
			for _, call := range taints {
				pass.Reportf(call.Lparen,
					"%s sets dirty probability metadata but never routes through a cluster-sum validator (dirty.Validate/Normalize; Dfn 2)",
					fd.Name.Name)
			}
		}
	}
	return nil, nil
}

// calleeName returns the bare name of the called function or method.
func calleeName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}
