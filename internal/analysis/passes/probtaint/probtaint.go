// Package probtaint defines a taint analyzer for how probability
// values may be consumed once they leave the probability calculator.
//
// Dfn 2 gives tuple probabilities epsilon semantics: two probabilities
// are "equal" when they agree within value.ProbEpsilon, because they
// are produced by floating-point pipelines (similarity normalization,
// JS-distance folds) whose low bits are an artifact of evaluation
// order, not information. Code that treats a probability as an exact
// bit pattern therefore makes decisions on noise. The analyzer marks
// probability sources — reads of float fields named Prob/Probability
// and calls to TupleDistribution — and tracks them through local
// assignments with the flow engine's taint solver. Three sinks are
// flagged:
//
//   - exact comparison: a tainted value reaching == or != (compare
//     with value.ProbEq instead). Unlike the purely syntactic floatcmp,
//     taint follows probabilities through temporaries and into
//     interface values, where a bit-exact == hides from type-based
//     checks;
//   - map keys: a tainted float (or interface over one) used as a map
//     index — epsilon-equal probabilities land in different buckets,
//     so lookups nondeterministically miss;
//   - unsorted accumulation: folding tainted values into a loop-carried
//     float accumulator while ranging over a map, which re-randomizes
//     the fold order every run (per-key writes indexed by the range
//     key commute and are exempt).
//
// Intentional bit-exact uses carry "//lint:allow probtaint" and a
// reason.
package probtaint

import (
	"go/ast"
	"go/token"
	"go/types"

	"conquer/internal/analysis"
	"conquer/internal/analysis/flow"
)

// Analyzer flags exact-equality, map-key, and unsorted-fold uses of
// probability-derived values.
var Analyzer = &analysis.Analyzer{
	Name: "probtaint",
	Doc:  "probability-derived values must not reach ==/!=, map keys, or map-ordered accumulation (Dfn 2 epsilon semantics; use value.ProbEq and sorted folds)",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body, fd.Type, fd.Recv)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkFunc(pass, lit.Body, lit.Type, nil)
				}
				return true
			})
		}
	}
	return nil, nil
}

// isProbSource marks the expressions that introduce probability taint.
func isProbSource(pass *analysis.Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if e.Sel.Name != "Prob" && e.Sel.Name != "Probability" {
			return false
		}
		// Field reads only, and only float-typed ones: schema.Relation's
		// Prob is a column *name* (a string), not a probability.
		if s, ok := pass.TypesInfo.Selections[e]; ok && s.Kind() == types.FieldVal {
			return isFloat(s.Type())
		}
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			return sel.Sel.Name == "TupleDistribution"
		}
	}
	return false
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, ftype *ast.FuncType, recv *ast.FieldList) {
	// Cheap pre-screen: no source syntax, no taint to track.
	hasSource := false
	ast.Inspect(body, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && isProbSource(pass, e) {
			hasSource = true
		}
		return !hasSource
	})
	if !hasSource {
		return
	}

	g := flow.New(body)
	taint := flow.NewTaint(g, pass.TypesInfo, func(e ast.Expr) bool { return isProbSource(pass, e) })
	defs := flow.NewDefs(g, pass.TypesInfo, ftype, recv)

	// Map ranges in this function, for the accumulation sink.
	var mapRanges []*ast.RangeStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if rs, ok := n.(*ast.RangeStmt); ok {
			if tv, ok := pass.TypesInfo.Types[rs.X]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					mapRanges = append(mapRanges, rs)
				}
			}
		}
		return true
	})

	// Walk each block-level node's subtree so every sink has a precise
	// program point for the taint query.
	for _, blk := range g.Blocks {
		for _, node := range blk.Nodes {
			at := node
			ast.Inspect(node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					return false
				case *ast.BlockStmt:
					// A range statement is a head-block node whose body
					// belongs to other blocks; don't visit anything twice.
					return false
				case *ast.BinaryExpr:
					checkCompare(pass, taint, at, n)
				case *ast.IndexExpr:
					checkMapKey(pass, taint, at, n)
				case *ast.AssignStmt:
					checkAccum(pass, taint, defs, mapRanges, n)
				}
				return true
			})
		}
	}
}

// checkCompare flags ==/!= with a tainted operand of a type where
// bit-exact equality is meaningful noise: floats and interfaces.
func checkCompare(pass *analysis.Pass, taint *flow.Taint, at ast.Node, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	// Nil checks (err != nil, v == nil) are identity tests on interfaces
	// and pointers, not value comparisons; epsilon semantics don't apply.
	for _, operand := range []ast.Expr{be.X, be.Y} {
		if tv, ok := pass.TypesInfo.Types[ast.Unparen(operand)]; ok && tv.IsNil() {
			return
		}
	}
	for _, operand := range []ast.Expr{be.X, be.Y} {
		if !floatOrInterface(pass.TypesInfo.Types[operand].Type) {
			continue
		}
		if taint.TaintedAt(at, operand) {
			pass.Reportf(be.OpPos, "probability-derived value compared with %s; probabilities carry epsilon semantics (Dfn 2), use value.ProbEq", be.Op)
			return
		}
	}
}

// checkMapKey flags a tainted float used to index a map.
func checkMapKey(pass *analysis.Pass, taint *flow.Taint, at ast.Node, ix *ast.IndexExpr) {
	tv, ok := pass.TypesInfo.Types[ix.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if !floatOrInterface(pass.TypesInfo.Types[ix.Index].Type) {
		return
	}
	if taint.TaintedAt(at, ix.Index) {
		pass.Reportf(ix.Index.Pos(), "probability-derived value used as map key; epsilon-equal probabilities hash to different buckets, so lookups are unreliable")
	}
}

// checkAccum flags folding tainted values into a loop-carried float
// accumulator inside a range over a map.
func checkAccum(pass *analysis.Pass, taint *flow.Taint, defs *flow.Defs, mapRanges []*ast.RangeStmt, as *ast.AssignStmt) {
	rs := enclosingRange(mapRanges, as)
	if rs == nil {
		return
	}
	compound := as.Tok == token.ADD_ASSIGN || as.Tok == token.SUB_ASSIGN ||
		as.Tok == token.MUL_ASSIGN || as.Tok == token.QUO_ASSIGN
	if !compound {
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		if !isFloat(pass.TypesInfo.Types[lhs].Type) {
			continue
		}
		if indexMentionsBinding(pass, lhs, rs) {
			continue // m[k] += v with the range key: per-key, commutes
		}
		obj := flow.RootObject(pass.TypesInfo, lhs)
		if obj == nil || !defs.SelfReaches(as, obj) {
			continue // per-iteration temporary
		}
		// Must be carried across THIS map range, not just an inner loop:
		// some reaching definition lies outside the range statement.
		outside := false
		for _, def := range defs.DefsBefore(as, obj) {
			if def.Pos() < rs.Pos() || def.Pos() >= rs.End() {
				outside = true
				break
			}
		}
		if !outside {
			continue
		}
		if taint.TaintedAt(as, as.Rhs[i]) {
			pass.Reportf(as.Pos(), "probability values folded in map-iteration order; the sum's low bits change run to run — fold a sorted vector (see infotheory.Sparse) or sorted keys")
		}
	}
}

// enclosingRange returns the innermost map range whose body contains n.
func enclosingRange(mapRanges []*ast.RangeStmt, n ast.Node) *ast.RangeStmt {
	var best *ast.RangeStmt
	for _, rs := range mapRanges {
		if rs.Body.Pos() <= n.Pos() && n.End() <= rs.Body.End() {
			if best == nil || rs.Body.Pos() > best.Body.Pos() {
				best = rs
			}
		}
	}
	return best
}

// indexMentionsBinding reports whether lhs indexes by this range's key
// or value binding.
func indexMentionsBinding(pass *analysis.Pass, lhs ast.Expr, rs *ast.RangeStmt) bool {
	ix, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return false
	}
	bindings := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if e != nil {
			if obj := flow.RootObject(pass.TypesInfo, e); obj != nil {
				bindings[obj] = true
			}
		}
	}
	found := false
	ast.Inspect(ix.Index, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil && bindings[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

func floatOrInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsFloat != 0
	case *types.Interface:
		return true
	}
	return false
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
