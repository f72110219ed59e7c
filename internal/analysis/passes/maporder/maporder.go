// Package maporder defines a dataflow analyzer for the engine's
// bit-determinism invariant: nothing order-sensitive may be computed in
// Go's randomized map-iteration order.
//
// The motivating bug is PR 3's infotheory.JSSparse: summing float terms
// while ranging over a sparse map made every distance — and everything
// built on it, per-tuple probabilities included — vary run to run,
// because float addition is not associative and Go deliberately
// randomizes map order. The first fix collected the keys, sorted them and
// then folded — the shape this analyzer enforces; infotheory.Sparse has
// since become a vector sorted by ID, which folds in order with no map.
//
// Two sinks are flagged inside a `range` over a map:
//
//   - float accumulation: s += v, s = s*x, ... where the accumulator is
//     loop-carried (its definition reaches itself across the range's
//     back edge — the reaching-definitions signature of a true
//     accumulator, as opposed to a per-iteration temporary) and the
//     accumulated value derives from the iteration (taint from the
//     range key/value), so constant folds stay legal;
//   - append to an ordered output: s = append(s, ...) with a
//     loop-carried, iteration-derived slice — unless the slice is
//     passed to a sort (sort.* or slices.Sort*) after the loop, which
//     is exactly the sanctioned sorted-keys pattern.
//
// Per-key map writes (m[k] = ... with the range key in the index) are
// exempt: each iteration touches its own key, so the result is
// independent of visit order. Deliberate order-insensitive uses carry
// "//lint:allow maporder" with a reason.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"conquer/internal/analysis"
	"conquer/internal/analysis/flow"
)

// Analyzer flags order-sensitive computation inside range-over-map.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flag float accumulation and ordered-output appends ranging over a map: map order is randomized, so results lose bit-determinism (fold a sorted vector, as infotheory.Sparse is, or sort the keys first)",
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
			// Function literals are separate execution contexts with
			// their own CFGs.
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

// checkFunc builds the function's CFG and inspects every range-over-map
// inside it.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, ftype *ast.FuncType, recv *ast.FieldList) {
	g := flow.New(body)
	defs := flow.NewDefs(g, pass.TypesInfo, ftype, recv)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // checked separately
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if tv, ok := pass.TypesInfo.Types[rs.X]; !ok || tv.Type == nil {
			return true
		} else if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(pass, g, defs, body, rs)
		return true
	})
}

// checkMapRange flags order-sensitive statements in the body of one
// range-over-map.
func checkMapRange(pass *analysis.Pass, g *flow.Graph, defs *flow.Defs, fnBody *ast.BlockStmt, rs *ast.RangeStmt) {
	// Taint the per-iteration bindings of this range: a value is
	// order-dependent only when it derives from what the iteration saw.
	iterObjs := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if e != nil {
			if obj := flow.RootObject(pass.TypesInfo, e); obj != nil {
				iterObjs[obj] = true
			}
		}
	}
	taint := flow.NewTaint(g, pass.TypesInfo, func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		if !ok {
			return false
		}
		obj := pass.TypesInfo.ObjectOf(id)
		return obj != nil && iterObjs[obj]
	})

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			// Nested ranges get their own checkMapRange call from the
			// outer walk; statements inside still belong to this range's
			// body, so keep descending.
			return true
		case *ast.AssignStmt:
			checkAssign(pass, g, defs, taint, fnBody, rs, n)
		}
		return true
	})
}

func checkAssign(pass *analysis.Pass, g *flow.Graph, defs *flow.Defs, taint *flow.Taint, fnBody *ast.BlockStmt, rs *ast.RangeStmt, as *ast.AssignStmt) {
	if g.BlockOf(as) == nil {
		return // not a block-level node (inside a nested funclit already skipped)
	}
	compoundArith := as.Tok == token.ADD_ASSIGN || as.Tok == token.SUB_ASSIGN ||
		as.Tok == token.MUL_ASSIGN || as.Tok == token.QUO_ASSIGN

	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		if i < len(as.Rhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}
		if rhs == nil {
			continue
		}
		obj := flow.RootObject(pass.TypesInfo, lhs)
		if obj == nil {
			continue
		}

		// append to an ordered output: x = append(x, ...).
		if call, ok := rhs.(*ast.CallExpr); ok && (as.Tok == token.ASSIGN || as.Tok == token.DEFINE) && isAppendOf(pass, call, obj) {
			if !carriedAcrossRange(defs, as, obj, rs) {
				continue // fresh slice each iteration: per-iteration temp
			}
			if !argsTainted(taint, as, call.Args[1:]) {
				continue // appends nothing iteration-derived
			}
			if sortedAfter(pass, fnBody, rs, obj) {
				continue // the sorted-keys pattern: collected, then sorted
			}
			pass.Reportf(as.Pos(), "append to %s in map-iteration order flows to ordered output; collect and sort, or keep a sorted vector (see infotheory.Sparse), or annotate with lint:allow maporder", obj.Name())
			continue
		}

		// float accumulation: s += v, s = s + v, s *= v, ...
		isAccum := false
		var acc ast.Expr
		if compoundArith {
			isAccum, acc = true, rhs
		} else if (as.Tok == token.ASSIGN || as.Tok == token.DEFINE) && selfBinary(pass, lhs, rhs) {
			isAccum, acc = true, rhs
		}
		if !isAccum || !isFloat(pass.TypesInfo.Types[lhs].Type) {
			continue
		}
		if indexedByRangeKey(pass, lhs, rs) {
			continue // m[k] op= v: one key per iteration, order-free
		}
		if !carriedAcrossRange(defs, as, obj, rs) {
			continue // re-initialized every map iteration
		}
		if !taint.TaintedAt(as, acc) {
			continue // accumulates a constant: same terms in any order
		}
		pass.Reportf(as.Pos(), "float accumulation into %s in map-iteration order is not bit-deterministic (float addition is non-associative); iterate sorted keys or annotate with lint:allow maporder", obj.Name())
	}
}

// carriedAcrossRange reports whether obj accumulates across iterations
// of THIS map range: its definition at as reaches itself (loop-carried)
// and at least one reaching definition lies outside the range statement.
// An accumulator re-initialized inside the range body — even one carried
// by an inner loop over a slice — self-reaches via the inner back edge
// but has no outside definition, and its per-map-iteration result does
// not depend on map order.
func carriedAcrossRange(defs *flow.Defs, as ast.Node, obj types.Object, rs *ast.RangeStmt) bool {
	if !defs.SelfReaches(as, obj) {
		return false
	}
	for _, def := range defs.DefsBefore(as, obj) {
		if def.Pos() < rs.Pos() || def.Pos() >= rs.End() {
			return true
		}
	}
	return false
}

// isAppendOf reports whether call is append(obj, ...).
func isAppendOf(pass *analysis.Pass, call *ast.CallExpr, obj types.Object) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return false
	}
	if b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin); !ok || b == nil {
		return false
	}
	return flow.RootObject(pass.TypesInfo, call.Args[0]) == obj
}

// argsTainted reports whether any of exprs is iteration-derived.
func argsTainted(taint *flow.Taint, at ast.Node, exprs []ast.Expr) bool {
	for _, e := range exprs {
		if taint.TaintedAt(at, e) {
			return true
		}
	}
	return false
}

// selfBinary reports whether rhs is a binary arithmetic expression with
// lhs's object as one operand (s = s + v and friends).
func selfBinary(pass *analysis.Pass, lhs, rhs ast.Expr) bool {
	be, ok := rhs.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch be.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
	default:
		return false
	}
	obj := flow.RootObject(pass.TypesInfo, lhs)
	if obj == nil {
		return false
	}
	return flow.RootObject(pass.TypesInfo, be.X) == obj || flow.RootObject(pass.TypesInfo, be.Y) == obj
}

// indexedByRangeKey reports whether lhs is an index expression whose
// index mentions the range key or value (per-entry updates commute).
func indexedByRangeKey(pass *analysis.Pass, lhs ast.Expr, rs *ast.RangeStmt) bool {
	ix, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return false
	}
	keyObjs := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if e != nil {
			if obj := flow.RootObject(pass.TypesInfo, e); obj != nil {
				keyObjs[obj] = true
			}
		}
	}
	found := false
	ast.Inspect(ix.Index, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil && keyObjs[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// sortedAfter reports whether obj is passed to a sort call positioned
// after the range statement — the collect-then-sort idiom that makes an
// append order-insensitive.
func sortedAfter(pass *analysis.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		if !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if argMentions(pass, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortCall matches sort.* and slices.Sort* package calls.
func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.ObjectOf(id).(*types.PkgName)
	if !ok {
		return false
	}
	switch pn.Imported().Path() {
	case "sort":
		return true
	case "slices":
		return true
	}
	return false
}

// argMentions reports whether arg references obj anywhere (directly, as
// &obj, or wrapped in a conversion like byLen(obj)).
func argMentions(pass *analysis.Pass, arg ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(arg, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
