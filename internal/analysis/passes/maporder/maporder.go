// Package maporder defines a syntactic analyzer for the engine's
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
// Three sinks are flagged inside a `range` over a map:
//
//   - float accumulation: s += v, s = s*x, ... where the accumulator is
//     declared outside the range (so it carries across iterations; one
//     declared inside the body is a per-iteration temporary) and the
//     accumulated value mentions a variable derived from the iteration,
//     so constant folds stay legal;
//   - append to an ordered output: s = append(s, ...) with a slice
//     declared outside the range and an iteration-derived element —
//     unless the slice is passed to a sort (sort.* or slices.*) after
//     the loop, which is exactly the sanctioned sorted-keys pattern;
//   - a return whose results mention an iteration-derived variable: which
//     entry the random order visits first decides what is returned. A
//     return of constants only (an "any entry fails" check) is exempt.
//
// The derived variables are the range key and value, closed over the
// body's assignments, var specs and nested range headers whose
// right-hand side mentions one. The closure ignores statement order, so
// it over-approximates: an accumulator declared outside the range is
// treated as carried even when the body resets it first. Declare
// per-iteration accumulators inside the range.
//
// Per-key map writes (m[k] = ... with the range key in the index) are
// exempt: each iteration touches its own key, so the result is
// independent of visit order. A statement inside nested map ranges is
// reported once. Deliberate order-insensitive uses carry
// "//lint:allow maporder" with a reason.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"conquer/internal/analysis"
)

// Analyzer flags order-sensitive computation inside range-over-map.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flag float accumulation, ordered-output appends and iteration-derived returns ranging over a map: map order is randomized, so results lose bit-determinism (fold a sorted vector, as infotheory.Sparse is, or sort the keys first)",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	reported := make(map[ast.Stmt]bool)
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Ranges inside function literals are checked too; the sort
			// that exempts an append may sit anywhere after the range in
			// the declaring function.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if rs, ok := n.(*ast.RangeStmt); ok && isMap(pass, rs.X) {
					checkMapRange(pass, fd.Body, rs, reported)
				}
				return true
			})
		}
	}
	return nil, nil
}

func isMap(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, ok = tv.Type.Underlying().(*types.Map)
	return ok
}

// checkMapRange flags order-sensitive statements in the body of one
// range-over-map. Statements in reported were flagged by an enclosing
// map range already.
func checkMapRange(pass *analysis.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, reported map[ast.Stmt]bool) {
	derived := derivedVars(pass, rs)
	inspectBody(rs.Body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if !reported[st] && checkAssign(pass, derived, fnBody, rs, st) {
				reported[st] = true
			}
		case *ast.ReturnStmt:
			if !reported[st] && anyMentions(pass, st.Results, derived) {
				pass.Reportf(st.Pos(), "return of an iteration-derived value in map-iteration order: which entry the randomized order visits first decides the result; iterate sorted keys or a vector, or annotate with lint:allow maporder")
				reported[st] = true
			}
		}
	})
}

// inspectBody calls visit on every node of body outside function
// literals, which run when called, not once per iteration.
func inspectBody(body ast.Node, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// derivedVars returns the variables whose value may derive from what
// the iteration saw: the range key and value, and every variable the
// body assigns, declares or ranges from an expression mentioning one.
func derivedVars(pass *analysis.Pass, rs *ast.RangeStmt) map[types.Object]bool {
	derived := make(map[types.Object]bool)
	grew := false
	add := func(lhs ast.Expr) {
		if obj := rootObject(pass.TypesInfo, lhs); obj != nil && !derived[obj] {
			derived[obj] = true
			grew = true
		}
	}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if e != nil {
			add(e)
		}
	}
	for grew {
		grew = false
		inspectBody(rs.Body, func(n ast.Node) {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if mentionsAny(pass, pairedValue(n.Rhs, i), derived) {
						add(lhs)
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if mentionsAny(pass, pairedValue(n.Values, i), derived) {
						add(name)
					}
				}
			case *ast.RangeStmt:
				if mentionsAny(pass, n.X, derived) {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if e != nil {
							add(e)
						}
					}
				}
			}
		})
	}
	return derived
}

// pairedValue returns the right-hand side that the i-th left-hand side
// takes: its own, or the one call or comma-ok expression all share.
func pairedValue(values []ast.Expr, i int) ast.Expr {
	switch {
	case i < len(values):
		return values[i]
	case len(values) == 1:
		return values[0]
	}
	return nil
}

// checkAssign flags as if it folds or appends in map order, and reports
// whether it did.
func checkAssign(pass *analysis.Pass, derived map[types.Object]bool, fnBody *ast.BlockStmt, rs *ast.RangeStmt, as *ast.AssignStmt) bool {
	compoundArith := as.Tok == token.ADD_ASSIGN || as.Tok == token.SUB_ASSIGN ||
		as.Tok == token.MUL_ASSIGN || as.Tok == token.QUO_ASSIGN
	plain := as.Tok == token.ASSIGN || as.Tok == token.DEFINE

	for i, lhs := range as.Lhs {
		rhs := pairedValue(as.Rhs, i)
		if rhs == nil {
			continue
		}
		obj := rootObject(pass.TypesInfo, lhs)
		if obj == nil || !declaredOutside(obj, rs) {
			continue // a per-iteration temporary
		}

		// append to an ordered output: x = append(x, ...).
		if call, ok := rhs.(*ast.CallExpr); ok && plain && isAppendOf(pass, call, obj) {
			if !anyMentions(pass, call.Args[1:], derived) {
				continue // appends nothing iteration-derived
			}
			if sortedAfter(pass, fnBody, rs, obj) {
				continue // the sorted-keys pattern: collected, then sorted
			}
			pass.Reportf(as.Pos(), "append to %s in map-iteration order flows to ordered output; collect and sort, or keep a sorted vector (see infotheory.Sparse), or annotate with lint:allow maporder", obj.Name())
			return true
		}

		// float accumulation: s += v, s = s + v, s *= v, ...
		if !compoundArith && !(plain && selfBinary(pass, lhs, rhs)) {
			continue
		}
		if !isFloat(pass.TypesInfo.Types[lhs].Type) {
			continue
		}
		if indexedByRangeKey(pass, lhs, rs) {
			continue // m[k] op= v: one key per iteration, order-free
		}
		if !mentionsAny(pass, rhs, derived) {
			continue // accumulates a constant: same terms in any order
		}
		pass.Reportf(as.Pos(), "float accumulation into %s in map-iteration order is not bit-deterministic (float addition is non-associative); iterate sorted keys or annotate with lint:allow maporder", obj.Name())
		return true
	}
	return false
}

// declaredOutside reports whether obj is declared outside rs, so that
// its value carries from one iteration to the next.
func declaredOutside(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()
}

// rootObject resolves the variable object that owns an lvalue or value
// expression: the object of an identifier, or of the base identifier
// under any chain of index, selector, star and paren wrappers
// (x, x[i], x.f[i].g, *x → x). It returns nil for expressions not
// rooted at a simple identifier.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj, ok := info.ObjectOf(x).(*types.Var); ok {
				return obj
			}
			return nil
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
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
	return rootObject(pass.TypesInfo, call.Args[0]) == obj
}

// mentionsAny reports whether e references a variable in objs, outside
// function literals.
func mentionsAny(pass *analysis.Pass, e ast.Expr, objs map[types.Object]bool) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok || found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && objs[pass.TypesInfo.ObjectOf(id)] {
			found = true
		}
		return !found
	})
	return found
}

// anyMentions reports whether any of exprs references a variable in objs.
func anyMentions(pass *analysis.Pass, exprs []ast.Expr, objs map[types.Object]bool) bool {
	for _, e := range exprs {
		if mentionsAny(pass, e, objs) {
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
	obj := rootObject(pass.TypesInfo, lhs)
	if obj == nil {
		return false
	}
	return rootObject(pass.TypesInfo, be.X) == obj || rootObject(pass.TypesInfo, be.Y) == obj
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
			if obj := rootObject(pass.TypesInfo, e); obj != nil {
				keyObjs[obj] = true
			}
		}
	}
	return mentionsAny(pass, ix.Index, keyObjs)
}

// sortedAfter reports whether obj is passed to a sort call positioned
// after the range statement — the collect-then-sort idiom that makes an
// append order-insensitive.
func sortedAfter(pass *analysis.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	objs := map[types.Object]bool{obj: true}
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		if isSortCall(pass, call) && anyMentions(pass, call.Args, objs) {
			found = true
		}
		return !found
	})
	return found
}

// isSortCall matches sort.* and slices.* package calls.
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
	path := pn.Imported().Path()
	return path == "sort" || path == "slices"
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
