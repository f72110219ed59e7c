// Package versionbump defines a must-call analyzer for the cache
// invalidation contract introduced with the versioned query cache.
//
// The cache keys results by a version vector of the tables a plan
// reads; storage.Table.bump() advances a table's version after every
// mutation. A mutating method that returns successfully without
// bumping leaves the old version live, so the cache keeps serving
// stale rows while believing them fresh — the exact wrong-answer class
// the versioned design exists to rule out. The contract is structural,
// so the analyzer enforces it structurally: on any type that has a
// bump method, every exported pointer-receiver method that mutates
// receiver state must reach bump() on every non-error path.
//
// This is an obligation analysis on the flow package's CFG, not a
// naive "bump appears somewhere" check: a mutation raises an
// obligation, bump() (or a deferred bump()) discharges it, and paths
// are joined with OR. Early `return nil` before any mutation is legal
// (no obligation was raised — the fixture's CreateIndex, which returns
// early when the index exists),
// and error returns are exempt (a failed mutation must NOT advance the
// version, or the cache would discard entries for data that never
// changed). A success path is a return whose final error result is nil
// — or any return, when the method has no error result.
package versionbump

import (
	"go/ast"
	"go/types"

	"conquer/internal/analysis"
	"conquer/internal/analysis/flow"
)

// Analyzer enforces mutate-implies-bump on types with a bump method.
var Analyzer = &analysis.Analyzer{
	Name: "versionbump",
	Doc:  "every exported mutating method on a type with a bump() method must call bump() on all non-error paths, or the versioned query cache serves stale rows",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || !fd.Name.IsExported() {
				continue
			}
			checkMethod(pass, fd)
		}
	}
	return nil, nil
}

// checkMethod verifies the mutate-implies-bump contract on one
// exported method of a bump-bearing type.
func checkMethod(pass *analysis.Pass, fd *ast.FuncDecl) {
	recv := receiverObject(pass, fd)
	if recv == nil || !hasBumpMethod(pass, recv.Type()) {
		return
	}
	if fd.Name.Name == "bump" {
		return
	}

	g := flow.New(fd.Body)
	pending := flow.NewPending(g,
		func(n ast.Node) bool { return mutatesReceiver(pass, n, recv) },
		func(n ast.Node) bool { return dischargesBump(pass, n, recv) },
	)

	for _, ret := range g.Returns {
		if !successReturn(pass, fd, ret) {
			continue
		}
		if pending.Before(ret) {
			pass.Reportf(ret.Pos(), "%s mutates the receiver but this success path returns without calling bump(); the versioned cache will serve stale rows", fd.Name.Name)
		}
	}
	if g.FallsOff() && pending.AtFallOff() {
		pass.Reportf(fd.Name.Pos(), "%s mutates the receiver but can fall off the end without calling bump(); the versioned cache will serve stale rows", fd.Name.Name)
	}
}

// receiverObject returns the named receiver variable, or nil for
// unnamed/blank receivers (which cannot mutate anything).
func receiverObject(pass *analysis.Pass, fd *ast.FuncDecl) *types.Var {
	if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return nil
	}
	name := fd.Recv.List[0].Names[0]
	if name.Name == "_" {
		return nil
	}
	v, _ := pass.TypesInfo.ObjectOf(name).(*types.Var)
	return v
}

// hasBumpMethod reports whether t (or *t) declares a method named bump.
func hasBumpMethod(pass *analysis.Pass, t types.Type) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, pass.Pkg, "bump")
	_, ok := obj.(*types.Func)
	return ok
}

// mutatesReceiver reports whether block-level node n writes receiver
// state: a direct mutation (see directMutation), or a statement call to
// an unexported same-package helper method that itself mutates its
// receiver — one level of interprocedural reach, enough to cover a
// mutator that delegates the actual writes to an unexported helper (the
// fixture's Rebuild and its reindex()).
func mutatesReceiver(pass *analysis.Pass, n ast.Node, recv *types.Var) bool {
	if directMutation(pass, n, recv) {
		return true
	}
	if es, ok := n.(*ast.ExprStmt); ok {
		return helperMutates(pass, es.X, recv)
	}
	return false
}

// directMutation reports whether n writes receiver state in place: an
// assignment or inc/dec whose lvalue is a field, element, or deref of
// recv, or a mutating builtin/sort call on a receiver field. Writes to
// the version field itself are not mutations (that IS the bump
// machinery).
func directMutation(pass *analysis.Pass, n ast.Node, recv *types.Var) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if lvalueMutates(pass, lhs, recv) {
				return true
			}
		}
	case *ast.IncDecStmt:
		return lvalueMutates(pass, n.X, recv)
	case *ast.ExprStmt:
		return callMutates(pass, n.X, recv)
	}
	return false
}

// helperMutates reports whether e is a call recv.helper(...) to an
// unexported pointer-receiver method of the same package whose own body
// directly mutates its receiver. The reach is deliberately one level
// deep — helpers calling further helpers stay invisible — so the
// analyzer never loops on recursive methods and findings stay easy to
// audit. bump itself is the discharge, never an obligation.
func helperMutates(pass *analysis.Pass, e ast.Expr, recv *types.Var) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if flow.RootObject(pass.TypesInfo, sel.X) != recv {
		return false
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Exported() || fn.Name() == "bump" || fn.Pkg() != pass.Pkg {
		return false
	}
	fd := declOf(pass, fn)
	if fd == nil || fd.Body == nil {
		return false
	}
	hrecv := receiverObject(pass, fd)
	if hrecv == nil {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n.(type) {
		case *ast.AssignStmt, *ast.IncDecStmt, *ast.ExprStmt:
			if directMutation(pass, n, hrecv) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// declOf finds the syntax of a method declared in the package under
// analysis, or nil (e.g. for methods of embedded foreign types).
func declOf(pass *analysis.Pass, fn *types.Func) *ast.FuncDecl {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			if pass.TypesInfo.ObjectOf(fd.Name) == fn {
				return fd
			}
		}
	}
	return nil
}

// lvalueMutates reports whether writing lhs mutates recv's pointee:
// recv.f = v, recv.f[i] = v, *recv = v — but not a plain rebind of the
// receiver variable itself, and not the version field.
func lvalueMutates(pass *analysis.Pass, lhs ast.Expr, recv *types.Var) bool {
	if _, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		return false // rebinding the local receiver pointer
	}
	if flow.RootObject(pass.TypesInfo, lhs) != recv {
		return false
	}
	return firstFieldName(pass, lhs, recv) != "version"
}

// callMutates matches mutating calls on receiver state: the delete and
// clear builtins, and sort.* / slices.* calls, with a recv-rooted
// argument.
func callMutates(pass *analysis.Pass, e ast.Expr, recv *types.Var) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	mutating := false
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin); ok {
			mutating = b.Name() == "delete" || b.Name() == "clear"
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && !mutating {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := pass.TypesInfo.ObjectOf(id).(*types.PkgName); ok {
				p := pn.Imported().Path()
				mutating = p == "sort" || p == "slices"
			}
		}
	}
	if !mutating {
		return false
	}
	for _, arg := range call.Args {
		if flow.RootObject(pass.TypesInfo, arg) == recv {
			return true
		}
	}
	return false
}

// firstFieldName returns the name of the receiver field lhs writes
// through: for recv.f, recv.f[i], recv.f.g it is "f"; for *recv it is
// "" (whole-value write).
func firstFieldName(pass *analysis.Pass, lhs ast.Expr, recv *types.Var) string {
	name := ""
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(e.X).(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == recv {
				name = e.Sel.Name
				return
			}
			walk(e.X)
		case *ast.IndexExpr:
			walk(e.X)
		case *ast.StarExpr:
			walk(e.X)
		}
	}
	walk(lhs)
	return name
}

// dischargesBump matches recv.bump() and recv.version.Add/Store(...) —
// as a statement or behind a defer.
func dischargesBump(pass *analysis.Pass, n ast.Node, recv *types.Var) bool {
	var call *ast.CallExpr
	switch n := n.(type) {
	case *ast.DeferStmt:
		call = n.Call
	case *ast.ExprStmt:
		call, _ = ast.Unparen(n.X).(*ast.CallExpr)
	case *ast.CallExpr:
		call = n
	}
	if call == nil {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if flow.RootObject(pass.TypesInfo, sel.X) != recv {
		return false
	}
	if sel.Sel.Name == "bump" {
		return true
	}
	// recv.version.Add(1) / recv.version.Store(v): manual bump.
	if sel.Sel.Name == "Add" || sel.Sel.Name == "Store" {
		if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
			return inner.Sel.Name == "version"
		}
	}
	return false
}

// successReturn reports whether ret is a success exit: when the
// method's last result is error-typed, the returned error must be a
// nil literal (anything else is an error path, where skipping bump is
// correct); methods without an error result succeed on every return.
// Naked returns are treated as success — conservative for the
// invariant.
func successReturn(pass *analysis.Pass, fd *ast.FuncDecl, ret *ast.ReturnStmt) bool {
	results := fd.Type.Results
	if results == nil || len(results.List) == 0 {
		return true
	}
	last := results.List[len(results.List)-1]
	if !isErrorType(pass.TypesInfo.Types[last.Type].Type) {
		return true
	}
	if len(ret.Results) == 0 {
		return true // naked return: assume the named error may be nil
	}
	lastExpr := ret.Results[len(ret.Results)-1]
	tv, ok := pass.TypesInfo.Types[ast.Unparen(lastExpr)]
	return ok && tv.IsNil()
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
