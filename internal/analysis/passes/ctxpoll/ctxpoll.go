// Package ctxpoll defines an analyzer that keeps the executor
// responsive to cancellation.
//
// The resource-governance design (DESIGN.md §8) hinges on every
// operator row loop polling the query's governor: a loop that spins
// without polling can outlive the caller's context by the full size of
// its input, turning Ctrl-C and query timeouts into dead letters. The
// analyzer enforces the invariant mechanically: inside package exec,
// every for/range loop in an operator's Open method must contain a Poll
// call (directly or in a callee loop such as drainBatches). The
// morsel-driven parallel layer (DESIGN.md §9) moves row loops into
// worker goroutines, so the same rule applies to every function literal
// spawned with a go statement or handed to qerr.Pool — otherwise a
// worker could spin past a cancellation the coordinator already
// observed. Loops that are genuinely bounded — fixed-width schema
// iteration, per-column work — carry a "//lint:allow ctxpoll"
// annotation with a reason.
//
// Batch-at-a-time execution (DESIGN.md §15) amortizes polling to one
// check per batch, so batch pulling gets its own cadence rule, in every
// function of the package, function literals included: every
// batch-puller loop — one that advances child data through NextBatch —
// must poll per iteration (an unpolled puller can skip empty or
// filtered-out child batches for as long as the child produces,
// unbounded by the batch in hand), while loops that only walk the batch
// already in memory are bounded by its capacity and need no poll. A
// NextBatch that neither polls nor pulls is flagged too: it would emit
// batches invisible to cancellation.
//
// The candidate-world evaluators (DESIGN.md §17) keep one database and
// one operator tree open across thousands of candidate databases, so
// their loops live outside exec: in packages dirty and core, every loop
// that steps a world — refills a row (SetRow), refills a world (Fill),
// draws a candidate (Sample) or re-opens the prepared tree (Run) — must
// check the context per iteration (a ticker's Poll or qerr.FromContext).
package ctxpoll

import (
	"go/ast"
	"go/token"

	"conquer/internal/analysis"
)

// Analyzer flags Open loops, batch-puller loops and worker-function loops
// in package exec that never poll for cancellation.
var Analyzer = &analysis.Analyzer{
	Name: "ctxpoll",
	Doc:  "operator Open loops, batch-puller loops and worker-function loops in package exec, and candidate-world loops in packages dirty and core, must poll cancellation",
	Run:  run,
}

// pollers are the callees that count as a cancellation check: the
// governor's amortized poll and its batch-cadence variants (PollBatch
// checks the context once per batch, PollLeaf keeps the per-row ticker
// cadence inside batch fill loops), the qerr ticker behind them, and
// the buffering helpers that poll internally while draining a child.
var pollers = map[string]bool{
	"Poll":                   true,
	"PollBatch":              true,
	"PollLeaf":               true,
	"drainBatches":           true,
	"CollectBatchesGoverned": true,
}

// batchPullers are the callees that advance child data through a batch
// pipeline; a loop calling one without polling can outlive cancellation
// by the child's whole input.
var batchPullers = map[string]bool{
	"NextBatch": true,
}

// worldSteppers are the callees that advance a candidate world; a loop in
// dirty or core calling one without worldPollers runs for as many
// candidates, or as many rows, as the database has.
var worldSteppers = map[string]bool{
	"SetRow": true,
	"Fill":   true,
	"Sample": true,
	"Run":    true,
}

var worldPollers = map[string]bool{
	"Poll":        true,
	"FromContext": true,
}

func run(pass *analysis.Pass) (any, error) {
	switch pass.Pkg.Name() {
	case "exec":
	case "dirty", "core":
		checkWorldLoops(pass)
		return nil, nil
	default:
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
			if fd.Recv != nil && fd.Name.Name == "Open" {
				checkLoops(pass, fd)
			}
			if fd.Recv != nil && fd.Name.Name == "NextBatch" && !polls(fd.Body) && !pulls(fd.Body) {
				// One poll per batch is the amortization contract.
				pass.Reportf(fd.Pos(), "%s.NextBatch neither polls cancellation nor pulls a child; call the governor's PollBatch once per batch", recvType(fd))
			}
			checkPullerLoops(pass, fd)
			checkWorkerFuncs(pass, fd)
		}
	}
	return nil, nil
}

// checkWorldLoops reports every loop in the package, function literals
// included, that steps a candidate world without checking the context. An
// outer loop that only contains a stepping inner loop is judged by the
// same body, so one check anywhere inside vouches for both.
func checkWorldLoops(pass *analysis.Pass) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var pos token.Pos
			switch l := n.(type) {
			case *ast.ForStmt:
				body, pos = l.Body, l.For
			case *ast.RangeStmt:
				body, pos = l.Body, l.For
			default:
				return true
			}
			if callsAny(body, worldSteppers) && !callsAny(body, worldPollers) {
				pass.Reportf(pos, "loop steps a candidate world without checking the context; call a ticker's Poll or qerr.FromContext per iteration")
				return false
			}
			return true
		})
	}
}

// checkLoops reports every for/range loop in fd whose body (including
// nested statements) never reaches a polling callee. Function literals
// are separate execution contexts — the worker check owns the spawned
// ones — so the walk does not descend into them.
func checkLoops(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		var pos token.Pos
		switch l := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			body, pos = l.Body, l.For
		case *ast.RangeStmt:
			body, pos = l.Body, l.For
		default:
			return true
		}
		if !polls(body) {
			pass.Reportf(pos, "loop in %s.%s does not poll cancellation; call the governor's Poll (or annotate a bounded loop with lint:allow ctxpoll)", recvType(fd), fd.Name.Name)
		}
		// A polling outer loop vouches for its inner loops too: the
		// amortized ticker advances wherever the Poll call sits.
		return false
	})
}

// checkPullerLoops enforces the batch cadence on fd, function literals
// included: every batch-puller loop must poll per iteration. Loops that
// neither poll nor pull only walk the batch already in hand — bounded by
// its capacity, not the data size — and pass without annotation.
func checkPullerLoops(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		var pos token.Pos
		switch l := n.(type) {
		case *ast.ForStmt:
			body, pos = l.Body, l.For
		case *ast.RangeStmt:
			body, pos = l.Body, l.For
		default:
			return true
		}
		if pulls(body) && !polls(body) {
			pass.Reportf(pos, "batch-puller loop in %s does not poll cancellation; call the governor's PollBatch once per iteration", funcName(fd))
		}
		// A polling (or already-reported) outer loop vouches for its
		// inner loops, exactly as in checkLoops.
		return false
	})
}

// checkWorkerFuncs reports unpolled loops inside worker function
// literals: literals launched with a go statement or passed to
// qerr.Pool anywhere in fd.
func checkWorkerFuncs(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				checkWorkerLoops(pass, fd, lit)
			}
		case *ast.CallExpr:
			if isPool(n.Fun) {
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						checkWorkerLoops(pass, fd, lit)
					}
				}
			}
		}
		return true
	})
}

// isPool matches a call of the worker pool the executor runs on,
// qerr.Pool.
func isPool(fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Pool" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "qerr"
}

// checkWorkerLoops is checkLoops for a worker function literal.
func checkWorkerLoops(pass *analysis.Pass, fd *ast.FuncDecl, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		var pos token.Pos
		switch l := n.(type) {
		case *ast.ForStmt:
			body, pos = l.Body, l.For
		case *ast.RangeStmt:
			body, pos = l.Body, l.For
		default:
			return true
		}
		if !polls(body) {
			pass.Reportf(pos, "loop in worker function spawned by %s does not poll cancellation; call the forked governor's Poll (or annotate a bounded loop with lint:allow ctxpoll)", funcName(fd))
		}
		return false
	})
}

// polls reports whether the block contains a call to a polling callee.
func polls(body *ast.BlockStmt) bool { return callsAny(body, pollers) }

// pulls reports whether the block contains a call advancing child data
// (directly or in a nested statement).
func pulls(body *ast.BlockStmt) bool { return callsAny(body, batchPullers) }

// callsAny reports whether the block contains a call to any callee in
// names.
func callsAny(body *ast.BlockStmt, names map[string]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if names[fun.Sel.Name] {
				found = true
			}
		case *ast.Ident:
			if names[fun.Name] {
				found = true
			}
		}
		return !found
	})
	return found
}

// recvType names the receiver type for diagnostics.
func recvType(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 {
		return "?"
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

// funcName names fd for diagnostics, with the receiver when present.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv != nil {
		return recvType(fd) + "." + fd.Name.Name
	}
	return fd.Name.Name
}
