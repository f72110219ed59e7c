package flow_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"conquer/internal/analysis/flow"
)

// compile parses and type-checks src (one file, package p) and returns
// its AST plus type info.
func compile(t *testing.T, src string) (*ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return f, info
}

// funcNamed returns the declaration of the named function.
func funcNamed(t *testing.T, f *ast.File, name string) *ast.FuncDecl {
	t.Helper()
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	t.Fatalf("no function %q", name)
	return nil
}

// graphOf builds the CFG of the named function in src.
func graphOf(t *testing.T, src, name string) (*flow.Graph, *ast.FuncDecl, *types.Info) {
	t.Helper()
	f, info := compile(t, src)
	fd := funcNamed(t, f, name)
	return flow.New(fd.Body), fd, info
}

// wantGraph compares the rendered CFG against the golden form.
func wantGraph(t *testing.T, g *flow.Graph, want string) {
	t.Helper()
	got := strings.TrimSpace(g.String())
	want = strings.TrimSpace(want)
	if got != want {
		t.Errorf("CFG mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// ---------------------------------------------------------------------------
// CFG golden tests
// ---------------------------------------------------------------------------

func TestCFGBranch(t *testing.T) {
	g, _, _ := graphOf(t, `package p
func f(x int) int {
	y := 0
	if x > 0 {
		y = 1
	} else {
		y = 2
	}
	return y
}`, "f")
	wantGraph(t, g, `
b0 entry: {y := 0} {x > 0} -> b1 b3
b1 if.then: {y = 1} -> b2
b2 if.done: {return y} -> b4
b3 if.else: {y = 2} -> b2
b4 exit:
`)
}

func TestCFGEarlyReturn(t *testing.T) {
	g, _, _ := graphOf(t, `package p
func f(x int) int {
	if x < 0 {
		return -1
	}
	return x
}`, "f")
	wantGraph(t, g, `
b0 entry: {x < 0} -> b1 b2
b1 if.then: {return -1} -> b3
b2 if.done: {return x} -> b3
b3 exit:
`)
}

func TestCFGForLoop(t *testing.T) {
	g, _, _ := graphOf(t, `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		if i == 2 {
			continue
		}
		if i == 7 {
			break
		}
		s += i
	}
	return s
}`, "f")
	wantGraph(t, g, `
b0 entry: {s := 0} {i := 0} -> b1
b1 for.head: {i < n} -> b2 b3
b2 for.body: {i == 2} -> b5 b6
b3 for.done: {return s} -> b9
b4 for.post: {i++} -> b1
b5 if.then: -> b4
b6 if.done: {i == 7} -> b7 b8
b7 if.then: -> b3
b8 if.done: {s += i} -> b4
b9 exit:
`)
}

func TestCFGRangeLoop(t *testing.T) {
	g, _, _ := graphOf(t, `package p
func f(m map[string]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}`, "f")
	wantGraph(t, g, `
b0 entry: {s := 0} -> b1
b1 range.head: {_, v := range m} -> b2 b3
b2 range.body: {s += v} -> b1
b3 range.done: {return s} -> b4
b4 exit:
`)
}

func TestCFGSwitchFallthrough(t *testing.T) {
	g, _, _ := graphOf(t, `package p
func f(x int) int {
	s := 0
	switch x {
	case 1:
		s = 1
		fallthrough
	case 2:
		s = 2
	default:
		s = 9
	}
	return s
}`, "f")
	wantGraph(t, g, `
b0 entry: {s := 0} {x} -> b2 b3 b4
b1 switch.done: {return s} -> b5
b2 switch.case: {1} {s = 1} -> b3
b3 switch.case: {2} {s = 2} -> b1
b4 switch.case: {s = 9} -> b1
b5 exit:
`)
}

func TestCFGDeferAndPanic(t *testing.T) {
	g, _, _ := graphOf(t, `package p
func f(x int) {
	defer println("out")
	if x < 0 {
		panic("neg")
	}
	println(x)
}`, "f")
	wantGraph(t, g, `
b0 entry: {defer println("out")} {x < 0} -> b1 b2
b1 if.then: {panic("neg")} -> b3
b2 if.done: {println(x)} -> b3
b3 exit:
`)
}

func TestCFGLabeledBreakAndGoto(t *testing.T) {
	g, _, _ := graphOf(t, `package p
func f(ms [][]int) int {
	s := 0
outer:
	for _, row := range ms {
		for _, v := range row {
			if v < 0 {
				break outer
			}
			s += v
		}
	}
	if s > 100 {
		goto done
	}
	s *= 2
done:
	return s
}`, "f")
	// The essential edges: inner break jumps to the outer range's done
	// block; goto jumps to the labeled return block.
	text := g.String()
	for _, frag := range []string{"label.done", "range.head"} {
		if !strings.Contains(text, frag) {
			t.Errorf("CFG missing %q:\n%s", frag, text)
		}
	}
	// break outer must create an edge from the if.then block into the
	// outer loop's range.done block.
	var outerDone *flow.Block
	for _, b := range g.Blocks {
		if b.Kind == "range.done" && outerDone == nil {
			outerDone = b
		}
	}
	if outerDone == nil {
		t.Fatalf("no range.done block:\n%s", text)
	}
	foundBreakEdge := false
	for _, p := range outerDone.Preds {
		if p.Kind == "if.then" {
			foundBreakEdge = true
		}
	}
	if !foundBreakEdge {
		t.Errorf("break outer edge missing:\n%s", text)
	}
}

func TestCFGSelect(t *testing.T) {
	g, _, _ := graphOf(t, `package p
func f(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case <-b:
	}
	return 0
}`, "f")
	text := g.String()
	if !strings.Contains(text, "select.case") {
		t.Fatalf("no select.case blocks:\n%s", text)
	}
	if n := len(g.Exit.Preds); n != 2 {
		t.Errorf("Exit has %d predecessors, want 2 (the two returns):\n%s", n, text)
	}
}

// ---------------------------------------------------------------------------
// Reaching definitions
// ---------------------------------------------------------------------------

// findAssign returns the first block-level assignment whose rendered
// form contains frag.
func findNode(t *testing.T, g *flow.Graph, frag string) ast.Node {
	t.Helper()
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if strings.Contains(nodeText(n), frag) {
				return n
			}
		}
	}
	t.Fatalf("no node containing %q in:\n%s", frag, g.String())
	return nil
}

func nodeText(n ast.Node) string {
	// Reuse the graph renderer indirectly: wrap in a one-node block.
	b := &flow.Block{Nodes: []ast.Node{n}}
	g := &flow.Graph{Blocks: []*flow.Block{b}}
	return g.String()
}

func objectNamed(t *testing.T, info *types.Info, fd *ast.FuncDecl, name string) types.Object {
	t.Helper()
	var obj types.Object
	ast.Inspect(fd, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name && obj == nil {
			if o := info.ObjectOf(id); o != nil {
				if _, isVar := o.(*types.Var); isVar {
					obj = o
				}
			}
		}
		return true
	})
	if obj == nil {
		t.Fatalf("no variable %q", name)
	}
	return obj
}

func TestDefsLoopCarriedAccumulator(t *testing.T) {
	g, fd, info := graphOf(t, `package p
func f(m map[string]float64) (float64, float64) {
	sum := 0.0
	for _, v := range m {
		tmp := v * 2
		tmp += 1
		sum += tmp
	}
	return sum, 0
}`, "f")
	defs := flow.NewDefs(g, info, fd.Type, nil)

	sumStmt := findNode(t, g, "sum += tmp")
	sum := objectNamed(t, info, fd, "sum")
	if !defs.SelfReaches(sumStmt, sum) {
		t.Errorf("sum += tmp should self-reach (loop-carried accumulator)")
	}

	// tmp is re-defined by := every iteration: its += never self-reaches.
	tmpStmt := findNode(t, g, "tmp += 1")
	tmp := objectNamed(t, info, fd, "tmp")
	if defs.SelfReaches(tmpStmt, tmp) {
		t.Errorf("tmp += 1 must not self-reach (per-iteration temporary)")
	}

	// Before the loop, sum's only def is its initialization.
	if ds := defs.DefsBefore(sumStmt, sum); len(ds) != 2 {
		t.Errorf("defs of sum at accumulation = %d, want 2 (init + self)", len(ds))
	}
}

func TestDefsParamsAndBranches(t *testing.T) {
	g, fd, info := graphOf(t, `package p
func f(x int) int {
	if x > 0 {
		x = 1
	}
	return x
}`, "f")
	defs := flow.NewDefs(g, info, fd.Type, nil)
	ret := findNode(t, g, "return x")
	x := objectNamed(t, info, fd, "x")
	ds := defs.DefsBefore(ret, x)
	if len(ds) != 2 {
		t.Errorf("defs of x at return = %d, want 2 (param + branch assign)", len(ds))
	}
}

// ---------------------------------------------------------------------------
// Taint
// ---------------------------------------------------------------------------

// taintSelector taints every selector expression reading a field called
// Prob.
func taintProbField(info *types.Info) func(ast.Expr) bool {
	return func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Prob"
	}
}

func TestTaintFlowsThroughAssignments(t *testing.T) {
	g, fd, info := graphOf(t, `package p
type A struct{ Prob float64 }
func f(a A) bool {
	p := a.Prob
	q := p * 2
	r := 1.0
	if q > 0 {
		r = q
	}
	clean := 3.0
	return r == clean
}`, "f")
	taint := flow.NewTaint(g, info, taintProbField(info))
	ret := findNode(t, g, "return r == clean")
	r := objectNamed(t, info, fd, "r")
	clean := objectNamed(t, info, fd, "clean")
	if !taint.TaintedObjAt(ret, r) {
		t.Errorf("r should be tainted (Prob -> p -> q -> r on the then-branch)")
	}
	if taint.TaintedObjAt(ret, clean) {
		t.Errorf("clean must stay untainted")
	}
}

func TestTaintStrongUpdateUntaints(t *testing.T) {
	g, fd, info := graphOf(t, `package p
type A struct{ Prob float64 }
func f(a A) float64 {
	p := a.Prob
	p = 0.5
	return p
}`, "f")
	taint := flow.NewTaint(g, info, taintProbField(info))
	ret := findNode(t, g, "return p")
	p := objectNamed(t, info, fd, "p")
	if taint.TaintedObjAt(ret, p) {
		t.Errorf("p re-assigned from a constant must be untainted (strong update)")
	}
}

func TestTaintThroughRange(t *testing.T) {
	g, fd, info := graphOf(t, `package p
type A struct{ Prob float64 }
func f(as map[string]A) float64 {
	probs := make(map[string]float64)
	for k, a := range as {
		probs[k] = a.Prob
	}
	s := 0.0
	for _, v := range probs {
		s += v
	}
	return s
}`, "f")
	taint := flow.NewTaint(g, info, taintProbField(info))
	acc := findNode(t, g, "s += v")
	v := objectNamed(t, info, fd, "v")
	if !taint.TaintedObjAt(acc, v) {
		t.Errorf("v should be tainted: probs holds Prob-derived values and v ranges over it")
	}
}
