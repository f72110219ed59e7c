// Package flow grows the analysis framework from syntactic walks into a
// per-function dataflow engine: basic-block control-flow graphs built
// from go/ast, plus the two solvers a dataflow analyzer needs —
// reaching definitions and a small taint lattice.
//
// The engine is deliberately function-local and stdlib-only, like the
// rest of internal/analysis: it models intraprocedural control flow
// (branches, loops, switches, selects, labeled break/continue, goto,
// panic, defer) precisely enough that its one user, maporder, reasons
// about what a value is along every path rather than what the enclosing
// line looks like. That is the difference between "this += sits
// lexically inside a range" and "the accumulated value is loop-carried
// across the map range's back edge", the class of bug (a JS-distance
// fold whose low bits changed run to run) that purely syntactic walks
// kept missing.
package flow

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// A Block is one basic block: a maximal straight-line sequence of
// statements (and the control expressions that guard its successors).
type Block struct {
	Index int
	Kind  string // diagnostic label: "entry", "if.then", "range.body", ...

	// Nodes holds the block's statements in execution order. Control
	// expressions appear as bare ast.Expr entries (an if or for
	// condition, a switch tag); a range header appears as its
	// *ast.RangeStmt so solvers can model the per-iteration key/value
	// assignment.
	Nodes []ast.Node

	Succs []*Block
	Preds []*Block
}

// A Graph is the control-flow graph of one function body. It has a
// single synthetic Exit that every return, panic and fall-off-the-end
// path reaches.
type Graph struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block

	blockOf map[ast.Node]*Block // top-level node -> containing block
}

// BlockOf returns the block whose Nodes contain n (a statement or
// control expression recorded at block level), or nil.
func (g *Graph) BlockOf(n ast.Node) *Block { return g.blockOf[n] }

// New builds the CFG of body. The graph always has an entry and an exit
// block; unreachable code keeps its blocks (with no predecessors) so
// positions remain queryable.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{blockOf: make(map[ast.Node]*Block)}
	b := &builder{g: g, labels: make(map[string]*labelTargets)}
	g.Entry = b.newBlock("entry")
	g.Exit = &Block{Kind: "exit"} // indexed last, below
	b.cur = g.Entry
	b.stmtList(body.List)
	// Falling off the end of the body reaches Exit.
	if b.cur != nil {
		b.edge(b.cur, g.Exit)
	}
	g.Exit.Index = len(g.Blocks)
	g.Blocks = append(g.Blocks, g.Exit)
	b.resolveGotos()
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return g
}

// labelTargets records where a labeled break/continue/goto lands.
type labelTargets struct {
	stmt *Block // the labeled statement itself (goto target)
	brk  *Block // break target when the label names a loop/switch/select
	cont *Block // continue target when the label names a loop
}

// loopCtx is one entry of the break/continue stack.
type loopCtx struct {
	label string // enclosing label, "" when unlabeled
	brk   *Block
	cont  *Block // nil for switch/select (continue passes through)
}

type pendingGoto struct {
	from  *Block
	label string
}

type builder struct {
	g      *Graph
	cur    *Block // nil after a terminator until the next block starts
	loops  []loopCtx
	labels map[string]*labelTargets
	gotos  []pendingGoto
	// label pending on the next loop/switch statement, set by LabeledStmt
	pendingLabel string
	// fallNext is the fallthrough target while building a switch clause.
	fallNext *Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// use returns the current block, creating an unreachable one after a
// terminator so trailing dead code still lives somewhere.
func (b *builder) use() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

func (b *builder) add(n ast.Node) {
	blk := b.use()
	blk.Nodes = append(blk.Nodes, n)
	b.g.blockOf[n] = blk
}

// startBlock seals cur with an edge into a fresh block and makes it
// current.
func (b *builder) startBlock(kind string) *Block {
	blk := b.newBlock(kind)
	if b.cur != nil {
		b.edge(b.cur, blk)
	}
	b.cur = blk
	return blk
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.use()
		thenB := b.newBlock("if.then")
		b.edge(cond, thenB)
		merge := b.newBlock("if.done")
		b.cur = thenB
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, merge)
		}
		if s.Else != nil {
			elseB := b.newBlock("if.else")
			b.edge(cond, elseB)
			b.cur = elseB
			b.stmt(s.Else)
			if b.cur != nil {
				b.edge(b.cur, merge)
			}
		} else {
			b.edge(cond, merge)
		}
		b.cur = merge

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.startBlock("for.head")
		if s.Cond != nil {
			b.add(s.Cond)
		}
		head = b.use() // cond lives in head
		body := b.newBlock("for.body")
		merge := b.newBlock("for.done")
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, merge)
		}
		cont := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post")
			cont = post
		}
		b.setLabel(label, nil, merge, cont)
		b.loops = append(b.loops, loopCtx{label: label, brk: merge, cont: cont})
		b.cur = body
		b.stmtList(s.Body.List)
		if post != nil {
			if b.cur != nil {
				b.edge(b.cur, post)
			}
			b.cur = post
			b.add(s.Post)
			b.edge(b.cur, head)
		} else if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = merge

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.startBlock("range.head")
		b.add(s) // the header models per-iteration key/value binding
		head = b.g.blockOf[s]
		body := b.newBlock("range.body")
		merge := b.newBlock("range.done")
		b.edge(head, body)
		b.edge(head, merge)
		b.setLabel(label, nil, merge, head)
		b.loops = append(b.loops, loopCtx{label: label, brk: merge, cont: head})
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = merge

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.buildSwitch(label, s.Body.List, func(clause ast.Stmt) ([]ast.Node, []ast.Stmt) {
			cc := clause.(*ast.CaseClause)
			nodes := make([]ast.Node, len(cc.List))
			for i, e := range cc.List {
				nodes[i] = e
			}
			return nodes, cc.Body
		})

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.buildSwitch(label, s.Body.List, func(clause ast.Stmt) ([]ast.Node, []ast.Stmt) {
			cc := clause.(*ast.CaseClause)
			return nil, cc.Body
		})

	case *ast.SelectStmt:
		label := b.takeLabel()
		sel := b.use()
		merge := b.newBlock("select.done")
		b.setLabel(label, nil, merge, nil)
		b.loops = append(b.loops, loopCtx{label: label, brk: merge})
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			blk := b.newBlock("select.case")
			b.edge(sel, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			if b.cur != nil {
				b.edge(b.cur, merge)
			}
		}
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = merge

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.use(), b.g.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.LabeledStmt:
		// The labeled statement gets its own block so goto can target it.
		lt := b.labels[s.Label.Name]
		if lt == nil {
			lt = &labelTargets{}
			b.labels[s.Label.Name] = lt
		}
		blk := b.startBlock("label." + s.Label.Name)
		lt.stmt = blk
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && isPanicCall(call) {
			b.edge(b.use(), b.g.Exit)
			b.cur = nil
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assignments, declarations, defers, sends, go statements,
		// inc/dec: straight-line nodes.
		b.add(s)
	}
}

// buildSwitch shares the clause plumbing of switch and type switch.
// caseOf returns the guarding expressions (recorded for position
// queries) and the clause body; a nil-List clause is the default.
func (b *builder) buildSwitch(label string, clauses []ast.Stmt, caseOf func(ast.Stmt) ([]ast.Node, []ast.Stmt)) {
	head := b.use()
	merge := b.newBlock("switch.done")
	b.setLabel(label, nil, merge, nil)
	b.loops = append(b.loops, loopCtx{label: label, brk: merge})
	outerFall := b.fallNext
	hasDefault := false
	blocks := make([]*Block, len(clauses))
	bodies := make([][]ast.Stmt, len(clauses))
	for i, clause := range clauses {
		exprs, body := caseOf(clause)
		if cc, ok := clause.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock("switch.case")
		b.edge(head, blk)
		for _, e := range exprs {
			blk.Nodes = append(blk.Nodes, e)
			b.g.blockOf[e] = blk
		}
		blocks[i], bodies[i] = blk, body
	}
	if !hasDefault {
		b.edge(head, merge)
	}
	for i := range clauses {
		b.cur = blocks[i]
		// fallthrough jumps to the next clause's block.
		b.fallNext = nil
		if i+1 < len(clauses) {
			b.fallNext = blocks[i+1]
		}
		b.stmtList(bodies[i])
		if b.cur != nil {
			b.edge(b.cur, merge)
		}
	}
	b.fallNext = outerFall
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = merge
}

// branch wires break/continue/goto/fallthrough.
func (b *builder) branch(s *ast.BranchStmt) {
	from := b.use()
	switch s.Tok {
	case token.BREAK:
		if s.Label != nil {
			if lt := b.labels[s.Label.Name]; lt != nil && lt.brk != nil {
				b.edge(from, lt.brk)
			}
		} else if n := len(b.loops); n > 0 {
			b.edge(from, b.loops[n-1].brk)
		}
	case token.CONTINUE:
		if s.Label != nil {
			if lt := b.labels[s.Label.Name]; lt != nil && lt.cont != nil {
				b.edge(from, lt.cont)
			}
		} else {
			for i := len(b.loops) - 1; i >= 0; i-- {
				if b.loops[i].cont != nil {
					b.edge(from, b.loops[i].cont)
					break
				}
			}
		}
	case token.GOTO:
		if s.Label != nil {
			b.gotos = append(b.gotos, pendingGoto{from: from, label: s.Label.Name})
		}
	case token.FALLTHROUGH:
		if b.fallNext != nil {
			b.edge(from, b.fallNext)
		}
	}
	b.cur = nil
}

func (b *builder) resolveGotos() {
	for _, g := range b.gotos {
		if lt := b.labels[g.label]; lt != nil && lt.stmt != nil {
			b.edge(g.from, lt.stmt)
		}
	}
}

// takeLabel consumes the label attached to the statement being built.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// setLabel records break/continue targets for a labeled construct.
func (b *builder) setLabel(label string, stmt, brk, cont *Block) {
	if label == "" {
		return
	}
	lt := b.labels[label]
	if lt == nil {
		lt = &labelTargets{}
		b.labels[label] = lt
	}
	if stmt != nil {
		lt.stmt = stmt
	}
	lt.brk, lt.cont = brk, cont
}

func isPanicCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// String renders the graph in a stable textual form for golden tests:
// one line per block with a compact summary of each node.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "b%d %s:", blk.Index, blk.Kind)
		for _, n := range blk.Nodes {
			fmt.Fprintf(&sb, " {%s}", summarize(n))
		}
		if len(blk.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range blk.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// summarize renders one node on one line, truncated; range headers and
// defers get bespoke forms so bodies don't leak into the summary.
func summarize(n ast.Node) string {
	switch n := n.(type) {
	case *ast.RangeStmt:
		hdr := "range " + render(n.X)
		if n.Key != nil {
			kv := render(n.Key)
			if n.Value != nil {
				kv += ", " + render(n.Value)
			}
			hdr = kv + " " + n.Tok.String() + " " + hdr
		}
		return hdr
	case *ast.DeferStmt:
		return "defer " + render(n.Call)
	}
	return render(n)
}

func render(n ast.Node) string {
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.RawFormat}
	if err := cfg.Fprint(&buf, token.NewFileSet(), n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	s := strings.Join(strings.Fields(buf.String()), " ")
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}
