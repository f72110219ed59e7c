// Dataflow solvers over the CFG: reaching definitions and taint.
//
// Both share the same shape — a forward worklist fixpoint over
// block-level facts, with per-statement precision recovered on demand by
// replaying a block's prefix — and the same conservative stance: facts
// merge with union (may-analysis), function calls neither generate nor
// kill facts unless the client says so, and queries on nodes the graph
// never saw return the bottom element.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// ---------------------------------------------------------------------------
// Object helpers shared by the solvers
// ---------------------------------------------------------------------------

// RootObject resolves the variable object that owns an lvalue or value
// expression: the object of an identifier, or of the base identifier
// under any chain of index, selector, star and paren wrappers
// (x, x[i], x.f[i].g, *x → x). It returns nil for expressions not
// rooted at a simple identifier.
func RootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := info.ObjectOf(x); obj != nil {
				if _, ok := obj.(*types.Var); ok {
					return obj
				}
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

// isPlainIdent reports whether e is a bare identifier (possibly
// parenthesized) — the only lvalue shape that admits a strong update.
func isPlainIdent(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return true
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

// ---------------------------------------------------------------------------
// Reaching definitions
// ---------------------------------------------------------------------------

// Defs holds the reaching-definitions solution of one graph: for every
// program point, which definition sites of each variable may reach it.
type Defs struct {
	g    *Graph
	info *types.Info
	in   map[*Block]defFacts
}

// defFacts maps a variable to the set of nodes that may have defined
// its current value.
type defFacts map[types.Object]map[ast.Node]bool

func (f defFacts) clone() defFacts {
	out := make(defFacts, len(f))
	for obj, defs := range f {
		d := make(map[ast.Node]bool, len(defs))
		for n := range defs {
			d[n] = true
		}
		out[obj] = d
	}
	return out
}

// merge unions other into f, reporting whether f changed.
func (f defFacts) merge(other defFacts) bool {
	changed := false
	for obj, defs := range other {
		dst := f[obj]
		if dst == nil {
			dst = make(map[ast.Node]bool, len(defs))
			f[obj] = dst
		}
		for n := range defs {
			if !dst[n] {
				dst[n] = true
				changed = true
			}
		}
	}
	return changed
}

// NewDefs computes reaching definitions for g. Parameters (and named
// results) of fn, when non-nil, are defined at entry with the FuncType
// as their definition site.
func NewDefs(g *Graph, info *types.Info, fn *ast.FuncType, recv *ast.FieldList) *Defs {
	d := &Defs{g: g, info: info, in: make(map[*Block]defFacts, len(g.Blocks))}
	entry := make(defFacts)
	seed := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := info.ObjectOf(name); obj != nil {
					entry[obj] = map[ast.Node]bool{fn: true}
				}
			}
		}
	}
	if fn != nil {
		seed(recv)
		seed(fn.Params)
		seed(fn.Results)
	}
	d.in[g.Entry] = entry
	d.solve()
	return d
}

func (d *Defs) solve() {
	work := []*Block{d.g.Entry}
	inWork := map[*Block]bool{d.g.Entry: true}
	for len(work) > 0 {
		blk := work[0]
		work, inWork[blk] = work[1:], false
		out := d.in[blk].clone()
		for _, n := range blk.Nodes {
			d.transfer(n, out)
		}
		for _, succ := range blk.Succs {
			facts := d.in[succ]
			first := facts == nil
			if first {
				facts = make(defFacts)
				d.in[succ] = facts
			}
			// A block must be processed at least once after it is first
			// reached — its own nodes may generate facts — so the first
			// touch enqueues even when the merged-in facts are empty.
			if (facts.merge(out) || first) && !inWork[succ] {
				work = append(work, succ)
				inWork[succ] = true
			}
		}
	}
}

// transfer applies one node's definitions to facts in place.
func (d *Defs) transfer(n ast.Node, facts defFacts) {
	define := func(lhs ast.Expr, strong bool) {
		obj := RootObject(d.info, lhs)
		if obj == nil {
			return
		}
		if strong && isPlainIdent(lhs) {
			facts[obj] = map[ast.Node]bool{n: true}
			return
		}
		defs := facts[obj]
		if defs == nil {
			defs = make(map[ast.Node]bool)
			facts[obj] = defs
		}
		defs[n] = true
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		strong := n.Tok == token.ASSIGN || n.Tok == token.DEFINE
		for _, lhs := range n.Lhs {
			define(lhs, strong)
		}
	case *ast.IncDecStmt:
		define(n.X, false) // x++ reads x: the old def still contributed
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						define(name, true)
					}
				}
			}
		}
	case *ast.RangeStmt:
		if n.Key != nil {
			define(n.Key, true)
		}
		if n.Value != nil {
			define(n.Value, true)
		}
	}
}

// factsBefore replays blk's prefix up to (but not including) node.
func (d *Defs) factsBefore(node ast.Node) defFacts {
	blk := d.g.blockOf[node]
	if blk == nil {
		return nil
	}
	facts := d.in[blk]
	if facts == nil {
		return nil // unreachable block: bottom
	}
	facts = facts.clone()
	for _, n := range blk.Nodes {
		if n == node {
			break
		}
		d.transfer(n, facts)
	}
	return facts
}

// DefsBefore returns the definition sites of obj that may reach the
// program point just before node (which must be a block-level node of
// the graph). A nil result means the node is unreachable or obj has no
// recorded definition (e.g. a package-level variable).
func (d *Defs) DefsBefore(node ast.Node, obj types.Object) []ast.Node {
	facts := d.factsBefore(node)
	if facts == nil {
		return nil
	}
	var out []ast.Node
	for n := range facts[obj] {
		out = append(out, n)
	}
	// Deterministic order for callers and tests: definition sites sorted
	// by source position, never raw map order.
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// SelfReaches reports whether the definition that node makes of obj can
// reach node again — i.e. the value is loop-carried across a back edge.
// This is the dataflow signature of an accumulator: for `sum += x`
// inside a loop, the previous iteration's definition of sum flows into
// the current one, while a per-iteration temporary is re-defined before
// every use and never self-reaches.
func (d *Defs) SelfReaches(node ast.Node, obj types.Object) bool {
	facts := d.factsBefore(node)
	if facts == nil {
		return false
	}
	return facts[obj][node]
}

// ---------------------------------------------------------------------------
// Taint
// ---------------------------------------------------------------------------

// Taint propagates a may-taint fact over variables: an expression is
// tainted when it syntactically contains a source (as judged by the
// client's IsSource) or reads a variable whose reaching value may have
// been assigned from a tainted expression. Assignments of untainted
// values to a bare identifier untaint it (strong update); assignments
// through an index, field or pointer taint the root variable weakly.
type Taint struct {
	g    *Graph
	info *types.Info
	// IsSource marks expressions that are tainted by themselves. It is
	// consulted on every sub-expression.
	isSource func(ast.Expr) bool
	in       map[*Block]taintFacts
}

type taintFacts map[types.Object]bool

func (f taintFacts) clone() taintFacts {
	out := make(taintFacts, len(f))
	for obj := range f {
		out[obj] = true
	}
	return out
}

func (f taintFacts) merge(other taintFacts) bool {
	changed := false
	for obj := range other {
		if !f[obj] {
			f[obj] = true
			changed = true
		}
	}
	return changed
}

// NewTaint solves taint propagation for g.
func NewTaint(g *Graph, info *types.Info, isSource func(ast.Expr) bool) *Taint {
	t := &Taint{g: g, info: info, isSource: isSource, in: make(map[*Block]taintFacts, len(g.Blocks))}
	t.in[g.Entry] = make(taintFacts)
	work := []*Block{g.Entry}
	inWork := map[*Block]bool{g.Entry: true}
	for len(work) > 0 {
		blk := work[0]
		work, inWork[blk] = work[1:], false
		out := t.in[blk].clone()
		for _, n := range blk.Nodes {
			t.transfer(n, out)
		}
		for _, succ := range blk.Succs {
			facts := t.in[succ]
			first := facts == nil
			if first {
				facts = make(taintFacts)
				t.in[succ] = facts
			}
			// First touch enqueues even with no incoming taint: the
			// block's own nodes may contain sources.
			if (facts.merge(out) || first) && !inWork[succ] {
				work = append(work, succ)
				inWork[succ] = true
			}
		}
	}
	return t
}

// exprTainted reports whether e is tainted under facts: it contains a
// source sub-expression or references a tainted variable. Function
// literals are opaque (separate execution context).
func (t *Taint) exprTainted(e ast.Expr, facts taintFacts) bool {
	tainted := false
	ast.Inspect(e, func(n ast.Node) bool {
		if tainted {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if sub, ok := n.(ast.Expr); ok {
			if t.isSource != nil && t.isSource(sub) {
				tainted = true
				return false
			}
			if id, ok := sub.(*ast.Ident); ok {
				if obj := t.info.ObjectOf(id); obj != nil && facts[obj] {
					tainted = true
					return false
				}
			}
		}
		return true
	})
	return tainted
}

// transfer applies one node's assignments to facts in place.
func (t *Taint) transfer(n ast.Node, facts taintFacts) {
	assign := func(lhs, rhs ast.Expr, compound bool) {
		obj := RootObject(t.info, lhs)
		if obj == nil {
			return
		}
		rhsTainted := rhs != nil && t.exprTainted(rhs, facts)
		if compound || !isPlainIdent(lhs) {
			// x += e, x[i] = e, x.f = e: the old value (or siblings)
			// survive, so taint only accrues.
			if rhsTainted {
				facts[obj] = true
			}
			return
		}
		if rhsTainted {
			facts[obj] = true
		} else {
			delete(facts, obj)
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		compound := n.Tok != token.ASSIGN && n.Tok != token.DEFINE
		if len(n.Lhs) > 1 && len(n.Rhs) == 1 {
			// Tuple assignment from one call/comma-ok: every LHS takes
			// the RHS's taint.
			for _, lhs := range n.Lhs {
				assign(lhs, n.Rhs[0], compound)
			}
			return
		}
		for i, lhs := range n.Lhs {
			var rhs ast.Expr
			if i < len(n.Rhs) {
				rhs = n.Rhs[i]
			}
			assign(lhs, rhs, compound)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var rhs ast.Expr
					switch {
					case len(vs.Values) == 1 && len(vs.Names) > 1:
						rhs = vs.Values[0]
					case i < len(vs.Values):
						rhs = vs.Values[i]
					}
					assign(name, rhs, false)
				}
			}
		}
	case *ast.RangeStmt:
		// Ranging over a tainted collection taints the per-iteration
		// key and value bindings.
		srcTainted := t.exprTainted(n.X, facts)
		bind := func(e ast.Expr) {
			if e == nil {
				return
			}
			if obj := RootObject(t.info, e); obj != nil {
				if srcTainted {
					facts[obj] = true
				} else if isPlainIdent(e) {
					delete(facts, obj)
				}
			}
		}
		bind(n.Key)
		bind(n.Value)
	}
}

// factsBefore replays the containing block's prefix up to node.
func (t *Taint) factsBefore(node ast.Node) taintFacts {
	blk := t.g.blockOf[node]
	if blk == nil {
		return nil
	}
	facts := t.in[blk]
	if facts == nil {
		return nil
	}
	facts = facts.clone()
	for _, n := range blk.Nodes {
		if n == node {
			break
		}
		t.transfer(n, facts)
	}
	return facts
}

// TaintedAt reports whether expr is tainted at the program point just
// before the block-level node at. Typically at is the statement
// containing expr.
func (t *Taint) TaintedAt(at ast.Node, expr ast.Expr) bool {
	facts := t.factsBefore(at)
	if facts == nil {
		return false
	}
	return t.exprTainted(expr, facts)
}

// TaintedObjAt reports whether the variable obj is tainted just before
// the block-level node at.
func (t *Taint) TaintedObjAt(at ast.Node, obj types.Object) bool {
	facts := t.factsBefore(at)
	if facts == nil {
		return false
	}
	return facts[obj]
}
