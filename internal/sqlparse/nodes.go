package sqlparse

import "conquer/internal/value"

// nodeBlocks hands out the ColumnRef, Literal and BinaryExpr nodes of one
// tree, most of any statement, from one block per kind. The blocks are
// sized before the tree is built — by Parse from its tokens, by a clone
// from the tree it copies — and a block that runs out anyway is replaced
// by a fresh one, never grown by append, so every node handed out keeps
// its address.
type nodeBlocks struct {
	cols []ColumnRef
	lits []Literal
	bins []BinaryExpr
	// lists is the block a clone carves its expression lists from: GROUP
	// BY, call arguments and IN lists. Each is capped at its own length,
	// so an append to one reallocates rather than overwrite the next.
	lists []Expr
}

// spareBlock is the length of the block that replaces one run out.
const spareBlock = 8

// take hands out the next node of block.
func take[T any](block *[]T) *T {
	if len(*block) == 0 {
		*block = make([]T, spareBlock)
	}
	n := &(*block)[0]
	*block = (*block)[1:]
	return n
}

func (b *nodeBlocks) col(qualifier, name string) *ColumnRef {
	c := take(&b.cols)
	c.Qualifier, c.Name = qualifier, name
	return c
}

func (b *nodeBlocks) lit(v value.Value) *Literal {
	l := take(&b.lits)
	l.Val = v
	return l
}

func (b *nodeBlocks) bin(op BinOp, l, r Expr) *BinaryExpr {
	e := take(&b.bins)
	e.Op, e.L, e.R = op, l, r
	return e
}

// nodeCounts sizes nodeBlocks: the nodes of each kind, and the elements
// of the expression lists a clone copies.
type nodeCounts struct{ cols, lits, bins, lists int }

func (n *nodeCounts) add(e Expr) {
	WalkExpr(e, func(x Expr) bool {
		switch x := x.(type) {
		case *ColumnRef:
			n.cols++
		case *Literal:
			n.lits++
		case *BinaryExpr:
			n.bins++
		case *FuncCall:
			n.lists += len(x.Args)
		case *InExpr:
			n.lists += len(x.List)
		}
		return true
	})
}

// blocks allocates blocks of exactly the counts; a count of 0 allocates
// nothing.
func (n nodeCounts) blocks() nodeBlocks {
	return nodeBlocks{
		cols:  make([]ColumnRef, n.cols),
		lits:  make([]Literal, n.lits),
		bins:  make([]BinaryExpr, n.bins),
		lists: make([]Expr, n.lists),
	}
}

// Clone returns a deep copy of the statement; the rewriting layer mutates
// clones rather than caller-owned trees. It counts the nodes first and
// copies into blocks of exactly that size.
func (s *SelectStmt) Clone() *SelectStmt { return s.CloneWithRoom(0) }

// CloneWithRoom is Clone with room in the copy's select list for items
// more, so that a caller appending them does not regrow it.
func (s *SelectStmt) CloneWithRoom(items int) *SelectStmt {
	var n nodeCounts
	for _, it := range s.Select {
		n.add(it.Expr)
	}
	n.add(s.Where)
	for _, g := range s.GroupBy {
		n.add(g)
	}
	n.lists += len(s.GroupBy)
	n.add(s.Having)
	for _, o := range s.OrderBy {
		n.add(o.Expr)
	}
	b := n.blocks()
	c := &SelectStmt{
		Distinct: s.Distinct,
		Where:    b.clone(s.Where),
		Having:   b.clone(s.Having),
		Limit:    s.Limit,
	}
	if len(s.Select)+items > 0 {
		c.Select = make([]SelectItem, len(s.Select), len(s.Select)+items)
		for i, it := range s.Select {
			c.Select[i] = SelectItem{Star: it.Star, Expr: b.clone(it.Expr), Alias: it.Alias}
		}
	}
	c.From = append([]TableRef(nil), s.From...)
	c.GroupBy = b.cloneList(s.GroupBy)
	if len(s.OrderBy) > 0 {
		c.OrderBy = make([]OrderItem, len(s.OrderBy))
		for i, o := range s.OrderBy {
			c.OrderBy[i] = OrderItem{Expr: b.clone(o.Expr), Desc: o.Desc}
		}
	}
	return c
}

// CloneExpr deep-copies an expression tree; nil maps to nil. Like Clone,
// it counts the nodes first and copies into blocks of exactly that size.
func CloneExpr(e Expr) Expr {
	var n nodeCounts
	n.add(e)
	b := n.blocks()
	return b.clone(e)
}

// cloneList copies es into a slice of its own; empty maps to nil.
func (b *nodeBlocks) cloneList(es []Expr) []Expr {
	n := len(es)
	if n == 0 {
		return nil
	}
	if len(b.lists) < n {
		b.lists = make([]Expr, n)
	}
	out := b.lists[:n:n]
	b.lists = b.lists[n:]
	for i, e := range es {
		out[i] = b.clone(e)
	}
	return out
}

func (b *nodeBlocks) clone(e Expr) Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *ColumnRef:
		return b.col(e.Qualifier, e.Name)
	case *Literal:
		return b.lit(e.Val)
	case *BinaryExpr:
		return b.bin(e.Op, b.clone(e.L), b.clone(e.R))
	case *NotExpr:
		return &NotExpr{X: b.clone(e.X)}
	case *NegExpr:
		return &NegExpr{X: b.clone(e.X)}
	case *FuncCall:
		return &FuncCall{Name: e.Name, Star: e.Star, Args: b.cloneList(e.Args)}
	case *InExpr:
		return &InExpr{X: b.clone(e.X), List: b.cloneList(e.List), Not: e.Not}
	case *BetweenExpr:
		return &BetweenExpr{X: b.clone(e.X), Lo: b.clone(e.Lo), Hi: b.clone(e.Hi), Not: e.Not}
	case *LikeExpr:
		return &LikeExpr{X: b.clone(e.X), Pattern: e.Pattern, Not: e.Not}
	case *IsNullExpr:
		return &IsNullExpr{X: b.clone(e.X), Not: e.Not}
	default:
		panic("sqlparse: CloneExpr: unknown node") //lint:allow nopanic -- unreachable: the switch covers every Expr node
	}
}
