// Package sqlparse implements the SQL front end: a lexer, a
// recursive-descent parser and an AST with a pretty-printer, covering the
// select-project-join subset the paper's rewriting operates on:
//
//	SELECT [DISTINCT] expr [AS alias], ...
//	FROM table [alias], ...
//	WHERE conjunctions/disjunctions of comparisons, IN, BETWEEN, LIKE, IS NULL
//	GROUP BY exprs
//	ORDER BY expr [ASC|DESC], ...
//	LIMIT n
//
// The printer emits SQL that re-parses to the same tree; the rewriting
// package relies on this to hand rewritten queries back as ordinary SQL
// text, exactly as the paper's RewriteClean does.
package sqlparse

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"strings"

	"conquer/internal/value"
)

// SelectStmt is a parsed SELECT statement.
type SelectStmt struct {
	Distinct bool
	Select   []SelectItem
	From     []TableRef
	Where    Expr // nil when absent
	GroupBy  []Expr
	Having   Expr // nil when absent
	OrderBy  []OrderItem
	Limit    int // -1 when absent
}

// Tables lists the relations the FROM clause names, in order, a relation
// named twice listed twice: everything a statement can read.
func (s *SelectStmt) Tables() []string {
	names := make([]string, len(s.From))
	for i, tr := range s.From {
		names[i] = tr.Table
	}
	return names
}

// SelectItem is one projection in the select list.
type SelectItem struct {
	Star  bool   // SELECT * (Expr is nil)
	Expr  Expr   // nil iff Star
	Alias string // optional AS alias
}

// TableRef names a relation in the FROM clause, optionally aliased.
type TableRef struct {
	Table string
	Alias string // equals Table when no alias was written
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Expr is a scalar or boolean expression node.
type Expr interface {
	// SQL renders the expression as parseable SQL text.
	SQL() string
	exprNode()
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators in increasing precedence groups.
const (
	OpOr BinOp = iota
	OpAnd
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
)

// String returns the SQL spelling of the operator.
func (op BinOp) String() string {
	switch op {
	case OpOr:
		return "OR"
	case OpAnd:
		return "AND"
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	default:
		return "?"
	}
}

func (op BinOp) precedence() int {
	switch op {
	case OpOr:
		return 1
	case OpAnd:
		return 2
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return 3
	case OpAdd, OpSub:
		return 4
	case OpMul, OpDiv:
		return 5
	default:
		return 0
	}
}

// IsComparison reports whether op is one of =, <>, <, <=, >, >=.
func (op BinOp) IsComparison() bool { return op >= OpEq && op <= OpGe }

// ColumnRef references a column, optionally qualified by a table alias.
type ColumnRef struct {
	Qualifier string // may be empty
	Name      string
}

// Literal is a constant value.
type Literal struct {
	Val value.Value
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   BinOp
	L, R Expr
}

// NotExpr is logical negation.
type NotExpr struct {
	X Expr
}

// NegExpr is arithmetic negation.
type NegExpr struct {
	X Expr
}

// FuncCall is a function or aggregate call; Star marks COUNT(*).
type FuncCall struct {
	Name string // upper-cased
	Star bool
	Args []Expr
}

// InExpr is `x [NOT] IN (v1, v2, ...)` over a literal list.
type InExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

// BetweenExpr is `x [NOT] BETWEEN lo AND hi`.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

// LikeExpr is `x [NOT] LIKE 'pattern'` with % and _ wildcards.
type LikeExpr struct {
	X       Expr
	Pattern string
	Not     bool
}

// IsNullExpr is `x IS [NOT] NULL`.
type IsNullExpr struct {
	X   Expr
	Not bool
}

func (*ColumnRef) exprNode()   {}
func (*Literal) exprNode()     {}
func (*BinaryExpr) exprNode()  {}
func (*NotExpr) exprNode()     {}
func (*NegExpr) exprNode()     {}
func (*FuncCall) exprNode()    {}
func (*InExpr) exprNode()      {}
func (*BetweenExpr) exprNode() {}
func (*LikeExpr) exprNode()    {}
func (*IsNullExpr) exprNode()  {}

// sqlWriter is the single writer every SQL() goes through. A rendering
// runs twice over the tree: once counting bytes, once writing into a
// builder grown to exactly that count, so SQL() costs one allocation —
// the text — whatever the size of the tree. The text is a cache key on
// every cached read: the result tier's, and the eval tier's (WriteSQL).
type sqlWriter struct {
	b        *strings.Builder
	n        int
	counting bool
}

// grow ends the counting pass: the builder is sized for what was counted
// and the next pass writes. Callers make both passes with static calls
// (no func value), which keeps the writer itself on the stack.
func (w *sqlWriter) grow() {
	w.counting = false
	w.b.Grow(w.n)
}

func (w *sqlWriter) str(s string) {
	if w.counting {
		w.n += len(s)
		return
	}
	w.b.WriteString(s)
}

// quoted writes s single-quoted, an embedded quote doubled.
func (w *sqlWriter) quoted(s string) {
	w.str("'")
	for {
		i := strings.IndexByte(s, '\'')
		if i < 0 {
			break
		}
		w.str(s[:i])
		w.str("''")
		s = s[i+1:]
	}
	w.str(s)
	w.str("'")
}

// literal writes a constant the way value.Value.String spells it, numbers
// formatted into a stack buffer, except where that spelling would not read
// back as the same text: the lexer reads no exponent, so a float that
// value.Value.String writes with one (1e-05, 1e+06) is written out in
// full, with a point so that it stays a float, and a negative zero is
// -0.0, since -0 reads back as the integer 0.
func (w *sqlWriter) literal(v value.Value) {
	var buf [32]byte
	switch v.Kind() {
	case value.KindString:
		w.quoted(v.AsString())
	case value.KindInt:
		w.str(string(strconv.AppendInt(buf[:0], v.AsInt(), 10)))
	case value.KindFloat:
		f := v.AsFloat()
		b := strconv.AppendFloat(buf[:0], f, 'g', -1, 64)
		switch {
		case bytes.IndexByte(b, 'e') >= 0:
			b = strconv.AppendFloat(buf[:0], f, 'f', -1, 64)
			if bytes.IndexByte(b, '.') < 0 {
				b = append(b, ".0"...)
			}
		case math.Float64bits(f) == 1<<63: // -0
			b = append(buf[:0], "-0.0"...)
		}
		w.str(string(b))
	default:
		w.str(v.String())
	}
}

// list writes es separated by ", ".
func (w *sqlWriter) list(es []Expr) {
	for i, e := range es {
		if i > 0 {
			w.str(", ")
		}
		w.expr(e)
	}
}

// operand writes a binary expression's child, parenthesized when it is a
// binary expression of lower precedence (or of equal precedence on the
// right) so the output re-parses to the same tree. Non-binary children
// bind tighter than every binary operator, except constructs like
// IN/BETWEEN under arithmetic, which cannot appear there type-wise; they
// stay bare.
func (w *sqlWriter) operand(parent *BinaryExpr, child Expr, right bool) {
	if cb, ok := child.(*BinaryExpr); ok {
		cp, p := cb.Op.precedence(), parent.Op.precedence()
		if cp < p || (cp == p && right) {
			w.str("(")
			w.expr(child)
			w.str(")")
			return
		}
	}
	w.expr(child)
}

func (w *sqlWriter) not(not bool) {
	if not {
		w.str(" NOT")
	}
}

// expr writes one expression as parseable SQL text.
func (w *sqlWriter) expr(e Expr) {
	switch e := e.(type) {
	case *ColumnRef:
		if e.Qualifier != "" {
			w.str(e.Qualifier)
			w.str(".")
		}
		w.str(e.Name)
	case *Literal:
		w.literal(e.Val)
	case *BinaryExpr:
		w.operand(e, e.L, false)
		w.str(" ")
		w.str(e.Op.String())
		w.str(" ")
		w.operand(e, e.R, true)
	case *NotExpr:
		w.str("NOT (")
		w.expr(e.X)
		w.str(")")
	case *NegExpr:
		if _, ok := e.X.(*BinaryExpr); ok {
			w.str("-(")
			w.expr(e.X)
			w.str(")")
		} else {
			w.str("-")
			w.expr(e.X)
		}
	case *FuncCall:
		w.str(e.Name)
		if e.Star {
			w.str("(*)")
		} else {
			w.str("(")
			w.list(e.Args)
			w.str(")")
		}
	case *InExpr:
		w.expr(e.X)
		w.not(e.Not)
		w.str(" IN (")
		w.list(e.List)
		w.str(")")
	case *BetweenExpr:
		w.expr(e.X)
		w.not(e.Not)
		w.str(" BETWEEN ")
		w.expr(e.Lo)
		w.str(" AND ")
		w.expr(e.Hi)
	case *LikeExpr:
		w.expr(e.X)
		w.not(e.Not)
		w.str(" LIKE ")
		w.quoted(e.Pattern)
	case *IsNullExpr:
		w.expr(e.X)
		if e.Not {
			w.str(" IS NOT NULL")
		} else {
			w.str(" IS NULL")
		}
	default:
		w.str("?") // unreachable: the switch covers every Expr node
	}
}

// exprSQL is every node's SQL().
func exprSQL(e Expr) string {
	var b strings.Builder
	w := sqlWriter{b: &b, counting: true}
	w.expr(e)
	w.grow()
	w.expr(e)
	return w.b.String()
}

// SQL renders the column reference. An unqualified one is its own text.
func (e *ColumnRef) SQL() string {
	if e.Qualifier == "" {
		return e.Name
	}
	return exprSQL(e)
}

// SQL renders the literal; strings are single-quoted, an embedded quote
// doubled.
func (e *Literal) SQL() string { return exprSQL(e) }

// SQL renders the binary expression, parenthesizing children of lower
// precedence so the output re-parses to the same tree.
func (e *BinaryExpr) SQL() string { return exprSQL(e) }

// SQL renders NOT x.
func (e *NotExpr) SQL() string { return exprSQL(e) }

// SQL renders -x.
func (e *NegExpr) SQL() string { return exprSQL(e) }

// SQL renders the call.
func (e *FuncCall) SQL() string { return exprSQL(e) }

// SQL renders the IN list.
func (e *InExpr) SQL() string { return exprSQL(e) }

// SQL renders the BETWEEN range.
func (e *BetweenExpr) SQL() string { return exprSQL(e) }

// SQL renders the LIKE predicate.
func (e *LikeExpr) SQL() string { return exprSQL(e) }

// SQL renders the IS NULL test.
func (e *IsNullExpr) SQL() string { return exprSQL(e) }

// SQL renders the whole statement as parseable SQL.
func (s *SelectStmt) SQL() string {
	var b strings.Builder
	s.WriteSQL(&b, "", 0)
	return b.String()
}

// WriteSQL writes prefix and then SQL()'s text to b, growing b once for
// both and for extra more bytes, which the caller writes after them: a
// key built on the statement's text costs one allocation.
func (s *SelectStmt) WriteSQL(b *strings.Builder, prefix string, extra int) {
	w := sqlWriter{b: b, n: len(prefix) + extra, counting: true}
	s.write(&w)
	w.grow()
	b.WriteString(prefix)
	s.write(&w)
}

func (s *SelectStmt) write(w *sqlWriter) {
	w.str("SELECT ")
	if s.Distinct {
		w.str("DISTINCT ")
	}
	for i, it := range s.Select {
		if i > 0 {
			w.str(", ")
		}
		if it.Star {
			w.str("*")
			continue
		}
		w.expr(it.Expr)
		if it.Alias != "" {
			w.str(" AS ")
			w.str(it.Alias)
		}
	}
	w.str(" FROM ")
	for i, tr := range s.From {
		if i > 0 {
			w.str(", ")
		}
		w.str(tr.Table)
		if tr.Alias != "" && tr.Alias != tr.Table {
			w.str(" ")
			w.str(tr.Alias)
		}
	}
	if s.Where != nil {
		w.str(" WHERE ")
		w.expr(s.Where)
	}
	if len(s.GroupBy) > 0 {
		w.str(" GROUP BY ")
		w.list(s.GroupBy)
	}
	if s.Having != nil {
		w.str(" HAVING ")
		w.expr(s.Having)
	}
	if len(s.OrderBy) > 0 {
		w.str(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				w.str(", ")
			}
			w.expr(o.Expr)
			if o.Desc {
				w.str(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		w.str(" LIMIT ")
		w.literal(value.Int(int64(s.Limit)))
	}
}

// WalkExpr calls fn on e and every sub-expression, pre-order. fn returning
// false prunes the subtree.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch e := e.(type) {
	case *BinaryExpr:
		WalkExpr(e.L, fn)
		WalkExpr(e.R, fn)
	case *NotExpr:
		WalkExpr(e.X, fn)
	case *NegExpr:
		WalkExpr(e.X, fn)
	case *FuncCall:
		for _, a := range e.Args {
			WalkExpr(a, fn)
		}
	case *InExpr:
		WalkExpr(e.X, fn)
		for _, it := range e.List {
			WalkExpr(it, fn)
		}
	case *BetweenExpr:
		WalkExpr(e.X, fn)
		WalkExpr(e.Lo, fn)
		WalkExpr(e.Hi, fn)
	case *LikeExpr:
		WalkExpr(e.X, fn)
	case *IsNullExpr:
		WalkExpr(e.X, fn)
	}
}

// Conjuncts flattens a tree of top-level ANDs into its conjuncts, in one
// slice of exactly their number.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	return appendConjuncts(make([]Expr, 0, countConjuncts(e)), e)
}

func countConjuncts(e Expr) int {
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return countConjuncts(b.L) + countConjuncts(b.R)
	}
	return 1
}

func appendConjuncts(out []Expr, e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return appendConjuncts(appendConjuncts(out, b.L), b.R)
	}
	return append(out, e)
}

// HasAggregate reports whether the expression contains an aggregate call
// (SUM, COUNT, AVG, MIN, MAX).
func HasAggregate(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		if f, ok := x.(*FuncCall); ok && IsAggregateName(f.Name) {
			found = true
			return false
		}
		return true
	})
	return found
}

// aggregateNames are the aggregate functions, upper-cased.
var aggregateNames = [...]string{"SUM", "COUNT", "AVG", "MIN", "MAX"}

// IsAggregateName reports whether name (upper-cased) is an aggregate.
func IsAggregateName(name string) bool {
	return slices.Contains(aggregateNames[:], name)
}
