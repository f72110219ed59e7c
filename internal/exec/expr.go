package exec

import (
	"fmt"
	"unicode/utf8"

	"conquer/internal/sqlparse"
	"conquer/internal/value"
)

// Evaluator computes a scalar value from an input row.
type Evaluator func(row []value.Value) (value.Value, error)

// EvalError marks an error an expression raised on one row — a division
// by zero, a comparison of incomparable kinds — apart from the failures of
// storage, budgets and cancellation around it. Its message is the cause's.
type EvalError struct{ Err error }

func (e *EvalError) Error() string { return e.Err.Error() }
func (e *EvalError) Unwrap() error { return e.Err }

// operand is a compiled operand of an expression node. A literal is read
// in place (ev nil); a column is read through the reader its position
// shares with every other expression (col its position, ev
// columnReader(col)), and any other expression through its own Evaluator
// (col -1). So no column or literal costs a closure of its own, and eval
// inlines into the node that reads it: a literal costs no call, a column
// or composite operand the one call it cost as a closure of its own.
// Operators keep their key, group, argument and projection lists as
// operands, and read a column key, group or projection column in place.
type operand struct {
	ev  Evaluator
	col int
	lit value.Value
}

// eval reads the operand's value on row.
func (o *operand) eval(row []value.Value) (value.Value, error) {
	if o.ev == nil {
		return o.lit, nil
	}
	return o.ev(row)
}

// sharedReaders[i] reads column i of a row; built once, they serve every
// expression over rows of up to len(sharedReaders) columns.
var sharedReaders = func() []Evaluator {
	rs := make([]Evaluator, 256)
	for i := range rs {
		rs[i] = func(row []value.Value) (value.Value, error) { return row[i], nil }
	}
	return rs
}()

// columnReader returns an Evaluator reading column i of a row: a shared
// one, unless i is past them.
func columnReader(i int) Evaluator {
	if i < len(sharedReaders) {
		return sharedReaders[i]
	}
	return func(row []value.Value) (value.Value, error) { return row[i], nil }
}

// compiler compiles expressions against rs. The operands of their nodes
// are carved from one block, counted before it is allocated (see
// operandSlots), and each node's closure holds pointers into it: a node
// costs its closure, and reading an operand copies nothing.
type compiler struct {
	rs  RowSchema
	ops []operand // the unused tail of the block
}

// operandSlots is how many operands a compiler carves for e: every node
// of it but the root, which its caller holds.
func operandSlots(e sqlparse.Expr) int {
	n := -1
	sqlparse.WalkExpr(e, func(sqlparse.Expr) bool { n++; return true })
	return max(n, 0)
}

// fill compiles e into o.
func (c *compiler) fill(o *operand, e sqlparse.Expr) error {
	switch e := e.(type) {
	case *sqlparse.ColumnRef:
		idx, err := c.rs.Resolve(e.Qualifier, e.Name)
		if err != nil {
			return err
		}
		*o = operand{ev: columnReader(idx), col: idx}
	case *sqlparse.Literal:
		*o = operand{col: -1, lit: e.Val}
	default:
		ev, err := c.compile(e)
		if err != nil {
			return err
		}
		*o = operand{ev: ev, col: -1}
	}
	return nil
}

// fillAll compiles es into dst, which has their length.
func (c *compiler) fillAll(dst []operand, es []sqlparse.Expr) error {
	for i, e := range es {
		if err := c.fill(&dst[i], e); err != nil {
			return err
		}
	}
	return nil
}

// operand compiles e, an operand of the node being compiled, into the
// next slot of the block.
func (c *compiler) operand(e sqlparse.Expr) (*operand, error) {
	o := &c.ops[0]
	c.ops = c.ops[1:]
	return o, c.fill(o, e)
}

// Compile translates a scalar expression into an Evaluator bound to the
// given row schema. Aggregate calls are rejected — the aggregation operator
// handles them separately. Columns and literals compile to no closure of
// their own (see operand), so a node costs its closure, and the tree one
// block of operands besides.
func Compile(e sqlparse.Expr, rs RowSchema) (Evaluator, error) {
	c := compiler{rs: rs, ops: make([]operand, operandSlots(e))}
	return c.compile(e)
}

func (c *compiler) compile(e sqlparse.Expr) (Evaluator, error) {
	switch e := e.(type) {
	case *sqlparse.ColumnRef:
		idx, err := c.rs.Resolve(e.Qualifier, e.Name)
		if err != nil {
			return nil, err
		}
		return columnReader(idx), nil

	case *sqlparse.Literal:
		v := e.Val
		return func([]value.Value) (value.Value, error) { return v, nil }, nil

	case *sqlparse.BinaryExpr:
		return c.binary(e)

	case *sqlparse.NotExpr:
		x, err := c.operand(e.X)
		if err != nil {
			return nil, err
		}
		return func(row []value.Value) (value.Value, error) {
			v, err := x.eval(row)
			if err != nil {
				return value.Null(), err
			}
			if v.IsNull() {
				return value.Null(), nil
			}
			if v.Kind() != value.KindBool {
				return value.Null(), fmt.Errorf("exec: NOT applied to %v", v.Kind())
			}
			return value.Bool(!v.AsBool()), nil
		}, nil

	case *sqlparse.NegExpr:
		x, err := c.operand(e.X)
		if err != nil {
			return nil, err
		}
		return func(row []value.Value) (value.Value, error) {
			v, err := x.eval(row)
			if err != nil {
				return value.Null(), err
			}
			return value.Neg(v)
		}, nil

	case *sqlparse.FuncCall:
		if sqlparse.IsAggregateName(e.Name) {
			return nil, fmt.Errorf("exec: aggregate %s outside an aggregation context", e.Name)
		}
		return nil, fmt.Errorf("exec: unknown function %s", e.Name)

	case *sqlparse.InExpr:
		return c.in(e)

	case *sqlparse.BetweenExpr:
		return c.between(e)

	case *sqlparse.LikeExpr:
		return c.like(e)

	case *sqlparse.IsNullExpr:
		x, err := c.operand(e.X)
		if err != nil {
			return nil, err
		}
		not := e.Not
		return func(row []value.Value) (value.Value, error) {
			v, err := x.eval(row)
			if err != nil {
				return value.Null(), err
			}
			return value.Bool(v.IsNull() != not), nil
		}, nil

	default:
		return nil, fmt.Errorf("exec: cannot compile %T", e)
	}
}

func (c *compiler) binary(e *sqlparse.BinaryExpr) (Evaluator, error) {
	l, err := c.operand(e.L)
	if err != nil {
		return nil, err
	}
	r, err := c.operand(e.R)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case sqlparse.OpAnd:
		// Three-valued AND, short-circuiting: false AND x = false even when
		// x errors or is NULL.
		return func(row []value.Value) (value.Value, error) {
			lv, err := l.eval(row)
			if err != nil {
				return value.Null(), err
			}
			if isFalse(lv) {
				return value.Bool(false), nil
			}
			rv, err := r.eval(row)
			if err != nil {
				return value.Null(), err
			}
			return logicalAnd(lv, rv)
		}, nil
	case sqlparse.OpOr:
		// Three-valued OR, short-circuiting on true.
		return func(row []value.Value) (value.Value, error) {
			lv, err := l.eval(row)
			if err != nil {
				return value.Null(), err
			}
			if isTrue(lv) {
				return value.Bool(true), nil
			}
			rv, err := r.eval(row)
			if err != nil {
				return value.Null(), err
			}
			return logicalOr(lv, rv)
		}, nil
	case sqlparse.OpAdd, sqlparse.OpSub, sqlparse.OpMul, sqlparse.OpDiv:
		var f func(value.Value, value.Value) (value.Value, error)
		switch e.Op {
		case sqlparse.OpAdd:
			f = value.Add
		case sqlparse.OpSub:
			f = value.Sub
		case sqlparse.OpMul:
			f = value.Mul
		default:
			f = value.Div
		}
		return func(row []value.Value) (value.Value, error) {
			lv, err := l.eval(row)
			if err != nil {
				return value.Null(), err
			}
			rv, err := r.eval(row)
			if err != nil {
				return value.Null(), err
			}
			return f(lv, rv)
		}, nil
	default: // comparisons
		op := e.Op
		return func(row []value.Value) (value.Value, error) {
			lv, err := l.eval(row)
			if err != nil {
				return value.Null(), err
			}
			rv, err := r.eval(row)
			if err != nil {
				return value.Null(), err
			}
			return compare(op, lv, rv)
		}, nil
	}
}

// compare implements SQL three-valued comparison: NULL operands yield NULL.
func compare(op sqlparse.BinOp, a, b value.Value) (value.Value, error) {
	if a.IsNull() || b.IsNull() {
		return value.Null(), nil
	}
	if !comparableKinds(a, b) {
		return value.Null(), fmt.Errorf("exec: cannot compare %v with %v", a.Kind(), b.Kind())
	}
	c := value.Compare(a, b)
	switch op {
	case sqlparse.OpEq:
		return value.Bool(c == 0), nil
	case sqlparse.OpNe:
		return value.Bool(c != 0), nil
	case sqlparse.OpLt:
		return value.Bool(c < 0), nil
	case sqlparse.OpLe:
		return value.Bool(c <= 0), nil
	case sqlparse.OpGt:
		return value.Bool(c > 0), nil
	case sqlparse.OpGe:
		return value.Bool(c >= 0), nil
	}
	return value.Null(), fmt.Errorf("exec: bad comparison op %v", op)
}

func comparableKinds(a, b value.Value) bool {
	if a.IsNumeric() && b.IsNumeric() {
		return true
	}
	return a.Kind() == b.Kind()
}

// logicalAnd finishes three-valued AND once lv, the left operand, is
// not false: false if rv is, NULL if either is NULL, and otherwise true,
// both being booleans.
func logicalAnd(lv, rv value.Value) (value.Value, error) {
	if isFalse(rv) {
		return value.Bool(false), nil
	}
	if lv.IsNull() || rv.IsNull() {
		return value.Null(), nil
	}
	if err := wantBool(lv, rv); err != nil {
		return value.Null(), err
	}
	return value.Bool(true), nil
}

// logicalOr finishes three-valued OR once lv is not true.
func logicalOr(lv, rv value.Value) (value.Value, error) {
	if isTrue(rv) {
		return value.Bool(true), nil
	}
	if lv.IsNull() || rv.IsNull() {
		return value.Null(), nil
	}
	if err := wantBool(lv, rv); err != nil {
		return value.Null(), err
	}
	return value.Bool(false), nil
}

func wantBool(vs ...value.Value) error {
	for _, v := range vs {
		if !v.IsNull() && v.Kind() != value.KindBool {
			return fmt.Errorf("exec: logical operator applied to %v", v.Kind())
		}
	}
	return nil
}

func isTrue(v value.Value) bool  { return v.Kind() == value.KindBool && v.AsBool() }
func isFalse(v value.Value) bool { return v.Kind() == value.KindBool && !v.AsBool() }

func (c *compiler) in(e *sqlparse.InExpr) (Evaluator, error) {
	x, err := c.operand(e.X)
	if err != nil {
		return nil, err
	}
	// The list takes consecutive slots, each item's own operands after them.
	n := len(e.List)
	items := c.ops[:n:n]
	c.ops = c.ops[n:]
	if err := c.fillAll(items, e.List); err != nil {
		return nil, err
	}
	not := e.Not
	return func(row []value.Value) (value.Value, error) {
		xv, err := x.eval(row)
		if err != nil {
			return value.Null(), err
		}
		if xv.IsNull() {
			return value.Null(), nil
		}
		sawNull := false
		for i := range items {
			iv, err := items[i].eval(row)
			if err != nil {
				return value.Null(), err
			}
			if iv.IsNull() {
				sawNull = true
				continue
			}
			if value.Equal(xv, iv) {
				return value.Bool(!not), nil
			}
		}
		if sawNull {
			return value.Null(), nil
		}
		return value.Bool(not), nil
	}, nil
}

func (c *compiler) between(e *sqlparse.BetweenExpr) (Evaluator, error) {
	x, err := c.operand(e.X)
	if err != nil {
		return nil, err
	}
	lo, err := c.operand(e.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := c.operand(e.Hi)
	if err != nil {
		return nil, err
	}
	not := e.Not
	return func(row []value.Value) (value.Value, error) {
		xv, err := x.eval(row)
		if err != nil {
			return value.Null(), err
		}
		lov, err := lo.eval(row)
		if err != nil {
			return value.Null(), err
		}
		hiv, err := hi.eval(row)
		if err != nil {
			return value.Null(), err
		}
		if xv.IsNull() || lov.IsNull() || hiv.IsNull() {
			return value.Null(), nil
		}
		if !comparableKinds(xv, lov) || !comparableKinds(xv, hiv) {
			return value.Null(), fmt.Errorf("exec: BETWEEN over incomparable kinds")
		}
		in := value.Compare(xv, lov) >= 0 && value.Compare(xv, hiv) <= 0
		return value.Bool(in != not), nil
	}, nil
}

func (c *compiler) like(e *sqlparse.LikeExpr) (Evaluator, error) {
	x, err := c.operand(e.X)
	if err != nil {
		return nil, err
	}
	pattern, not := e.Pattern, e.Not
	return func(row []value.Value) (value.Value, error) {
		xv, err := x.eval(row)
		if err != nil {
			return value.Null(), err
		}
		if xv.IsNull() {
			return value.Null(), nil
		}
		if xv.Kind() != value.KindString {
			return value.Null(), fmt.Errorf("exec: LIKE applied to %v", xv.Kind())
		}
		return value.Bool(likeMatch(xv.AsString(), pattern) != not), nil
	}, nil
}

// likeMatch reports whether s matches the SQL LIKE pattern as a whole: %
// matches any run of characters, _ any one character, and every other
// character itself. Both strings are read as UTF-8, character by
// character; a byte that starts no valid encoding is one character,
// U+FFFD, so _ matches it and it matches an invalid byte or U+FFFD on the
// other side (the way Go's regexp package reads invalid UTF-8). A mismatch
// after a % backtracks to that %, which then takes one more character: no
// other % before it needs revisiting, so the match never compiles
// anything and runs in O(len(s)·len(pattern)) at worst.
func likeMatch(s, pattern string) bool {
	si, pi := 0, 0
	star, resume := -1, 0 // pattern position after the last %, and where its run ends in s
	for si < len(s) {
		if pi < len(pattern) {
			switch pattern[pi] {
			case '%':
				pi++
				star, resume = pi, si
				continue
			case '_':
				_, w := utf8.DecodeRuneInString(s[si:])
				si, pi = si+w, pi+1
				continue
			default:
				pr, pw := utf8.DecodeRuneInString(pattern[pi:])
				sr, sw := utf8.DecodeRuneInString(s[si:])
				if pr == sr {
					si, pi = si+sw, pi+pw
					continue
				}
			}
		}
		if star < 0 {
			return false
		}
		_, w := utf8.DecodeRuneInString(s[resume:])
		resume += w
		si, pi = resume, star
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// CompilePredicate compiles e and wraps it as a boolean test: a row passes
// only when the expression evaluates to TRUE (NULL/unknown rejects, as in
// SQL WHERE).
func CompilePredicate(e sqlparse.Expr, rs RowSchema) (func(row []value.Value) (bool, error), error) {
	ev, err := Compile(e, rs)
	if err != nil {
		return nil, err
	}
	return func(row []value.Value) (bool, error) { return truth(ev(row)) }, nil
}

// truth reads a predicate's value as a WHERE test: TRUE passes, NULL
// rejects, and anything but a boolean is an error.
func truth(v value.Value, err error) (bool, error) {
	if err != nil {
		return false, &EvalError{err}
	}
	if v.IsNull() {
		return false, nil
	}
	if v.Kind() != value.KindBool {
		return false, &EvalError{fmt.Errorf("exec: predicate evaluated to %v", v.Kind())}
	}
	return v.AsBool(), nil
}
