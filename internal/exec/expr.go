package exec

import (
	"fmt"
	"regexp"
	"strings"

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

// Compile translates a scalar expression into an Evaluator bound to the
// given row schema. Aggregate calls are rejected — the aggregation operator
// handles them separately.
func Compile(e sqlparse.Expr, rs RowSchema) (Evaluator, error) {
	switch e := e.(type) {
	case *sqlparse.ColumnRef:
		idx, err := rs.Resolve(e.Qualifier, e.Name)
		if err != nil {
			return nil, err
		}
		return func(row []value.Value) (value.Value, error) {
			return row[idx], nil
		}, nil

	case *sqlparse.Literal:
		v := e.Val
		return func([]value.Value) (value.Value, error) { return v, nil }, nil

	case *sqlparse.BinaryExpr:
		return compileBinary(e, rs)

	case *sqlparse.NotExpr:
		x, err := Compile(e.X, rs)
		if err != nil {
			return nil, err
		}
		return func(row []value.Value) (value.Value, error) {
			v, err := x(row)
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
		x, err := Compile(e.X, rs)
		if err != nil {
			return nil, err
		}
		return func(row []value.Value) (value.Value, error) {
			v, err := x(row)
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
		return compileIn(e, rs)

	case *sqlparse.BetweenExpr:
		return compileBetween(e, rs)

	case *sqlparse.LikeExpr:
		return compileLike(e, rs)

	case *sqlparse.IsNullExpr:
		x, err := Compile(e.X, rs)
		if err != nil {
			return nil, err
		}
		not := e.Not
		return func(row []value.Value) (value.Value, error) {
			v, err := x(row)
			if err != nil {
				return value.Null(), err
			}
			return value.Bool(v.IsNull() != not), nil
		}, nil

	default:
		return nil, fmt.Errorf("exec: cannot compile %T", e)
	}
}

func compileBinary(e *sqlparse.BinaryExpr, rs RowSchema) (Evaluator, error) {
	l, err := Compile(e.L, rs)
	if err != nil {
		return nil, err
	}
	r, err := Compile(e.R, rs)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case sqlparse.OpAnd:
		return func(row []value.Value) (value.Value, error) {
			return logicalAnd(l, r, row)
		}, nil
	case sqlparse.OpOr:
		return func(row []value.Value) (value.Value, error) {
			return logicalOr(l, r, row)
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
			lv, err := l(row)
			if err != nil {
				return value.Null(), err
			}
			rv, err := r(row)
			if err != nil {
				return value.Null(), err
			}
			return f(lv, rv)
		}, nil
	default: // comparisons
		op := e.Op
		return func(row []value.Value) (value.Value, error) {
			lv, err := l(row)
			if err != nil {
				return value.Null(), err
			}
			rv, err := r(row)
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

// logicalAnd implements three-valued AND with short-circuiting:
// false AND x = false even when x errors or is NULL.
func logicalAnd(l, r Evaluator, row []value.Value) (value.Value, error) {
	lv, err := l(row)
	if err != nil {
		return value.Null(), err
	}
	if isFalse(lv) {
		return value.Bool(false), nil
	}
	rv, err := r(row)
	if err != nil {
		return value.Null(), err
	}
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

// logicalOr is three-valued OR.
func logicalOr(l, r Evaluator, row []value.Value) (value.Value, error) {
	lv, err := l(row)
	if err != nil {
		return value.Null(), err
	}
	if isTrue(lv) {
		return value.Bool(true), nil
	}
	rv, err := r(row)
	if err != nil {
		return value.Null(), err
	}
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

func compileIn(e *sqlparse.InExpr, rs RowSchema) (Evaluator, error) {
	x, err := Compile(e.X, rs)
	if err != nil {
		return nil, err
	}
	items := make([]Evaluator, len(e.List))
	for i, it := range e.List {
		ev, err := Compile(it, rs)
		if err != nil {
			return nil, err
		}
		items[i] = ev
	}
	not := e.Not
	return func(row []value.Value) (value.Value, error) {
		xv, err := x(row)
		if err != nil {
			return value.Null(), err
		}
		if xv.IsNull() {
			return value.Null(), nil
		}
		sawNull := false
		for _, it := range items {
			iv, err := it(row)
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

func compileBetween(e *sqlparse.BetweenExpr, rs RowSchema) (Evaluator, error) {
	x, err := Compile(e.X, rs)
	if err != nil {
		return nil, err
	}
	lo, err := Compile(e.Lo, rs)
	if err != nil {
		return nil, err
	}
	hi, err := Compile(e.Hi, rs)
	if err != nil {
		return nil, err
	}
	not := e.Not
	return func(row []value.Value) (value.Value, error) {
		xv, err := x(row)
		if err != nil {
			return value.Null(), err
		}
		lov, err := lo(row)
		if err != nil {
			return value.Null(), err
		}
		hiv, err := hi(row)
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

func compileLike(e *sqlparse.LikeExpr, rs RowSchema) (Evaluator, error) {
	x, err := Compile(e.X, rs)
	if err != nil {
		return nil, err
	}
	re, err := likeToRegexp(e.Pattern)
	if err != nil {
		return nil, err
	}
	not := e.Not
	return func(row []value.Value) (value.Value, error) {
		xv, err := x(row)
		if err != nil {
			return value.Null(), err
		}
		if xv.IsNull() {
			return value.Null(), nil
		}
		if xv.Kind() != value.KindString {
			return value.Null(), fmt.Errorf("exec: LIKE applied to %v", xv.Kind())
		}
		return value.Bool(re.MatchString(xv.AsString()) != not), nil
	}, nil
}

// likeToRegexp compiles a SQL LIKE pattern (%, _) into an anchored regexp.
func likeToRegexp(pattern string) (*regexp.Regexp, error) {
	var b strings.Builder
	b.WriteString("(?s)^")
	for _, r := range pattern {
		switch r {
		case '%':
			b.WriteString(".*")
		case '_':
			b.WriteString(".")
		default:
			b.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	b.WriteString("$")
	return regexp.Compile(b.String())
}

// CompilePredicate compiles e and wraps it as a boolean test: a row passes
// only when the expression evaluates to TRUE (NULL/unknown rejects, as in
// SQL WHERE).
func CompilePredicate(e sqlparse.Expr, rs RowSchema) (func(row []value.Value) (bool, error), error) {
	ev, err := Compile(e, rs)
	if err != nil {
		return nil, err
	}
	return func(row []value.Value) (bool, error) {
		v, err := ev(row)
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
	}, nil
}
