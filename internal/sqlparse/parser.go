package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"conquer/internal/value"
)

// Parse parses one SELECT statement from src.
func Parse(src string) (*SelectStmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	p.size()
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("trailing input after statement")
	}
	return stmt, nil
}

// MustParse parses or panics; for static query fixtures.
func MustParse(src string) *SelectStmt {
	s, err := Parse(src)
	if err != nil {
		panic(err) //lint:allow nopanic -- fixture constructor, documented to panic
	}
	return s
}

type parser struct {
	toks  []token
	i     int
	src   string
	nodes nodeBlocks
	// The lengths of the select list, FROM, GROUP BY and ORDER BY.
	selects, froms, groups, orders int
}

// size sizes, in one pass over the tokens, the node blocks and the clause
// lists of the statement, so that neither is grown while it is parsed.
// Every ColumnRef uses up an identifier token outside FROM that no AS
// precedes and no "." or "(" follows, every Literal a number, a string,
// NULL, TRUE or FALSE, and every BinaryExpr an operator or AND/OR, so the
// blocks are upper bounds; a list is one longer than its clause's commas
// outside parentheses.
func (p *parser) size() {
	var n nodeCounts
	depth := 0
	var list *int // the clause list a top-level comma lengthens
	for i, t := range p.toks {
		switch t.kind {
		case tokIdent:
			// The token after an identifier is at worst tokEOF.
			nxt := p.toks[i+1]
			switch {
			case list == &p.froms, i > 0 && p.toks[i-1].kind == tokKeyword && p.toks[i-1].text == "AS":
			case nxt.kind != tokSymbol || (nxt.text != "." && nxt.text != "("):
				n.cols++
			}
		case tokNumber, tokString:
			n.lits++
		case tokKeyword:
			switch t.text {
			case "NULL", "TRUE", "FALSE":
				n.lits++
			case "AND", "OR":
				n.bins++
			case "SELECT":
				list = &p.selects
			case "FROM":
				list = &p.froms
			case "GROUP":
				list = &p.groups
			case "ORDER":
				list = &p.orders
			case "WHERE", "HAVING", "LIMIT":
				list = nil
			}
			if list != nil && *list == 0 {
				*list = 1
			}
		case tokSymbol:
			switch t.text {
			case "(":
				depth++
			case ")":
				depth--
			case ",":
				if depth == 0 && list != nil {
					*list++
				}
			case "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/":
				n.bins++
			}
		}
	}
	p.nodes = n.blocks()
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) advance() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	t := p.cur()
	ctx := t.text
	if t.kind == tokEOF {
		ctx = "end of input"
	}
	return fmt.Errorf("sqlparse: %s (at %q, offset %d)", fmt.Sprintf(format, args...), ctx, t.pos)
}

// acceptKeyword consumes kw if it is next.
func (p *parser) acceptKeyword(kw string) bool {
	if t := p.cur(); t.kind == tokKeyword && t.text == kw {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s", kw)
	}
	return nil
}

// acceptSymbol consumes sym if it is next.
func (p *parser) acceptSymbol(sym string) bool {
	if t := p.cur(); t.kind == tokSymbol && t.text == sym {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errorf("expected %q", sym)
	}
	return nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1, Select: make([]SelectItem, 0, p.selects)}
	stmt.Distinct = p.acceptKeyword("DISTINCT")

	// Select list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Select = append(stmt.Select, item)
		if !p.acceptSymbol(",") {
			break
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	stmt.From = make([]TableRef, 0, p.froms)
	for {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		stmt.From = append(stmt.From, tr)
		if !p.acceptSymbol(",") {
			break
		}
	}

	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}

	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		stmt.GroupBy = make([]Expr, 0, p.groups)
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}

	if p.acceptKeyword("HAVING") {
		if len(stmt.GroupBy) == 0 {
			return nil, p.errorf("HAVING requires GROUP BY")
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = e
	}

	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		stmt.OrderBy = make([]OrderItem, 0, p.orders)
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}

	if p.acceptKeyword("LIMIT") {
		t := p.cur()
		if t.kind != tokNumber {
			return nil, p.errorf("LIMIT expects a number")
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errorf("invalid LIMIT %q", t.text)
		}
		p.advance()
		stmt.Limit = n
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		t := p.cur()
		if t.kind != tokIdent {
			return SelectItem{}, p.errorf("expected alias after AS")
		}
		p.advance()
		item.Alias = t.text
	} else if t := p.cur(); t.kind == tokIdent {
		// Bare alias: `expr alias`.
		p.advance()
		item.Alias = t.text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return TableRef{}, p.errorf("expected table name")
	}
	p.advance()
	tr := TableRef{Table: t.text, Alias: t.text}
	if a := p.cur(); a.kind == tokIdent {
		p.advance()
		tr.Alias = a.text
	} else if p.acceptKeyword("AS") {
		a := p.cur()
		if a.kind != tokIdent {
			return TableRef{}, p.errorf("expected alias after AS")
		}
		p.advance()
		tr.Alias = a.text
	}
	return tr, nil
}

// parseExpr parses a full boolean expression (lowest precedence: OR).
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = p.nodes.bin(OpOr, l, r)
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for {
		// AND is also the connective inside BETWEEN; parseComparison consumes
		// that one before returning, so any AND seen here is a conjunction.
		if !p.acceptKeyword("AND") {
			return l, nil
		}
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = p.nodes.bin(OpAnd, l, r)
	}
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// Optional postfix predicates.
	not := false
	if t := p.cur(); t.kind == tokKeyword && t.text == "NOT" {
		// Lookahead: NOT IN / NOT BETWEEN / NOT LIKE.
		if p.i+1 < len(p.toks) {
			nxt := p.toks[p.i+1]
			if nxt.kind == tokKeyword && (nxt.text == "IN" || nxt.text == "BETWEEN" || nxt.text == "LIKE") {
				p.advance()
				not = true
			}
		}
	}
	switch {
	case p.acceptKeyword("IN"):
		return p.parseInList(l, not)
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: l, Lo: lo, Hi: hi, Not: not}, nil
	case p.acceptKeyword("LIKE"):
		t := p.cur()
		if t.kind != tokString {
			return nil, p.errorf("LIKE expects a string pattern")
		}
		p.advance()
		return &LikeExpr{X: l, Pattern: t.text, Not: not}, nil
	case p.acceptKeyword("IS"):
		isNot := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{X: l, Not: isNot}, nil
	}
	if not {
		return nil, p.errorf("dangling NOT")
	}
	for _, sym := range []struct {
		text string
		op   BinOp
	}{{"=", OpEq}, {"<>", OpNe}, {"<=", OpLe}, {">=", OpGe}, {"<", OpLt}, {">", OpGt}} {
		if p.acceptSymbol(sym.text) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return p.nodes.bin(sym.op, l, r), nil
		}
	}
	return l, nil
}

func (p *parser) parseInList(l Expr, not bool) (Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	in := &InExpr{X: l, Not: not}
	for {
		e, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		in.List = append(in.List, e)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = p.nodes.bin(OpAdd, l, r)
		case p.acceptSymbol("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = p.nodes.bin(OpSub, l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = p.nodes.bin(OpMul, l, r)
		case p.acceptSymbol("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = p.nodes.bin(OpDiv, l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negation of numeric literals into the literal, which is
		// the parser's own.
		if lit, ok := x.(*Literal); ok && lit.Val.IsNumeric() {
			neg, err := value.Neg(lit.Val)
			if err == nil {
				lit.Val = neg
				return lit, nil
			}
		}
		return &NegExpr{X: x}, nil
	}
	if p.acceptSymbol("+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.advance()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return p.nodes.lit(value.Float(f)), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return p.nodes.lit(value.Int(n)), nil
	case tokString:
		p.advance()
		return p.nodes.lit(value.Str(t.text)), nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.advance()
			return p.nodes.lit(value.Null()), nil
		case "TRUE":
			p.advance()
			return p.nodes.lit(value.Bool(true)), nil
		case "FALSE":
			p.advance()
			return p.nodes.lit(value.Bool(false)), nil
		}
		return nil, p.errorf("unexpected keyword")
	case tokIdent:
		p.advance()
		name := t.text
		// Function call?
		if p.acceptSymbol("(") {
			return p.parseCallArgs(funcName(name))
		}
		// Qualified column?
		if p.acceptSymbol(".") {
			c := p.cur()
			if c.kind != tokIdent {
				return nil, p.errorf("expected column name after %q.", name)
			}
			p.advance()
			return p.nodes.col(name, c.text), nil
		}
		return p.nodes.col("", name), nil
	case tokSymbol:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("expected expression")
}

// funcName spells a function name the way FuncCall.Name holds it: an
// aggregate as its own constant, so that it allocates no name, anything
// else upper-cased.
func funcName(name string) string {
	for _, agg := range aggregateNames {
		if strings.EqualFold(agg, name) {
			return agg
		}
	}
	return strings.ToUpper(name)
}

func (p *parser) parseCallArgs(name string) (Expr, error) {
	call := &FuncCall{Name: name}
	if p.acceptSymbol("*") {
		call.Star = true
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return call, nil
	}
	if p.acceptSymbol(")") {
		return call, nil
	}
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, a)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return call, nil
}
