package sqlparse

import (
	"strings"
	"testing"
	"testing/quick"

	"conquer/internal/value"
)

func TestParseMinimal(t *testing.T) {
	s := MustParse("select id from customer")
	if len(s.Select) != 1 || len(s.From) != 1 {
		t.Fatalf("shape: %+v", s)
	}
	col, ok := s.Select[0].Expr.(*ColumnRef)
	if !ok || col.Name != "id" || col.Qualifier != "" {
		t.Errorf("select item: %#v", s.Select[0].Expr)
	}
	if s.From[0].Table != "customer" || s.From[0].Alias != "customer" {
		t.Errorf("from: %+v", s.From[0])
	}
	if s.Where != nil || s.Limit != -1 || s.Distinct {
		t.Error("unexpected optional clauses")
	}
}

func TestParseStar(t *testing.T) {
	s := MustParse("SELECT * FROM t")
	if !s.Select[0].Star {
		t.Error("star not parsed")
	}
}

func TestParseAliases(t *testing.T) {
	s := MustParse("select c.id as cid, c.balance bal from customer c")
	if s.Select[0].Alias != "cid" || s.Select[1].Alias != "bal" {
		t.Errorf("aliases: %+v", s.Select)
	}
	if s.From[0].Alias != "c" {
		t.Errorf("table alias: %+v", s.From[0])
	}
	cr := s.Select[0].Expr.(*ColumnRef)
	if cr.Qualifier != "c" || cr.Name != "id" {
		t.Errorf("qualified ref: %+v", cr)
	}
}

func TestParseWherePrecedence(t *testing.T) {
	s := MustParse("select a from t where a = 1 or b = 2 and c = 3")
	// AND binds tighter: a=1 OR (b=2 AND c=3).
	or, ok := s.Where.(*BinaryExpr)
	if !ok || or.Op != OpOr {
		t.Fatalf("root should be OR: %#v", s.Where)
	}
	and, ok := or.R.(*BinaryExpr)
	if !ok || and.Op != OpAnd {
		t.Fatalf("right child should be AND: %#v", or.R)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	s := MustParse("select a + b * c - d from t")
	// (a + (b*c)) - d
	sub := s.Select[0].Expr.(*BinaryExpr)
	if sub.Op != OpSub {
		t.Fatalf("root should be -: %v", sub.Op)
	}
	add := sub.L.(*BinaryExpr)
	if add.Op != OpAdd {
		t.Fatalf("left should be +: %v", add.Op)
	}
	mul := add.R.(*BinaryExpr)
	if mul.Op != OpMul {
		t.Fatalf("inner should be *: %v", mul.Op)
	}
}

func TestParseParens(t *testing.T) {
	s := MustParse("select (a + b) * c from t")
	mul := s.Select[0].Expr.(*BinaryExpr)
	if mul.Op != OpMul {
		t.Fatal("root should be *")
	}
	if add, ok := mul.L.(*BinaryExpr); !ok || add.Op != OpAdd {
		t.Fatal("parenthesized + should be left child")
	}
}

func TestParseComparisons(t *testing.T) {
	for _, c := range []struct {
		src string
		op  BinOp
	}{
		{"a = 1", OpEq}, {"a <> 1", OpNe}, {"a != 1", OpNe},
		{"a < 1", OpLt}, {"a <= 1", OpLe}, {"a > 1", OpGt}, {"a >= 1", OpGe},
	} {
		s := MustParse("select a from t where " + c.src)
		be := s.Where.(*BinaryExpr)
		if be.Op != c.op {
			t.Errorf("%s parsed as %v", c.src, be.Op)
		}
	}
}

func TestParseLiterals(t *testing.T) {
	s := MustParse("select 1, 2.5, 'it''s', null, true, false, -3 from t")
	vals := []value.Value{
		value.Int(1), value.Float(2.5), value.Str("it's"),
		value.Null(), value.Bool(true), value.Bool(false), value.Int(-3),
	}
	for i, want := range vals {
		lit, ok := s.Select[i].Expr.(*Literal)
		if !ok {
			t.Fatalf("item %d not literal: %#v", i, s.Select[i].Expr)
		}
		if !value.Identical(lit.Val, want) && !(lit.Val.IsNull() && want.IsNull()) {
			t.Errorf("item %d = %v, want %v", i, lit.Val, want)
		}
	}
}

func TestParseInBetweenLike(t *testing.T) {
	s := MustParse("select a from t where a in ('x', 'y') and b between 1 and 5 and c like 'PROMO%' and d not in (3) and e not between 1 and 2 and f not like '%z' and g is null and h is not null")
	conj := Conjuncts(s.Where)
	if len(conj) != 8 {
		t.Fatalf("conjuncts: %d", len(conj))
	}
	in := conj[0].(*InExpr)
	if in.Not || len(in.List) != 2 {
		t.Errorf("IN: %+v", in)
	}
	btw := conj[1].(*BetweenExpr)
	if btw.Not {
		t.Error("BETWEEN should not be negated")
	}
	like := conj[2].(*LikeExpr)
	if like.Pattern != "PROMO%" || like.Not {
		t.Errorf("LIKE: %+v", like)
	}
	if !conj[3].(*InExpr).Not {
		t.Error("NOT IN")
	}
	if !conj[4].(*BetweenExpr).Not {
		t.Error("NOT BETWEEN")
	}
	if !conj[5].(*LikeExpr).Not {
		t.Error("NOT LIKE")
	}
	if conj[6].(*IsNullExpr).Not {
		t.Error("IS NULL")
	}
	if !conj[7].(*IsNullExpr).Not {
		t.Error("IS NOT NULL")
	}
}

func TestParseNot(t *testing.T) {
	s := MustParse("select a from t where not a = 1")
	if _, ok := s.Where.(*NotExpr); !ok {
		t.Errorf("NOT: %#v", s.Where)
	}
}

func TestParseFuncCalls(t *testing.T) {
	s := MustParse("select sum(a * b), count(*), min(c) from t group by c")
	sum := s.Select[0].Expr.(*FuncCall)
	if sum.Name != "SUM" || len(sum.Args) != 1 {
		t.Errorf("SUM: %+v", sum)
	}
	cnt := s.Select[1].Expr.(*FuncCall)
	if cnt.Name != "COUNT" || !cnt.Star {
		t.Errorf("COUNT(*): %+v", cnt)
	}
	if len(s.GroupBy) != 1 {
		t.Error("GROUP BY missing")
	}
}

func TestParseOrderByLimitDistinct(t *testing.T) {
	s := MustParse("select distinct a, b from t order by a desc, b asc, c limit 10")
	if !s.Distinct {
		t.Error("DISTINCT")
	}
	if len(s.OrderBy) != 3 || !s.OrderBy[0].Desc || s.OrderBy[1].Desc || s.OrderBy[2].Desc {
		t.Errorf("ORDER BY: %+v", s.OrderBy)
	}
	if s.Limit != 10 {
		t.Errorf("LIMIT = %d", s.Limit)
	}
}

func TestParseMultipleTables(t *testing.T) {
	s := MustParse("select o.id, c.id from orders o, customer c where o.cidfk = c.id and c.balance > 10000")
	if len(s.From) != 2 {
		t.Fatalf("from: %+v", s.From)
	}
	if s.From[0].Alias != "o" || s.From[1].Alias != "c" {
		t.Error("aliases")
	}
}

func TestParseComments(t *testing.T) {
	s := MustParse("select a -- trailing comment\nfrom t -- another\n")
	if len(s.Select) != 1 {
		t.Error("comment handling")
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	s := MustParse("SeLeCt A FrOm T wHeRe A = 1 GROUP by a ORDER by a")
	if len(s.GroupBy) != 1 || len(s.OrderBy) != 1 {
		t.Error("mixed-case keywords")
	}
	// Identifiers fold to lower case.
	if s.Select[0].Expr.(*ColumnRef).Name != "a" {
		t.Error("identifier folding")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"select",
		"select from t",
		"select a",
		"select a from",
		"select a from t where",
		"select a from t where a =",
		"select a from t limit x",
		"select a from t limit",
		"select a from t where a = 1 extra trailing",
		"select a from t where a like 1",
		"select a from t where a in ()",
		"select a from t where a between 1",
		"select a from t where a not = 1",
		"select a from t where 'unterminated",
		"select a from t where a ? 1",
		"select a from t group by",
		"select sum(a from t",
		"select a. from t",
		"select a from t where a is 1",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad SQL")
		}
	}()
	MustParse("not sql")
}

// Round-trip: printing then reparsing yields an identical printed form.
func TestSQLRoundTrip(t *testing.T) {
	queries := []string{
		"select id from customer where balance > 10000",
		"select o.id, c.id, sum(o.prob * c.prob) from orders o, customer c where o.cidfk = c.id and c.balance > 10000 group by o.id, c.id",
		"select distinct a from t where a in (1, 2, 3) order by a desc limit 5",
		"select a from t where not (a = 1 or b = 2)",
		"select a from t where a between 1 and 2 and b like 'x%' and c is not null",
		"select a + b * c from t where (a + b) * c > 0",
		"select -a from t where a - -1 > 0",
		"select l_extendedprice * (1 - l_discount) as revenue from lineitem",
		"select count(*) from t",
		"select a from t where a not in (1) and b not like 'y' and c is null",
	}
	for _, q := range queries {
		s1, err := Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		printed := s1.SQL()
		s2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q (printed as %q): %v", q, printed, err)
		}
		if s2.SQL() != printed {
			t.Errorf("round trip unstable:\n  orig:    %s\n  printed: %s\n  again:   %s", q, printed, s2.SQL())
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	s := MustParse("select a, b from t, u where a = 1 and b = 2 group by a order by b desc limit 3")
	c := s.Clone()
	// Mutate clone, original unchanged.
	c.Select[0].Expr.(*ColumnRef).Name = "zzz"
	c.Where.(*BinaryExpr).Op = OpOr
	c.GroupBy[0].(*ColumnRef).Name = "zzz"
	c.OrderBy[0].Expr.(*ColumnRef).Name = "zzz"
	if s.Select[0].Expr.(*ColumnRef).Name != "a" {
		t.Error("Clone shares select exprs")
	}
	if s.Where.(*BinaryExpr).Op != OpAnd {
		t.Error("Clone shares where")
	}
	if s.GroupBy[0].(*ColumnRef).Name != "a" {
		t.Error("Clone shares group by")
	}
	if s.OrderBy[0].Expr.(*ColumnRef).Name != "b" {
		t.Error("Clone shares order by")
	}
	if c.SQL() == s.SQL() {
		t.Error("mutated clone should print differently")
	}
}

func TestCloneExprAllNodes(t *testing.T) {
	src := "select a from t where a in (1) and a between 1 and 2 and a like 'x' and a is null and not a = -b and count(*) > 0"
	s := MustParse(src)
	cp := CloneExpr(s.Where)
	if cp.SQL() != s.Where.SQL() {
		t.Error("CloneExpr should preserve printed form")
	}
	if CloneExpr(nil) != nil {
		t.Error("CloneExpr(nil)")
	}
}

func TestConjunctsAndAll(t *testing.T) {
	s := MustParse("select a from t where a = 1 and b = 2 and c = 3")
	cs := Conjuncts(s.Where)
	if len(cs) != 3 {
		t.Fatalf("Conjuncts = %d", len(cs))
	}
	for i, want := range []string{"a = 1", "b = 2", "c = 3"} {
		if got := cs[i].SQL(); got != want {
			t.Errorf("conjunct %d = %s, want %s", i, got, want)
		}
	}
	if len(Conjuncts(nil)) != 0 {
		t.Error("Conjuncts(nil)")
	}
	// OR is not flattened.
	s2 := MustParse("select a from t where a = 1 or b = 2")
	if len(Conjuncts(s2.Where)) != 1 {
		t.Error("OR must remain a single conjunct")
	}
}

func TestHasAggregate(t *testing.T) {
	if !HasAggregate(MustParse("select sum(a) from t").Select[0].Expr) {
		t.Error("SUM is aggregate")
	}
	if !HasAggregate(MustParse("select 1 + count(*) from t").Select[0].Expr) {
		t.Error("nested aggregate")
	}
	if HasAggregate(MustParse("select a + b from t").Select[0].Expr) {
		t.Error("plain arithmetic is not aggregate")
	}
	if HasAggregate(nil) {
		t.Error("nil has no aggregate")
	}
	for _, n := range []string{"SUM", "COUNT", "AVG", "MIN", "MAX"} {
		if !IsAggregateName(n) {
			t.Errorf("%s should be aggregate", n)
		}
	}
	if IsAggregateName("ABS") {
		t.Error("ABS is not aggregate")
	}
}

func TestWalkExprPrune(t *testing.T) {
	s := MustParse("select a from t where a = 1 and b = 2")
	var visited int
	WalkExpr(s.Where, func(e Expr) bool {
		visited++
		_, isBin := e.(*BinaryExpr)
		return isBin && e.(*BinaryExpr).Op == OpAnd // descend only through AND
	})
	// AND + two comparisons (pruned below comparisons).
	if visited != 3 {
		t.Errorf("visited = %d, want 3", visited)
	}
}

// Property: integer literals survive parse/print round trips.
func TestLiteralRoundTripProperty(t *testing.T) {
	f := func(n int32) bool {
		src := "select " + value.Int(int64(n)).String() + " from t"
		s, err := Parse(src)
		if err != nil {
			return false
		}
		s2, err := Parse(s.SQL())
		if err != nil {
			return false
		}
		return s2.SQL() == s.SQL()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: identifier-only queries round-trip for arbitrary identifier-ish
// names.
func TestIdentifierRoundTripProperty(t *testing.T) {
	f := func(raw uint32) bool {
		// Build a valid identifier from the bits.
		name := "c" + strings.ToLower(value.Int(int64(raw)).String())
		name = strings.ReplaceAll(name, "-", "_")
		src := "select " + name + " from t"
		s, err := Parse(src)
		if err != nil {
			return false
		}
		cr, ok := s.Select[0].Expr.(*ColumnRef)
		return ok && cr.Name == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseHaving(t *testing.T) {
	s := MustParse("select a, sum(b) from t group by a having sum(b) > 5 and a <> 'x' order by a")
	if s.Having == nil {
		t.Fatal("HAVING not parsed")
	}
	if len(Conjuncts(s.Having)) != 2 {
		t.Errorf("having conjuncts: %v", s.Having.SQL())
	}
	// HAVING requires GROUP BY.
	if _, err := Parse("select a from t having a > 1"); err == nil {
		t.Error("HAVING without GROUP BY should fail")
	}
	// Round trip.
	printed := s.SQL()
	s2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse %q: %v", printed, err)
	}
	if s2.SQL() != printed {
		t.Errorf("round trip: %q vs %q", s2.SQL(), printed)
	}
	// Clone copies HAVING deeply.
	c := s.Clone()
	c.Having.(*BinaryExpr).Op = OpOr
	if s.Having.(*BinaryExpr).Op != OpAnd {
		t.Error("Clone shares HAVING")
	}
}

// Robustness: the parser returns errors, never panics, on arbitrary junk.
func TestParserNeverPanicsProperty(t *testing.T) {
	f := func(junk string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %q: %v", junk, r)
			}
		}()
		_, _ = Parse(junk)
		_, _ = Parse("select " + junk + " from t")
		_, _ = Parse("select a from t where " + junk)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Lexer robustness: arbitrary byte strings lex or fail cleanly.
func TestLexerNeverPanicsProperty(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("lexer panic on %q: %v", b, r)
			}
		}()
		_, _ = lex(string(b))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Malformed SELECT lists must fail with an error that names the offending
// token and its byte offset, so users can locate the mistake.
func TestParseSelectListErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string // substring of the error message
	}{
		{"select ,a from t", `at ","`},
		{"select a,, b from t", `at ","`},
		{"select a, from t", `at "FROM"`},
		{"select a as from t", "expected alias after AS"},
		{"select distinct from t", `at "FROM"`},
		{"select count( from t", `at "FROM"`},
		{"select a,b, from t", `at "FROM"`},
		{"select *, from t", `at "FROM"`},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) should fail", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %v, want it to mention %q", c.src, err, c.want)
		}
		if !strings.Contains(err.Error(), "offset") {
			t.Errorf("Parse(%q) = %v, want a byte offset", c.src, err)
		}
	}
}

// Errors after a valid prefix: trailing junk, unclosed constructs, and
// truncated clauses must not silently succeed.
func TestParseTruncationErrors(t *testing.T) {
	bad := []string{
		"select a from t,",
		"select a from t where (a = 1",
		"select a from t where a = 1 order by b,",
		"select a from t group by a having",
		"select a from t where a in (1,",
		"select a from t where a between 1 and",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// Unknown relation syntax: FROM items must be plain table names.
func TestParseFromErrors(t *testing.T) {
	for _, src := range []string{
		"select a from 42",
		"select a from 'str'",
		"select a from (select b from t)",
	} {
		_, err := Parse(src)
		if err == nil {
			t.Errorf("Parse(%q) should fail", src)
			continue
		}
		if !strings.Contains(err.Error(), "expected table name") {
			t.Errorf("Parse(%q) = %v, want \"expected table name\"", src, err)
		}
	}
}

func TestNormalizeVariantSpellings(t *testing.T) {
	variants := []string{
		"select a, b from t where a > 1 order by b",
		"SELECT a, b FROM t WHERE a > 1 ORDER BY b",
		"Select  A ,  B\n\tFrom T\nWhere A > 1 Order By B",
	}
	want, err := Normalize(variants[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants[1:] {
		got, err := Normalize(v)
		if err != nil {
			t.Fatalf("Normalize(%q): %v", v, err)
		}
		if got != want {
			t.Errorf("Normalize(%q) = %q, want %q", v, got, want)
		}
	}
	// Normalization is a fixed point: canonical text re-normalizes to
	// itself.
	again, err := Normalize(want)
	if err != nil || again != want {
		t.Fatalf("not a fixed point: %q -> %q (%v)", want, again, err)
	}
	if _, err := Normalize("select from"); err == nil {
		t.Fatal("invalid SQL must return the parse error")
	}
}
