package rewrite

import (
	"conquer/internal/schema"
	"conquer/internal/sqlparse"
)

// Augment extends the rewritable class to queries that satisfy every
// condition of Dfn 7 *except* condition 4 (the root identifier is not
// projected): it returns the query with the root relation's identifier
// added to the SELECT clause, ready for RewriteClean. The paper motivates
// exactly this repair — "including the identifier in the select clause is
// not an onerous restriction" — because the rewriting exists to help a
// user understand the *entities* behind each answer. A rewritable query
// comes back as it is; stmt is never mutated.
//
// The returned augmented flag reports whether the identifier was added
// (the clean answers are then those of the finer, augmented query; note
// that summing their probabilities over the added column does NOT yield
// the original query's clean answers — that is precisely the
// double-counting of Example 7).
func Augment(cat *schema.Catalog, stmt *sqlparse.SelectStmt) (aug *sqlparse.SelectStmt, augmented bool, err error) {
	a, err := Analyze(cat, stmt)
	if err != nil {
		return nil, false, err
	}
	if a.Rewritable {
		return stmt, false, nil
	}
	if !a.rootUnselected || len(a.Reasons) != 1 {
		return nil, false, &NotRewritableError{Reasons: a.Reasons}
	}
	// Prepend the root identifier and check the result.
	aug = stmt.Clone()
	item := sqlparse.SelectItem{
		Expr: &sqlparse.ColumnRef{Qualifier: a.Root, Name: a.rootRel.Identifier},
	}
	aug.Select = append([]sqlparse.SelectItem{item}, aug.Select...)
	a2, err := Analyze(cat, aug)
	if err != nil {
		return nil, false, err
	}
	if !a2.Rewritable {
		return nil, false, &NotRewritableError{Reasons: a2.Reasons}
	}
	return aug, true, nil
}
