package probcalc

import (
	"context"
	"testing"
	"testing/quick"

	"conquer/internal/schema"
	"conquer/internal/storage"
	"conquer/internal/testdb"
	"conquer/internal/value"
)

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"same", "same", 0},
		{"Jones Ave", "Jones ave", 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Properties: symmetry, identity, and the triangle inequality.
func TestLevenshteinProperties(t *testing.T) {
	sym := func(a, b string) bool { return Levenshtein(a, b) == Levenshtein(b, a) }
	if err := quick.Check(sym, &quick.Config{MaxCount: 100}); err != nil {
		t.Error("symmetry:", err)
	}
	ident := func(a string) bool { return Levenshtein(a, a) == 0 }
	if err := quick.Check(ident, &quick.Config{MaxCount: 100}); err != nil {
		t.Error("identity:", err)
	}
	tri := func(a, b, c string) bool {
		if len(a) > 12 || len(b) > 12 || len(c) > 12 {
			return true // keep quadratic cost bounded
		}
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(tri, &quick.Config{MaxCount: 100}); err != nil {
		t.Error("triangle:", err)
	}
}

func TestNormalizedEditDistance(t *testing.T) {
	if NormalizedEditDistance("", "") != 0 {
		t.Error("empty strings")
	}
	if got := NormalizedEditDistance("abc", "abd"); got != 1.0/3 {
		t.Errorf("= %v", got)
	}
	if got := NormalizedEditDistance("a", "xyz"); got != 1 {
		t.Errorf("completely different = %v, want 1", got)
	}
}

func TestAvgEditDistance(t *testing.T) {
	a := []string{"Mary", "USA"}
	b := []string{"Mary", "USA"}
	if AvgEditDistance(a, b) != 0 {
		t.Error("identical tuples")
	}
	c := []string{"Marion", "USA"}
	if got := AvgEditDistance(a, c); got <= 0 || got >= 1 {
		t.Errorf("= %v", got)
	}
	if AvgEditDistance(nil, nil) != 0 {
		t.Error("empty tuples")
	}
}

// The edit-distance variant produces a valid probability function with the
// same qualitative ranking on the Figure-6 relation.
func TestAssignProbabilitiesEdit(t *testing.T) {
	attrs, tuples, ids := testdb.Figure6Tuples()
	ds := NewDataset(attrs)
	for _, tp := range tuples {
		if err := ds.Add(tp); err != nil {
			t.Fatal(err)
		}
	}
	as, err := AssignProbabilitiesEdit(ds, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]float64{}
	for _, a := range as {
		sums[a.Cluster] += a.Prob
		// Unlike the information-loss distance, the modal-tuple variant can
		// assign probability exactly 0 (a member maximally far from the
		// modal tuple in a two-element cluster); Dfn 2 permits that.
		if a.Prob < 0 || a.Prob > 1 {
			t.Errorf("prob %v out of range", a.Prob)
		}
	}
	for cid, s := range sums {
		if !approx(s, 1, 1e-9) {
			t.Errorf("cluster %s sums to %v", cid, s)
		}
	}
	// t2 exactly matches the modal tuple -> most probable in c1.
	if !(as[1].Prob > as[0].Prob && as[1].Prob > as[2].Prob) {
		t.Errorf("t2 should rank first in c1: %v %v %v", as[0].Prob, as[1].Prob, as[2].Prob)
	}
	// Singleton.
	if as[5].Prob != 1 {
		t.Errorf("singleton prob = %v", as[5].Prob)
	}
	// Mismatched ids.
	if _, err := AssignProbabilitiesEdit(ds, ids[:2], nil); err == nil {
		t.Error("count mismatch should fail")
	}
}

func TestAnnotateTable(t *testing.T) {
	// The Figure-6 relation as a stored dirty table.
	s := schema.MustRelation("customer",
		schema.Column{Name: "name", Type: value.KindString},
		schema.Column{Name: "mktsegment", Type: value.KindString},
		schema.Column{Name: "nation", Type: value.KindString},
		schema.Column{Name: "address", Type: value.KindString},
	)
	if err := s.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB()
	tb := db.MustCreateTable(s)
	attrs, tuples, ids := testdb.Figure6Tuples()
	_ = attrs
	for i, tp := range tuples {
		tb.MustInsert(value.Str(tp[0]), value.Str(tp[1]), value.Str(tp[2]), value.Str(tp[3]),
			value.Str(ids[i]), value.Null())
	}
	if err := AnnotateTableCtx(context.Background(), tb, nil, nil, 1); err != nil {
		t.Fatal(err)
	}
	// Probabilities are populated, per-cluster sums are 1, and t2 wins c1.
	sum := map[string]float64{}
	for i := 0; i < tb.Len(); i++ {
		row := tb.Row(i)
		p := row[5].AsFloat()
		sum[row[4].AsString()] += p
	}
	for cid, sv := range sum {
		if !approx(sv, 1, 1e-9) {
			t.Errorf("cluster %s sums to %v", cid, sv)
		}
	}
	if !(tb.Row(1)[5].AsFloat() > tb.Row(0)[5].AsFloat()) {
		t.Error("t2 should beat t1 after annotation")
	}

	// Explicit attribute subset.
	if err := AnnotateTableCtx(context.Background(), tb, []string{"name", "nation"}, nil, 1); err != nil {
		t.Fatal(err)
	}
	// Errors.
	if err := AnnotateTableCtx(context.Background(), tb, []string{"ghost"}, nil, 1); err == nil {
		t.Error("unknown attribute should fail")
	}
	cleanS := schema.MustRelation("clean", schema.Column{Name: "a", Type: value.KindString})
	clean := storage.NewTable(cleanS)
	if err := AnnotateTableCtx(context.Background(), clean, nil, nil, 1); err == nil {
		t.Error("clean relation should fail")
	}
}
