package probcalc

import (
	"math"
	"strings"
	"testing"

	"conquer/internal/infotheory"
	"conquer/internal/testdb"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// addT appends one tuple, failing the test on error.
func addT(t testing.TB, ds *Dataset, values ...string) {
	t.Helper()
	if err := ds.Add(values); err != nil {
		t.Fatal(err)
	}
}

// figure6 loads the §4 customer relation (Figure 6).
func figure6(t testing.TB) (*Dataset, []string) {
	t.Helper()
	attrs, tuples, ids := testdb.Figure6Tuples()
	ds := NewDataset(attrs)
	for _, tp := range tuples {
		if err := ds.Add(tp); err != nil {
			t.Fatal(err)
		}
	}
	return ds, ids
}

// Paper Table 1: the normalized matrix has p(v|t) = 1/m = 0.25 for each of
// a tuple's four values, and the vocabulary treats identical strings under
// different attributes as distinct.
func TestPaperTable1(t *testing.T) {
	ds, _ := figure6(t)
	if ds.Len() != 6 {
		t.Fatalf("tuples = %d", ds.Len())
	}
	// Figure 6 has 13 distinct (attribute, value) pairs: 4 names, 2
	// segments, 3 nations, 4 addresses.
	if got := ds.VocabSize(); got != 13 {
		t.Errorf("|V| = %d, want 13", got)
	}
	p := ds.TupleDistribution(0)
	nonzero := 0
	for _, e := range p {
		if e.P != 0 {
			nonzero++
			if !approx(e.P, 0.25, 1e-12) {
				t.Errorf("p(v|t1) = %v, want 0.25", e.P)
			}
		}
	}
	if nonzero != 4 {
		t.Errorf("tuple 1 has %d nonzero entries, want 4", nonzero)
	}
	// Row sums to 1.
	sum := 0.0
	for _, e := range p {
		sum += e.P
	}
	if !approx(sum, 1, 1e-12) {
		t.Errorf("row sum = %v", sum)
	}
}

// Paper Table 2: the three cluster representatives. Checks the published
// values: rep1 has USA at 0.25 (all three tuples agree on nation), Mary at
// 2/3 * 0.25, banking at 2/3 * 0.25; rep2 has building and Arrow at 0.25.
func TestPaperTable2(t *testing.T) {
	ds, ids := figure6(t)
	rowsOf := map[string][]int{}
	for i, id := range ids {
		rowsOf[id] = append(rowsOf[id], i)
	}
	rep1, err := ds.Representative(rowsOf["c1"])
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Count != 3 {
		t.Errorf("|c1| = %d", rep1.Count)
	}
	find := func(attr int, raw string) int {
		for id := 0; id < ds.VocabSize(); id++ {
			a, r := ds.ValueName(id)
			if a == attr && r == raw {
				return id
			}
		}
		t.Fatalf("value %q of attribute %d not in vocabulary", raw, attr)
		return -1
	}
	// Attribute order: name, mktsegment, nation, address.
	if got := rep1.P.At(find(2, "USA")); !approx(got, 0.25, 1e-12) {
		t.Errorf("rep1[USA] = %v, want 0.25", got)
	}
	if got := rep1.P.At(find(0, "Mary")); !approx(got, 2.0/3*0.25, 1e-12) {
		t.Errorf("rep1[Mary] = %v, want %v", got, 2.0/3*0.25)
	}
	if got := rep1.P.At(find(1, "banking")); !approx(got, 2.0/3*0.25, 1e-12) {
		t.Errorf("rep1[banking] = %v", got)
	}
	if got := rep1.P.At(find(0, "Marion")); !approx(got, 1.0/3*0.25, 1e-12) {
		t.Errorf("rep1[Marion] = %v", got)
	}

	rep2, err := ds.Representative(rowsOf["c2"])
	if err != nil {
		t.Fatal(err)
	}
	if got := rep2.P.At(find(1, "building")); !approx(got, 0.25, 1e-12) {
		t.Errorf("rep2[building] = %v, want 0.25", got)
	}
	if got := rep2.P.At(find(3, "Arrow")); !approx(got, 0.25, 1e-12) {
		t.Errorf("rep2[Arrow] = %v, want 0.25", got)
	}

	// rep3 is t6 itself.
	rep3, err := ds.Representative(rowsOf["c3"])
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Count != 1 {
		t.Errorf("|c3| = %d", rep3.Count)
	}
	// Representative distributions sum to 1.
	for i, rep := range []DCF{rep1, rep2, rep3} {
		sum := 0.0
		for _, e := range rep.P {
			sum += e.P
		}
		if !approx(sum, 1, 1e-9) {
			t.Errorf("rep%d sums to %v", i+1, sum)
		}
	}
}

// Paper Table 3 (qualitative checks from §4.1.3 and §4.2): t2 is the most
// probable tuple of c1; t4 and t5 are equally likely (0.5 each); t6 is
// certain; every cluster's probabilities sum to 1.
func TestPaperTable3(t *testing.T) {
	ds, ids := figure6(t)
	as, err := AssignProbabilities(ds, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster sums.
	sums := map[string]float64{}
	for _, a := range as {
		sums[a.Cluster] += a.Prob
	}
	for cid, s := range sums {
		if !approx(s, 1, 1e-9) {
			t.Errorf("cluster %s probabilities sum to %v", cid, s)
		}
	}
	// t2 (index 1) beats t1 and t3 in c1.
	if !(as[1].Prob > as[0].Prob && as[1].Prob > as[2].Prob) {
		t.Errorf("t2 should be most probable in c1: t1=%v t2=%v t3=%v",
			as[0].Prob, as[1].Prob, as[2].Prob)
	}
	// t4 and t5 are symmetric: equal distance, probability 0.5 each.
	if !approx(as[3].Prob, 0.5, 1e-9) || !approx(as[4].Prob, 0.5, 1e-9) {
		t.Errorf("t4/t5 = %v/%v, want 0.5 each", as[3].Prob, as[4].Prob)
	}
	// Singleton t6 is certain with zero distance.
	if as[5].Prob != 1 || as[5].Distance != 0 || as[5].Similarity != 1 {
		t.Errorf("t6 = %+v, want prob 1", as[5])
	}
	// Smaller distance => higher similarity => higher probability (§4
	// Table 3 narrative) within c1.
	for _, pair := range [][2]int{{0, 1}, {2, 1}, {2, 0}} {
		hi, lo := pair[1], pair[0]
		if as[hi].Distance < as[lo].Distance != (as[hi].Prob > as[lo].Prob) {
			t.Errorf("distance/probability order violated between t%d and t%d", lo+1, hi+1)
		}
	}
}

func TestAssignProbabilitiesIdenticalCluster(t *testing.T) {
	ds := NewDataset([]string{"a", "b"})
	addT(t, ds, "x", "y")
	addT(t, ds, "x", "y")
	addT(t, ds, "x", "y")
	as, err := AssignProbabilities(ds, []string{"c", "c", "c"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range as {
		if !approx(a.Prob, 1.0/3, 1e-12) {
			t.Errorf("identical cluster should be uniform, got %v", a.Prob)
		}
	}
}

func TestAssignProbabilitiesErrors(t *testing.T) {
	ds := NewDataset([]string{"a"})
	addT(t, ds, "x")
	if _, err := AssignProbabilities(ds, []string{"c", "d"}, nil); err == nil {
		t.Error("cluster id count mismatch should fail")
	}
	if err := ds.Add([]string{"x", "y"}); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestAddArityError(t *testing.T) {
	err := NewDataset([]string{"a"}).Add([]string{"x", "y"})
	if err == nil {
		t.Fatal("Add with wrong arity should fail, not panic")
	}
	if !strings.Contains(err.Error(), "2 values, want 1") {
		t.Errorf("arity error should name the counts, got %v", err)
	}
}

func TestMergeCardinalityWeights(t *testing.T) {
	a := DCF{Count: 3, P: infotheory.Sparse{{ID: 0, P: 1}}}
	b := DCF{Count: 1, P: infotheory.Sparse{{ID: 1, P: 1}}}
	m := merge(nil, a, b)
	if m.Count != 4 {
		t.Errorf("count = %d", m.Count)
	}
	if !approx(m.P.At(0), 0.75, 1e-12) || !approx(m.P.At(1), 0.25, 1e-12) {
		t.Errorf("merged P = %v", m.P)
	}
	// Disjoint supports merge into the union, in ID order; a shared ID
	// merges into one entry.
	c := merge(nil, DCF{Count: 1, P: infotheory.Sparse{{ID: 3, P: 0.5}, {ID: 7, P: 0.5}}},
		DCF{Count: 1, P: infotheory.Sparse{{ID: 1, P: 0.5}, {ID: 7, P: 0.5}}})
	want := infotheory.Sparse{{ID: 1, P: 0.25}, {ID: 3, P: 0.25}, {ID: 7, P: 0.5}}
	if len(c.P) != len(want) {
		t.Fatalf("merge = %v, want %v", c.P, want)
	}
	for i := range want {
		if c.P[i].ID != want[i].ID || !approx(c.P[i].P, want[i].P, 1e-12) {
			t.Errorf("merge = %v, want %v", c.P, want)
		}
	}
}

func TestRepresentativeEmptyCluster(t *testing.T) {
	ds := NewDataset([]string{"a"})
	if _, err := ds.Representative(nil); err == nil {
		t.Error("empty cluster should fail")
	}
}

func TestMostFrequentValues(t *testing.T) {
	ds, ids := figure6(t)
	var c1 []int
	for i, id := range ids {
		if id == "c1" {
			c1 = append(c1, i)
		}
	}
	got := ds.MostFrequentValues(c1)
	want := []string{"Mary", "banking", "USA", "Jones Ave"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("most frequent %s = %q, want %q", ds.Attrs[i], got[i], want[i])
		}
	}
}

func TestRankCluster(t *testing.T) {
	ds, ids := figure6(t)
	as, err := AssignProbabilities(ds, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	ranked := RankCluster(as, "c1")
	if len(ranked) != 3 {
		t.Fatalf("ranked = %d", len(ranked))
	}
	if ranked[0].Row != 1 {
		t.Errorf("top of c1 should be t2, got row %d", ranked[0].Row)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Prob > ranked[i-1].Prob {
			t.Error("RankCluster not descending")
		}
	}
	if len(RankCluster(as, "ghost")) != 0 {
		t.Error("unknown cluster should be empty")
	}
}

func TestTupleRoundTrip(t *testing.T) {
	ds, _ := figure6(t)
	got := ds.Tuple(2)
	want := []string{"Marion", "banking", "USA", "Jones ave"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Tuple(2)[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
