package dirty

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"conquer/internal/schema"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// figure2DB builds the paper's Figure 2 database. Foreign keys: the
// orders.custfk column references customer.custid; cidfk holds the
// propagated cluster identifier (initially a copy of custfk, i.e. not yet
// propagated, so Propagate has real work to do).
func figure2DB(t testing.TB, propagated bool) *DB {
	t.Helper()
	store := storage.NewDB()

	custS := schema.MustRelation("customer",
		schema.Column{Name: "id", Type: value.KindString},
		schema.Column{Name: "custid", Type: value.KindString},
		schema.Column{Name: "name", Type: value.KindString},
		schema.Column{Name: "balance", Type: value.KindFloat},
		schema.Column{Name: "prob", Type: value.KindFloat},
	)
	if err := custS.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	cust := store.MustCreateTable(custS)
	cust.MustInsert(value.Str("c1"), value.Str("m1"), value.Str("John"), value.Float(20000), value.Float(0.7))
	cust.MustInsert(value.Str("c1"), value.Str("m2"), value.Str("John"), value.Float(30000), value.Float(0.3))
	cust.MustInsert(value.Str("c2"), value.Str("m3"), value.Str("Mary"), value.Float(27000), value.Float(0.2))
	cust.MustInsert(value.Str("c2"), value.Str("m4"), value.Str("Marion"), value.Float(5000), value.Float(0.8))

	ordS := schema.MustRelation("orders",
		schema.Column{Name: "id", Type: value.KindString},
		schema.Column{Name: "orderid", Type: value.KindString},
		schema.Column{Name: "cidfk", Type: value.KindString},
		schema.Column{Name: "quantity", Type: value.KindInt},
		schema.Column{Name: "prob", Type: value.KindFloat},
	)
	if err := ordS.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	if err := ordS.AddForeignKey("cidfk", "customer", "custid"); err != nil {
		t.Fatal(err)
	}
	ord := store.MustCreateTable(ordS)
	fk := func(orig, prop string) value.Value {
		if propagated {
			return value.Str(prop)
		}
		return value.Str(orig)
	}
	ord.MustInsert(value.Str("o1"), value.Str("11"), fk("m1", "c1"), value.Int(3), value.Float(1))
	ord.MustInsert(value.Str("o2"), value.Str("12"), fk("m2", "c1"), value.Int(2), value.Float(0.5))
	ord.MustInsert(value.Str("o2"), value.Str("13"), fk("m3", "c2"), value.Int(5), value.Float(0.5))

	return New(store)
}

func TestDirtyRelations(t *testing.T) {
	d := figure2DB(t, true)
	rels := d.DirtyRelations()
	if len(rels) != 2 || rels[0] != "customer" || rels[1] != "orders" {
		t.Errorf("DirtyRelations = %v", rels)
	}
}

func TestClusters(t *testing.T) {
	d := figure2DB(t, true)
	cs, err := d.Clusters("customer")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("customer clusters = %d", len(cs))
	}
	if cs[0].ID.AsString() != "c1" || len(cs[0].Rows) != 2 {
		t.Errorf("cluster c1: %+v", cs[0])
	}
	if cs[1].ID.AsString() != "c2" || len(cs[1].Rows) != 2 {
		t.Errorf("cluster c2: %+v", cs[1])
	}
	ocs, err := d.Clusters("orders")
	if err != nil {
		t.Fatal(err)
	}
	if len(ocs) != 2 || len(ocs[0].Rows) != 1 || len(ocs[1].Rows) != 2 {
		t.Errorf("order clusters: %+v", ocs)
	}
	if _, err := d.Clusters("ghost"); err == nil {
		t.Error("unknown relation")
	}
}

// Clusters must group as the first-match scan of the definition does —
// clusters in order of first appearance, a row joining the first cluster
// whose identifier is Equal to its own (so Int(2) and Float(2) are one
// cluster), rows in table order — and carve Rows so that appending to one
// cluster's rows never writes into the next cluster's.
func TestClustersMatchFirstMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ids := []value.Value{value.Int(2), value.Float(2), value.Float(-0.0), value.Int(0),
		value.Float(2.5), value.Str("2"), value.Str("a"), value.Bool(true), value.Int(7)}
	for trial := 0; trial < 50; trial++ {
		store := storage.NewDB()
		s := schema.MustRelation("t", schema.Column{Name: "a", Type: value.KindInt})
		if err := s.SetDirty("id", "prob"); err != nil {
			t.Fatal(err)
		}
		tb := store.MustCreateTable(s)
		n := 1 + rng.Intn(30)
		for i := 0; i < n; i++ {
			// SetRow skips the column type check, so one identifier column
			// can mix kinds here.
			row := []value.Value{value.Int(int64(i)), ids[rng.Intn(len(ids))], value.Float(1)}
			if err := tb.SetRow(tb.Len(), row); err != nil {
				t.Fatal(err)
			}
		}
		var want []Cluster
		for i := 0; i < tb.Len(); i++ {
			id := tb.Row(i)[1]
			c := 0
			for c < len(want) && !value.Equal(want[c].ID, id) {
				c++
			}
			if c == len(want) {
				want = append(want, Cluster{ID: id})
			}
			want[c].Rows = append(want[c].Rows, i)
		}
		got, err := New(store).Clusters("t")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d clusters, want %d", trial, len(got), len(want))
		}
		for c := range want {
			if !value.Identical(got[c].ID, want[c].ID) || !slices.Equal(got[c].Rows, want[c].Rows) {
				t.Fatalf("trial %d: cluster %d = %v %v, want %v %v", trial, c, got[c].ID, got[c].Rows, want[c].ID, want[c].Rows)
			}
		}
		for c := 0; c+1 < len(got); c++ {
			_ = append(got[c].Rows, -1)
			if !slices.Equal(got[c+1].Rows, want[c+1].Rows) {
				t.Fatalf("trial %d: appending to cluster %d's rows changed cluster %d's to %v", trial, c, c+1, got[c+1].Rows)
			}
		}
	}
}

func TestClustersRejectNullIdentifier(t *testing.T) {
	store := storage.NewDB()
	s := schema.MustRelation("t", schema.Column{Name: "a", Type: value.KindInt})
	if err := s.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	tb := store.MustCreateTable(s)
	tb.MustInsert(value.Int(1), value.Null(), value.Float(1))
	d := New(store)
	if _, err := d.Clusters("t"); err == nil {
		t.Error("NULL identifier should be rejected")
	}
}

func TestValidate(t *testing.T) {
	d := figure2DB(t, true)
	if err := d.Validate(); err != nil {
		t.Errorf("Figure 2 database should validate: %v", err)
	}
}

func TestValidateFailures(t *testing.T) {
	mk := func(p1, p2 float64) *DB {
		store := storage.NewDB()
		s := schema.MustRelation("t", schema.Column{Name: "a", Type: value.KindInt})
		if err := s.SetDirty("id", "prob"); err != nil {
			t.Fatal(err)
		}
		tb := store.MustCreateTable(s)
		tb.MustInsert(value.Int(1), value.Str("c1"), value.Float(p1))
		tb.MustInsert(value.Int(2), value.Str("c1"), value.Float(p2))
		return New(store)
	}
	if err := mk(0.7, 0.2).Validate(); err == nil {
		t.Error("sum != 1 should fail")
	}
	if err := mk(1.2, -0.2).Validate(); err == nil {
		t.Error("out-of-range probability should fail")
	}
	if err := mk(0.5, 0.5).Validate(); err != nil {
		t.Errorf("valid cluster rejected: %v", err)
	}
	// NULL probability.
	store := storage.NewDB()
	s := schema.MustRelation("t", schema.Column{Name: "a", Type: value.KindInt})
	if err := s.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	tb := store.MustCreateTable(s)
	tb.MustInsert(value.Int(1), value.Str("c1"), value.Null())
	if err := New(store).Validate(); err == nil {
		t.Error("NULL probability should fail")
	}
}

func TestNormalize(t *testing.T) {
	store := storage.NewDB()
	s := schema.MustRelation("t", schema.Column{Name: "a", Type: value.KindInt})
	if err := s.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	tb := store.MustCreateTable(s)
	tb.MustInsert(value.Int(1), value.Str("c1"), value.Float(3))
	tb.MustInsert(value.Int(2), value.Str("c1"), value.Float(1))
	tb.MustInsert(value.Int(3), value.Str("c2"), value.Float(0)) // all-zero cluster
	tb.MustInsert(value.Int(4), value.Str("c2"), value.Float(0))
	d := New(store)
	if err := d.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("normalized database should validate: %v", err)
	}
	if got := tb.Row(0)[2].AsFloat(); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("normalized prob = %v, want 0.75", got)
	}
	if got := tb.Row(2)[2].AsFloat(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("zero cluster should become uniform, got %v", got)
	}
}

func TestCandidateCount(t *testing.T) {
	d := figure2DB(t, true)
	n, err := d.CandidateCount()
	if err != nil {
		t.Fatal(err)
	}
	// Paper Example 2: eight candidate databases.
	if n.Int64() != 8 {
		t.Errorf("candidate count = %v, want 8", n)
	}
}

// Paper Example 3: the eight candidate probabilities.
func TestEnumerateCandidatesProbabilities(t *testing.T) {
	d := figure2DB(t, true)
	var probs []float64
	total := 0.0
	err := d.EnumerateCandidates(0, func(c *Candidate) bool {
		probs = append(probs, c.Prob)
		total += c.Prob
		// Every candidate picks exactly one row per cluster.
		if len(c.Chosen["customer"]) != 2 || len(c.Chosen["orders"]) != 2 {
			t.Errorf("candidate shape: %+v", c.Chosen)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 8 {
		t.Fatalf("candidates = %d, want 8", len(probs))
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("candidate probabilities sum to %v, want 1", total)
	}
	// Multiset check against the paper's Example 3 values.
	want := map[float64]int{0.07: 2, 0.28: 2, 0.03: 2, 0.12: 2}
	got := map[float64]int{}
	for _, p := range probs {
		got[math.Round(p*100)/100]++
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("probability %v appears %d times, want %d (all: %v)", k, got[k], n, probs)
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	d := figure2DB(t, true)
	count := 0
	err := d.EnumerateCandidates(0, func(c *Candidate) bool {
		count++
		return count < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestEnumerateLimitExceeded(t *testing.T) {
	d := figure2DB(t, true)
	if err := d.EnumerateCandidates(4, func(*Candidate) bool { return true }); err == nil {
		t.Error("limit 4 < 8 candidates should fail")
	}
}

func TestMaterialize(t *testing.T) {
	d := figure2DB(t, true)
	var first *storage.DB
	err := d.EnumerateCandidates(0, func(c *Candidate) bool {
		m, err := d.Materialize(c)
		if err != nil {
			t.Fatal(err)
		}
		first = m
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	cust, _ := first.Table("customer")
	ord, _ := first.Table("orders")
	if cust.Len() != 2 || ord.Len() != 2 {
		t.Errorf("materialized sizes: customer=%d orders=%d, want 2/2", cust.Len(), ord.Len())
	}
	// One tuple per cluster.
	ids := map[string]int{}
	for _, r := range cust.Rows() {
		ids[r[0].AsString()]++
	}
	if ids["c1"] != 1 || ids["c2"] != 1 {
		t.Errorf("cluster representatives: %v", ids)
	}
}

func TestMaterializeKeepsCleanRelations(t *testing.T) {
	d := figure2DB(t, true)
	// Add a clean relation.
	nS := schema.MustRelation("nation", schema.Column{Name: "name", Type: value.KindString})
	n := d.Store.MustCreateTable(nS)
	n.MustInsert(value.Str("CANADA"))
	n.MustInsert(value.Str("USA"))
	err := d.EnumerateCandidates(0, func(c *Candidate) bool {
		m, err := d.Materialize(c)
		if err != nil {
			t.Fatal(err)
		}
		nt, _ := m.Table("nation")
		if nt.Len() != 2 {
			t.Errorf("clean relation should keep all rows, got %d", nt.Len())
		}
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistribution(t *testing.T) {
	d := figure2DB(t, true)
	rng := rand.New(rand.NewSource(42))
	const n = 20000
	countC1First := 0 // how often customer cluster c1 picks row 0 (prob 0.7)
	for i := 0; i < n; i++ {
		c, err := d.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		if c.Chosen["customer"][0] == 0 {
			countC1First++
		}
		if c.Prob <= 0 || c.Prob > 1 {
			t.Fatalf("sample probability %v out of range", c.Prob)
		}
	}
	frac := float64(countC1First) / n
	if math.Abs(frac-0.7) > 0.02 {
		t.Errorf("sampled row-0 fraction = %v, want ~0.7", frac)
	}
}

// When a cluster's probabilities sum to less than 1 (Sample does not
// Validate first), a draw landing beyond the sum must fall back to the
// last tuple — and multiply in that tuple's own probability, not a
// stale one from an earlier iteration.
func TestSampleRoundingFallback(t *testing.T) {
	store := storage.NewDB()
	s := schema.MustRelation("t",
		schema.Column{Name: "id", Type: value.KindString},
		schema.Column{Name: "a", Type: value.KindInt},
		schema.Column{Name: "prob", Type: value.KindFloat},
	)
	if err := s.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	tb := store.MustCreateTable(s)
	// One cluster, probabilities summing to 0.5.
	tb.MustInsert(value.Str("k"), value.Int(1), value.Float(0.3))
	tb.MustInsert(value.Str("k"), value.Int(2), value.Float(0.2))
	d := New(store)
	// Seed 1's first Float64 is ~0.6047, beyond the 0.5 total: no row's
	// cumulative range contains the draw, so the fallback must fire.
	c, err := d.Sample(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Chosen["t"][0]; got != 1 {
		t.Errorf("fallback chose row %d, want last row 1", got)
	}
	if math.Abs(c.Prob-0.2) > 1e-12 {
		t.Errorf("fallback Prob = %v, want the last row's own 0.2", c.Prob)
	}
}

// topSource is a rand.Source whose every Float64 is the largest float64
// below 1: Float64 divides Int63 by 2^63, and 2^63 - 1024 is the largest
// Int63 that does not round the quotient up to 1.
type topSource struct{}

func (topSource) Int63() int64 { return 1<<63 - 1024 }
func (topSource) Seed(int64)   {}

// A cluster may sum to 1 - ProbEpsilon and pass Validate, and a draw past
// its sum takes the last tuple that can be chosen: never a probability-0
// one, which Validate promises is never chosen. Draws within the sum pick
// as before.
func TestSampleRoundingGuardSkipsProbabilityZero(t *testing.T) {
	store := storage.NewDB()
	s := schema.MustRelation("t",
		schema.Column{Name: "id", Type: value.KindString},
		schema.Column{Name: "a", Type: value.KindInt},
		schema.Column{Name: "prob", Type: value.KindFloat},
	)
	if err := s.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	tb := store.MustCreateTable(s)
	tb.MustInsert(value.Str("k"), value.Int(1), value.Float(0.5))
	tb.MustInsert(value.Str("k"), value.Int(2), value.Float(0.5-ProbEpsilon/2)) // sum 1 - ProbEpsilon/2
	tb.MustInsert(value.Str("k"), value.Int(3), value.Float(0))
	d := New(store)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	c, err := d.Sample(rand.New(topSource{}))
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 - ProbEpsilon/2
	if got := c.Chosen["t"][0]; got != 1 || math.Float64bits(c.Prob) != math.Float64bits(want) {
		t.Errorf("a draw past the cluster's sum chose row %d with probability %v; want row 1, %v", got, c.Prob, want)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		c, err := d.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Chosen["t"][0]; got == 2 {
			t.Fatalf("sample %d chose the probability-0 row", i)
		}
	}
}

// Candidate.Prob is Dfn 4's product of the chosen tuples' probabilities —
// checked against an independent recomputation from Chosen for both
// enumerated and sampled candidates.
func TestCandidateProbIsProductOfChosen(t *testing.T) {
	d := figure2DB(t, true)
	recompute := func(c *Candidate) float64 {
		prod := 1.0
		for rel, chosen := range c.Chosen {
			tb, _ := d.Store.Table(rel)
			pi := tb.Schema.ProbIndex()
			for _, rowIdx := range chosen {
				prod *= tb.Row(rowIdx)[pi].AsFloat()
			}
		}
		return prod
	}
	seen := 0
	err := d.EnumerateCandidates(0, func(c *Candidate) bool {
		seen++
		if want := recompute(c); math.Abs(c.Prob-want) > 1e-12 {
			t.Errorf("enumerated candidate %v: Prob = %v, want %v", c.Chosen, c.Prob, want)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 8 {
		t.Fatalf("enumerated %d candidates, want 8", seen)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		c, err := d.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		if want := recompute(c); math.Abs(c.Prob-want) > 1e-12 {
			t.Fatalf("sampled candidate %v: Prob = %v, want %v", c.Chosen, c.Prob, want)
		}
	}
}

func TestPropagate(t *testing.T) {
	d := figure2DB(t, false) // cidfk holds original keys m1..m3
	changed, err := d.Propagate("orders", "cidfk", "customer", "custid")
	if err != nil {
		t.Fatal(err)
	}
	if changed != 3 {
		t.Errorf("changed = %d, want 3", changed)
	}
	ord, _ := d.Store.Table("orders")
	want := []string{"c1", "c1", "c2"}
	for i, w := range want {
		if got := ord.Row(i)[2].AsString(); got != w {
			t.Errorf("row %d cidfk = %s, want %s", i, got, w)
		}
	}
	// Idempotent: second run changes nothing.
	changed, err = d.Propagate("orders", "cidfk", "customer", "custid")
	if err != nil || changed != 0 {
		t.Errorf("second propagate changed %d (%v)", changed, err)
	}
}

// An original key held by two referenced rows resolves to the first, in
// row order.
func TestPropagateDuplicateKeyResolvesToFirstRow(t *testing.T) {
	d := figure2DB(t, false)
	cust, _ := d.Store.Table("customer")
	if err := cust.UpdateColumn(3, "custid", value.Str("m3")); err != nil { // c2's rows both hold m3
		t.Fatal(err)
	}
	if err := cust.UpdateColumn(2, "id", value.Str("c9")); err != nil { // the first of them is c9
		t.Fatal(err)
	}
	if _, err := d.Propagate("orders", "cidfk", "customer", "custid"); err != nil {
		t.Fatal(err)
	}
	ord, _ := d.Store.Table("orders")
	if got := ord.Row(2)[2].AsString(); got != "c9" {
		t.Errorf("m3 propagated to %s, want c9 (the first row holding m3)", got)
	}
}

func TestPropagateAll(t *testing.T) {
	d := figure2DB(t, false)
	total, err := d.PropagateAll()
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 {
		t.Errorf("PropagateAll changed %d, want 3", total)
	}
}

func TestPropagateDanglingAndErrors(t *testing.T) {
	d := figure2DB(t, false)
	ord, _ := d.Store.Table("orders")
	// Point one FK at a missing key.
	if err := ord.UpdateColumn(0, "cidfk", value.Str("ghost")); err != nil {
		t.Fatal(err)
	}
	changed, err := d.Propagate("orders", "cidfk", "customer", "custid")
	if err != nil {
		t.Fatal(err)
	}
	if changed != 2 {
		t.Errorf("dangling FK should be skipped: changed = %d", changed)
	}
	if ord.Row(0)[2].AsString() != "ghost" {
		t.Error("dangling FK value should be untouched")
	}

	if _, err := d.Propagate("ghost", "x", "customer", "custid"); err == nil {
		t.Error("unknown relation")
	}
	if _, err := d.Propagate("orders", "ghost", "customer", "custid"); err == nil {
		t.Error("unknown fk column")
	}
	if _, err := d.Propagate("orders", "cidfk", "ghost", "custid"); err == nil {
		t.Error("unknown ref table")
	}
	if _, err := d.Propagate("orders", "cidfk", "customer", "ghost"); err == nil {
		t.Error("unknown ref column")
	}
}

func TestCleanByBestTuple(t *testing.T) {
	d := figure2DB(t, true)
	clean, err := d.CleanByBestTuple()
	if err != nil {
		t.Fatal(err)
	}
	cust, _ := clean.Table("customer")
	if cust.Len() != 2 {
		t.Fatalf("cleaned customer rows = %d, want 2", cust.Len())
	}
	// Winners: John@20K (0.7) and Marion (0.8).
	got := map[string]string{}
	for _, r := range cust.Rows() {
		got[r[0].AsString()] = r[1].AsString()
	}
	if got["c1"] != "m1" || got["c2"] != "m4" {
		t.Errorf("best tuples = %v, want c1->m1, c2->m4", got)
	}
	ord, _ := clean.Table("orders")
	if ord.Len() != 2 {
		t.Errorf("cleaned order rows = %d, want 2", ord.Len())
	}
	// The source database is untouched.
	src, _ := d.Store.Table("customer")
	if src.Len() != 4 {
		t.Error("CleanByBestTuple must not mutate the source")
	}
}

func TestCleanByBestTupleKeepsCleanRelations(t *testing.T) {
	d := figure2DB(t, true)
	nS := schema.MustRelation("nation", schema.Column{Name: "name", Type: value.KindString})
	n := d.Store.MustCreateTable(nS)
	n.MustInsert(value.Str("CANADA"))
	clean, err := d.CleanByBestTuple()
	if err != nil {
		t.Fatal(err)
	}
	nt, _ := clean.Table("nation")
	if nt.Len() != 1 {
		t.Error("clean relations should be copied unchanged")
	}
}

func TestCleanByBestTupleRequiresProbabilities(t *testing.T) {
	d := figure2DB(t, true)
	cust, _ := d.Store.Table("customer")
	if err := cust.UpdateColumn(0, "prob", value.Null()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CleanByBestTuple(); err == nil {
		t.Error("NULL probability should fail")
	}
}

func TestMostLikelyCandidate(t *testing.T) {
	d := figure2DB(t, true)
	c, err := d.MostLikelyCandidate()
	if err != nil {
		t.Fatal(err)
	}
	// Winners' probabilities: orders 1 * 0.5, customer 0.7 * 0.8 = 0.28.
	want := 1 * 0.5 * 0.7 * 0.8
	if math.Abs(c.Prob-want) > 1e-9 {
		t.Errorf("P(best candidate) = %v, want %v", c.Prob, want)
	}
	// Chosen rows match the per-cluster winners.
	if c.Chosen["customer"][0] != 0 || c.Chosen["customer"][1] != 3 {
		t.Errorf("customer winners: %v", c.Chosen["customer"])
	}
	// Even the most likely single candidate covers under a third of the
	// probability mass — the paper's argument against committing to one.
	if c.Prob >= 0.5 {
		t.Errorf("best candidate mass %v unexpectedly dominant", c.Prob)
	}
}

func TestUncertaintyBits(t *testing.T) {
	d := figure2DB(t, true)
	got, err := d.UncertaintyBits()
	if err != nil {
		t.Fatal(err)
	}
	// H(0.7,0.3) + H(0.2,0.8) + H(1) + H(0.5,0.5)
	h := func(ps ...float64) float64 {
		s := 0.0
		for _, p := range ps {
			if p > 0 {
				s -= p * math.Log2(p)
			}
		}
		return s
	}
	want := h(0.7, 0.3) + h(0.2, 0.8) + h(1) + h(0.5, 0.5)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("uncertainty = %v bits, want %v", got, want)
	}
	// A clean database is certain.
	store := storage.NewDB()
	s := schema.MustRelation("t", schema.Column{Name: "a", Type: value.KindInt})
	if err := s.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	tb := store.MustCreateTable(s)
	tb.MustInsert(value.Int(1), value.Str("c1"), value.Float(1))
	clean := New(store)
	if got, err := clean.UncertaintyBits(); err != nil || got != 0 {
		t.Errorf("clean database uncertainty = %v (%v), want 0", got, err)
	}
	// Missing probabilities error.
	if err := tb.UpdateColumn(0, "prob", value.Null()); err != nil {
		t.Fatal(err)
	}
	if _, err := clean.UncertaintyBits(); err == nil {
		t.Error("NULL probability should fail")
	}
}
