package dirty

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"conquer/internal/faultinject"
	"conquer/internal/qerr"
	"conquer/internal/schema"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// Each dirty relation's factor of the candidate count is remembered at its
// table's version: repeat calls agree and hand out independent integers,
// any mutation of a dirty relation recounts, and concurrent callers are
// safe.
func TestCandidateCountMemo(t *testing.T) {
	d := figure2DB(t, true)
	first, err := d.CandidateCount()
	if err != nil {
		t.Fatal(err)
	}
	first.Mul(first, big.NewInt(1000)) // a caller scribbling on its copy
	if n, _ := d.CandidateCount(); n.Int64() != 8 {
		t.Fatalf("second call = %v, want 8", n)
	}
	cust, _ := d.Store.Table("customer")
	cust.MustInsert(value.Str("c2"), value.Str("m5"), value.Str("Mario"), value.Float(1), value.Float(0))
	if n, _ := d.CandidateCount(); n.Int64() != 12 {
		t.Fatalf("after adding a third c2 tuple = %v, want 12", n)
	}
	// A relation that becomes dirty joins the count without any table
	// version moving.
	nS := schema.MustRelation("nation",
		schema.Column{Name: "id", Type: value.KindString},
		schema.Column{Name: "prob", Type: value.KindFloat})
	nt := d.Store.MustCreateTable(nS)
	nt.MustInsert(value.Str("n1"), value.Float(0.5))
	nt.MustInsert(value.Str("n1"), value.Float(0.5))
	if n, _ := d.CandidateCount(); n.Int64() != 12 {
		t.Fatalf("a clean relation changed the count to %v", n)
	}
	if err := nS.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	if n, _ := d.CandidateCount(); n.Int64() != 24 {
		t.Fatalf("after nation became dirty = %v, want 24", n)
	}
	// Errors are not remembered.
	nt.MustInsert(value.Null(), value.Float(1))
	if _, err := d.CandidateCount(); !errors.Is(err, qerr.ErrBadModel) {
		t.Fatalf("NULL identifier: %v, want ErrBadModel", err)
	}

	d = figure2DB(t, true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g == 0 && i%10 == 0 {
					tb, _ := d.Store.Table("orders")
					_ = tb.UpdateColumn(0, "quantity", value.Int(int64(i)))
				}
				if n, err := d.CandidateCount(); err != nil || n.Int64() != 8 {
					t.Errorf("concurrent count = %v, %v", n, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// The index and the count over a list of relations cover the dirty
// relations among them, each once, in the order first named; an insert
// re-clusters the relation it went into and no other.
func TestCandidatesOfNamedRelations(t *testing.T) {
	d := figure2DB(t, true)
	nS := schema.MustRelation("nation", schema.Column{Name: "name", Type: value.KindString})
	d.Store.MustCreateTable(nS).MustInsert(value.Str("CANADA"))
	for _, c := range []struct {
		rels []string
		want int64
		idx  string // the index's relations, in order
	}{
		{nil, 1, ""},
		{[]string{"nation", "ghost"}, 1, ""},
		{[]string{"customer"}, 4, "customer"},
		{[]string{"orders", "nation"}, 2, "orders"},
		{[]string{"orders", "CUSTOMER", "orders", "customer"}, 8, "orders,customer"},
		{d.Store.TableNames(), 8, "customer,orders"},
	} {
		n, err := d.CandidateCountOf(c.rels)
		if err != nil || n.Int64() != c.want {
			t.Errorf("CandidateCountOf(%v) = %v, %v; want %d", c.rels, n, err, c.want)
		}
		cs, err := d.CandidatesOf(c.rels)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, rc := range cs {
			names = append(names, rc.rel)
		}
		if got := strings.Join(names, ","); got != c.idx || cs.Count().Int64() != c.want {
			t.Errorf("CandidatesOf(%v) indexes %q with %v candidates; want %q with %d", c.rels, got, cs.Count(), c.idx, c.want)
		}
		if cand := cs.NewCandidate(); len(cand.Chosen) != len(cs) {
			t.Errorf("a candidate of %v chooses in %d relations, want %d", c.rels, len(cand.Chosen), len(cs))
		}
	}

	cust, _ := d.Store.Table("customer")
	ord, _ := d.Store.Table("orders")
	before := d.factors[ord]
	cust.MustInsert(value.Str("c2"), value.Str("m5"), value.Str("Mario"), value.Float(1), value.Float(0))
	if n, _ := d.CandidateCount(); n.Int64() != 12 {
		t.Fatalf("after adding a third c2 tuple = %v, want 12", n)
	}
	if after := d.factors[ord]; after.count != before.count || after.version != ord.Version() {
		t.Errorf("an insert into customer recounted orders: %+v, was %+v", after, before)
	}
	if f := d.factors[cust]; f.version != cust.Version() || f.count.Int64() != 6 {
		t.Errorf("customer's factor after the insert = %+v, want 6 at version %d", f, cust.Version())
	}
}

// The over-limit error keeps its text, and the count in it comes from the
// index the enumeration builds.
func TestEnumerateLimitMessage(t *testing.T) {
	d := figure2DB(t, true)
	err := d.EnumerateCandidates(4, func(*Candidate) bool { return true })
	if !errors.Is(err, qerr.ErrTooManyCandidates) ||
		!strings.Contains(err.Error(), "dirty: 8 candidate databases exceed enumeration limit 4") {
		t.Fatalf("error = %v", err)
	}
}

// One index serves counting, enumeration and sampling, and draws what the
// one-shot entry points draw.
func TestCandidatesIndexMatchesOneShotCalls(t *testing.T) {
	d := figure2DB(t, true)
	cs, err := d.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Count().Int64() != 8 {
		t.Fatalf("Count = %v", cs.Count())
	}
	a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	reused := cs.NewCandidate()
	for i := 0; i < 100; i++ {
		want, err := d.Sample(a)
		if err != nil {
			t.Fatal(err)
		}
		cs.Sample(b, reused)
		if want.Prob != reused.Prob {
			t.Fatalf("sample %d: Prob %v, want %v", i, reused.Prob, want.Prob)
		}
		for rel, chosen := range want.Chosen {
			for k, row := range chosen {
				if reused.Chosen[rel][k] != row {
					t.Fatalf("sample %d: %s cluster %d chose row %d, want %d", i, rel, k, reused.Chosen[rel][k], row)
				}
			}
		}
	}
}

// A world holds only the relations asked for: dirty ones as tables of its
// own that Fill overwrites in place, clean ones as the source's tables.
func TestWorldFillsInPlace(t *testing.T) {
	d := figure2DB(t, true)
	nS := schema.MustRelation("nation", schema.Column{Name: "name", Type: value.KindString})
	nation := d.Store.MustCreateTable(nS)
	nation.MustInsert(value.Str("CANADA"))

	w, err := d.NewWorld([]string{"customer", "nation", "CUSTOMER", "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if names := w.Store.TableNames(); len(names) != 2 {
		t.Fatalf("world tables = %v, want customer and nation", names)
	}
	if got, _ := w.Store.Table("nation"); got != nation {
		t.Error("a clean relation should be the source's own table")
	}
	cust, _ := w.Store.Table("customer")
	src, _ := d.Store.Table("customer")
	if cust == src {
		t.Fatal("a dirty relation needs a table of its own")
	}
	// Shard views follow the tables: the world's dirty table starts with
	// none of the source's, the shared clean table keeps the one it has.
	srcView, nationView := src.Sharded(2), nation.Sharded(2)
	if v := cust.Sharded(2); v == srcView || v.Base() != cust {
		t.Error("a world's dirty table must not inherit the source's shard view")
	}
	if got, _ := w.Store.Table("nation"); got.Sharded(2) != nationView {
		t.Error("a clean relation should keep its shard view inside a world")
	}
	seen := map[string]bool{}
	err = d.EnumerateCandidates(0, func(c *Candidate) bool {
		v := cust.Version()
		if err := w.Fill(context.Background(), c); err != nil {
			t.Fatal(err)
		}
		if cust.Len() != 2 || cust.Version() == v {
			t.Fatalf("after Fill: %d rows, version %d -> %d", cust.Len(), v, cust.Version())
		}
		for k, rowIdx := range c.Chosen["customer"] {
			if &cust.Row(k)[0] != &src.Row(rowIdx)[0] {
				t.Fatalf("cluster %d holds %v, want source row %d", k, cust.Row(k), rowIdx)
			}
		}
		seen[cust.Row(0)[1].AsString()+cust.Row(1)[1].AsString()] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Errorf("customer took %d distinct shapes over 8 candidates, want 4", len(seen))
	}
	if src.Len() != 4 {
		t.Errorf("the source relation changed: %d rows", src.Len())
	}
}

// Fill stops at a canceled context and reports an injected insert fault
// wrapped.
func TestWorldFillFailures(t *testing.T) {
	d := figure2DB(t, true)
	c, err := d.MostLikelyCandidate()
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.NewWorld(d.Store.TableNames())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := w.Fill(ctx, c); !errors.Is(err, qerr.ErrCanceled) {
		t.Errorf("Fill under a canceled context: %v", err)
	}

	boom := errors.New("boom")
	d.Store.SetInjector(faultinject.FailNth("", storage.OpInsert, 1, boom))
	w, err = d.NewWorld(d.Store.TableNames())
	if err != nil {
		t.Fatal(err)
	}
	err = w.Fill(context.Background(), c)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "inserting into customer") {
		t.Errorf("Fill under an insert fault: %v", err)
	}
}
