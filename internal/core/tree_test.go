package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"conquer/internal/dirty"
	"conquer/internal/exec"
	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// threeLevelDB builds a random dirty database shaped like the deeper join
// trees of the TPC-H workload:
//
//	grandchild --fk--> child --fk--> parent
//	     \------fk--------------\--> side        (branching at child)
//
// so Theorem 1 gets exercised on chains and branches, not just a single
// foreign key.
func threeLevelDB(rng *rand.Rand, maxDup int) *dirty.DB {
	store := storage.NewDB()
	mk := func(name string, extra ...schema.Column) *storage.Table {
		cols := append([]schema.Column{
			{Name: "id", Type: value.KindString},
			{Name: "attr", Type: value.KindInt},
		}, extra...)
		rel := schema.MustRelation(name, cols...)
		if err := rel.SetDirty("id", "prob"); err != nil {
			panic(err)
		}
		return store.MustCreateTable(rel)
	}
	fill := func(tb *storage.Table, prefix string, nClusters int, mkRow func(cluster int) []value.Value) []string {
		var ids []string
		for c := 0; c < nClusters; c++ {
			id := fmt.Sprintf("%s%d", prefix, c)
			ids = append(ids, id)
			n := 1 + rng.Intn(maxDup)
			probs := randomProbs(rng, n)
			for j := 0; j < n; j++ {
				row := []value.Value{value.Str(id), value.Int(int64(rng.Intn(8)))}
				row = append(row, mkRow(c)...)
				row = append(row, value.Float(probs[j]))
				tb.MustInsert(row...)
			}
		}
		return ids
	}

	parent := mk("parent")
	side := mk("side")
	child := mk("child", schema.Column{Name: "pfk", Type: value.KindString}, schema.Column{Name: "sfk", Type: value.KindString})
	grand := mk("grand", schema.Column{Name: "cfk", Type: value.KindString})

	pIDs := fill(parent, "p", 2, func(int) []value.Value { return nil })
	sIDs := fill(side, "s", 2, func(int) []value.Value { return nil })
	cIDs := fill(child, "c", 2, func(int) []value.Value {
		return []value.Value{
			value.Str(pIDs[rng.Intn(len(pIDs))]),
			value.Str(sIDs[rng.Intn(len(sIDs))]),
		}
	})
	fill(grand, "g", 2, func(int) []value.Value {
		return []value.Value{value.Str(cIDs[rng.Intn(len(cIDs))])}
	})
	return dirty.New(store)
}

// Theorem 1 on chains and branching trees: the rewriting matches exact
// enumeration for every tree-shaped query over the three-level schema.
func TestTheorem1DeepTrees(t *testing.T) {
	queries := []string{
		// Chain of three.
		"select g.id from grand g, child c, parent p where g.cfk = c.id and c.pfk = p.id and p.attr > 3",
		// Full tree: chain plus a branch at child.
		"select g.id, c.id from grand g, child c, parent p, side s where g.cfk = c.id and c.pfk = p.id and c.sfk = s.id and s.attr > 2 and g.attr < 6",
		// Branch only.
		"select c.id, p.id, s.id from child c, parent p, side s where c.pfk = p.id and c.sfk = s.id",
	}
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 8; trial++ {
		d := threeLevelDB(rng, 2)
		if err := d.Validate(); err != nil {
			t.Fatalf("trial %d fixture: %v", trial, err)
		}
		for _, qs := range queries {
			q := sqlparse.MustParse(qs)
			exact, err := ExactCtx(context.Background(), d, q, exec.Limits{})
			if err != nil {
				t.Fatalf("trial %d exact %q: %v", trial, qs, err)
			}
			rw, err := ViaRewritingCtx(context.Background(), d, q, exec.Limits{})
			if err != nil {
				t.Fatalf("trial %d rewrite %q: %v", trial, qs, err)
			}
			if !exact.Equal(rw, 1e-9) {
				t.Errorf("trial %d query %q:\nexact:   %v\nrewrite: %v",
					trial, qs, exact.Answers, rw.Answers)
			}
		}
	}
}

// The augmented rewriting also matches exact enumeration on deep trees
// when condition 4 is the only violation.
func TestAugmentedRewritingDeepTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	d := threeLevelDB(rng, 2)
	// Projects only the leaf: grand's identifier (the root) is missing.
	q := sqlparse.MustParse(
		"select p.id from grand g, child c, parent p where g.cfk = c.id and c.pfk = p.id and g.attr < 5")
	if _, err := ViaRewritingCtx(context.Background(), d, q, exec.Limits{}); err == nil {
		t.Fatal("plain rewriting must reject the query")
	}
	augQ := sqlparse.MustParse(
		"select g.id, p.id from grand g, child c, parent p where g.cfk = c.id and c.pfk = p.id and g.attr < 5")
	exact, err := ExactCtx(context.Background(), d, augQ, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	rw, err := ViaRewritingCtx(context.Background(), d, augQ, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Equal(rw, 1e-9) {
		t.Errorf("augmented deep-tree mismatch:\nexact %v\nrewrite %v", exact.Answers, rw.Answers)
	}
}
