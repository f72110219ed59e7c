package tpch_test

import (
	"context"
	"testing"

	"conquer/internal/core"
	"conquer/internal/engine"
	"conquer/internal/rewrite"
	"conquer/internal/sqlparse"
	"conquer/internal/tpch"
	"conquer/internal/uisgen"
)

func TestCatalogValid(t *testing.T) {
	cat := tpch.Catalog()
	for _, name := range tpch.Tables {
		rel, ok := cat.Relation(name)
		if !ok {
			t.Fatalf("missing relation %s", name)
		}
		for _, fk := range rel.ForeignKeys {
			if _, ok := cat.Relation(fk.RefTable); !ok {
				t.Errorf("%s.%s references unknown relation %q", name, fk.Column, fk.RefTable)
			}
		}
		if !rel.IsDirty() {
			t.Errorf("%s should be dirty", name)
		}
		if rel.IdentifierIndex() < 0 || rel.ProbIndex() < 0 {
			t.Errorf("%s dirty columns missing", name)
		}
	}
}

func TestAllThirteenQueriesParse(t *testing.T) {
	qs := tpch.All()
	if len(qs) != 13 {
		t.Fatalf("queries = %d, want 13", len(qs))
	}
	for _, q := range qs {
		if _, err := sqlparse.Parse(q.SQL); err != nil {
			t.Errorf("Q%d does not parse: %v", q.Number, err)
		}
	}
}

func TestGetUnknownQuery(t *testing.T) {
	if _, err := tpch.Get(5); err == nil {
		t.Error("Q5 is not in the evaluation set")
	}
}

// Every evaluation query must be in the paper's rewritable class; this is
// the precondition for the whole Figure 8-10 methodology.
func TestAllQueriesRewritable(t *testing.T) {
	cat := tpch.Catalog()
	for _, q := range tpch.All() {
		stmt := sqlparse.MustParse(q.SQL)
		a, err := rewrite.Analyze(cat, stmt)
		if err != nil {
			t.Fatalf("Q%d analyze: %v", q.Number, err)
		}
		if !a.Rewritable {
			t.Errorf("Q%d not rewritable: %v", q.Number, a.Reasons)
		}
	}
}

// Join counts match the declared metadata (the paper reports "from one to
// six joins"; our SPJ forms have 0-5 equality join conjuncts, Q9's
// composite partsupp join being fused into one).
func TestJoinCounts(t *testing.T) {
	cat := tpch.Catalog()
	for _, q := range tpch.All() {
		a, err := rewrite.Analyze(cat, sqlparse.MustParse(q.SQL))
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Edges) != q.Joins {
			t.Errorf("Q%d: %d join edges, metadata says %d", q.Number, len(a.Edges), q.Joins)
		}
	}
}

// Original and rewritten queries both execute on generated data, and the
// rewriting agrees with the original query's support: every clean answer's
// tuple appears in the original result and vice versa.
func TestQueriesExecuteOnGeneratedData(t *testing.T) {
	d, err := uisgen.Generate(uisgen.Config{
		SF: 1, IF: 3, Scale: 0.001, Seed: 42, Propagated: true, UniformProbs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(d.Store)
	ev := core.Evaluator{DB: d, Engine: eng}
	nonEmpty := 0
	for _, q := range tpch.All() {
		stmt := sqlparse.MustParse(q.SQL)
		orig, err := eng.QueryStmt(stmt)
		if err != nil {
			t.Fatalf("Q%d original: %v", q.Number, err)
		}
		res, err := ev.Eval(context.Background(), stmt, core.EvalOptions{Method: core.MethodRewrite})
		if err != nil {
			t.Fatalf("Q%d rewritten: %v", q.Number, err)
		}
		if len(orig.Rows) > 0 {
			nonEmpty++
		}
		// The rewritten query groups the original's rows: group count must
		// not exceed the original row count, and all probabilities must be
		// valid.
		if res.Len() > len(orig.Rows) {
			t.Errorf("Q%d: %d clean answers from %d original rows", q.Number, res.Len(), len(orig.Rows))
		}
		for _, a := range res.Answers {
			if a.Prob <= 0 || a.Prob > 1+1e-9 {
				t.Errorf("Q%d: probability %v out of range", q.Number, a.Prob)
			}
		}
	}
	// At this scale the broad-selection queries must return rows; allow a
	// couple of the highly selective ones (e.g. Q17's Brand#23 + MED BOX +
	// small quantity) to come up empty.
	if nonEmpty < 10 {
		t.Errorf("only %d of 13 queries returned rows; generator selectivity is off", nonEmpty)
	}
}

// Spot-check correctness against exact candidate enumeration on a tiny
// instance (enumeration is exponential, so clusters must stay few).
func TestRewritingMatchesExactOnTinyInstance(t *testing.T) {
	d, err := uisgen.Generate(uisgen.Config{
		SF: 0.0002, IF: 2, Scale: 0.01, Seed: 7, Propagated: true, UniformProbs: true,
		// Exact enumeration is exponential in multi-tuple clusters; only
		// orders and lineitem stay dirty for this check.
		CleanTables: []string{"region", "nation", "supplier", "customer", "part", "partsupp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	count, err := d.CandidateCount()
	if err != nil {
		t.Fatal(err)
	}
	if !count.IsInt64() || count.Int64() > 1<<22 {
		t.Fatalf("verification instance too large for exact enumeration: %v candidates", count)
	}
	// Use Q4 shape (2 relations) but over the tiny instance.
	q := sqlparse.MustParse(
		"select l.l_id, o.o_orderkey from orders o, lineitem l where l.l_orderkey = o.o_orderkey")
	ev := core.Evaluator{DB: d, Engine: engine.New(d.Store)}
	exact, err := ev.Eval(context.Background(), q, core.EvalOptions{Method: core.MethodExact})
	if err != nil {
		t.Fatal(err)
	}
	rw, err := ev.Eval(context.Background(), q, core.EvalOptions{Method: core.MethodRewrite})
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Equal(rw, 1e-9) {
		t.Errorf("rewriting disagrees with exact enumeration:\nexact %v\nrewrite %v",
			exact.Answers, rw.Answers)
	}
}
