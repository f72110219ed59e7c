package tpch_test

import (
	"context"
	"math"
	"testing"

	"conquer/internal/core"
	"conquer/internal/engine"
	"conquer/internal/probcalc"
	"conquer/internal/sqlparse"
	"conquer/internal/tpch"
	"conquer/internal/uisgen"
)

// The complete offline pipeline of the paper, end to end on raw generated
// data: start from the pre-processing state (foreign keys referencing
// original rowkeys, no probabilities), run identifier propagation (§2.1)
// and probability computation (§4) over every relation, then answer the
// evaluation queries with the rewriting (§3). This is the Figure-7
// pipeline feeding the Figure-8 workload.
func TestFullOfflinePipeline(t *testing.T) {
	d, err := uisgen.Generate(uisgen.Config{
		SF: 1, IF: 3, Scale: 0.0003, Seed: 11,
		Propagated: false, UniformProbs: false,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Stage 1 — identifier propagation.
	changed, err := d.PropagateAll()
	if err != nil {
		t.Fatal(err)
	}
	if changed == 0 {
		t.Fatal("propagation had nothing to do; generator state wrong")
	}

	// Stage 2 — §4 probability computation on every dirty relation.
	if err := probcalc.AnnotateAllParCtx(context.Background(), d.Store, nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("annotated database must validate as a dirty database: %v", err)
	}

	// Stage 3 — the thirteen queries answer cleanly.
	nonEmpty := 0
	for _, q := range tpch.All() {
		res, err := core.Evaluator{DB: d, Engine: engine.New(d.Store)}.Eval(context.Background(), sqlparse.MustParse(q.SQL), core.EvalOptions{Method: core.MethodRewrite})
		if err != nil {
			t.Fatalf("Q%d: %v", q.Number, err)
		}
		for _, a := range res.Answers {
			if a.Prob < -1e-9 || a.Prob > 1+1e-9 {
				t.Errorf("Q%d: probability %v out of range", q.Number, a.Prob)
			}
		}
		if res.Len() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 8 {
		t.Errorf("only %d of 13 queries answered; pipeline output degenerate", nonEmpty)
	}

	// The §4 probabilities are non-trivial: at least some duplicate
	// cluster deviates from the uniform distribution (duplicates are
	// perturbed copies, so members differ in their distances).
	li, _ := d.Store.Table("lineitem")
	clusters, err := d.Clusters("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	probIdx := li.Schema.ProbIndex()
	nonUniform := false
	for _, c := range clusters {
		if len(c.Rows) < 2 {
			continue
		}
		u := 1 / float64(len(c.Rows))
		for _, ri := range c.Rows {
			if math.Abs(li.Row(ri)[probIdx].AsFloat()-u) > 1e-6 {
				nonUniform = true
				break
			}
		}
		if nonUniform {
			break
		}
	}
	if !nonUniform {
		t.Error("every cluster ended up uniform; the information-loss distances did nothing")
	}
}
