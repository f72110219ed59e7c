package bench

import (
	"context"
	"fmt"
	"math"
	"strings"

	"conquer/internal/core"
	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/sqlparse"
	"conquer/internal/uisgen"
	"conquer/internal/value"
)

// VerifyResult is the outcome of one statement's check against ground
// truth.
type VerifyResult struct {
	Query   string
	Answers int
	// MaxDiff is the largest |Δp| between the rewriting and ground truth,
	// ExactDiff the same for MethodExact; 1 when the answer sets differ.
	MaxDiff   float64
	ExactDiff float64
	OK        bool
}

// Verify cross-checks the rewriting on a freshly generated tiny TPC-H
// instance: for a set of representative rewritable queries, the clean
// answers computed by RewriteClean must match Dfn 5 within tol (Theorem 1).
// Ground truth is computed step by step — every candidate database
// materialized and queried by a fresh engine — so that it shares nothing
// with MethodExact, which answers these statements from their lineage and
// is checked against the same truth. It is the end-to-end self-test
// behind `experiments verify`.
func Verify(seed int64, tol float64) ([]VerifyResult, error) {
	// Tiny instance: exact enumeration is exponential in the cluster
	// count, so only customer/orders/lineitem/partsupp carry duplicates
	// (about a dozen multi-tuple clusters) and the rest stays clean.
	d, err := uisgen.Generate(uisgen.Config{
		SF: 0.0002, IF: 2, Scale: 0.01, Seed: seed,
		Propagated: true, UniformProbs: true,
		CleanTables: []string{"region", "nation", "supplier", "part"},
	})
	if err != nil {
		return nil, err
	}
	count, err := d.CandidateCount()
	if err != nil {
		return nil, err
	}
	if !count.IsInt64() || count.Int64() > 1<<22 {
		return nil, fmt.Errorf("bench: verification instance too large (%v candidates)", count)
	}

	queries := []string{
		"select o_orderkey from orders where o_totalprice > 100000",
		"select l.l_id, o.o_orderkey from orders o, lineitem l where l.l_orderkey = o.o_orderkey",
		"select l.l_id, o.o_orderkey, c.c_custkey from customer c, orders o, lineitem l where o.o_custkey = c.c_custkey and l.l_orderkey = o.o_orderkey and l.l_quantity > 10",
		"select ps.ps_id, s.s_name from partsupp ps, supplier s where ps.ps_suppkey = s.s_suppkey",
	}
	ev := core.Evaluator{DB: d, Engine: engine.New(d.Store)}
	var out []VerifyResult
	for _, qs := range queries {
		stmt, err := sqlparse.Parse(qs)
		if err != nil {
			return nil, err
		}
		truth, err := stepByStep(d, stmt)
		if err != nil {
			return nil, fmt.Errorf("ground truth for %q: %w", qs, err)
		}
		exact, err := ev.Eval(context.Background(), stmt, core.EvalOptions{Method: core.MethodExact})
		if err != nil {
			return nil, fmt.Errorf("exact for %q: %w", qs, err)
		}
		rw, err := ev.Eval(context.Background(), stmt, core.EvalOptions{Method: core.MethodRewrite})
		if err != nil {
			return nil, fmt.Errorf("rewriting for %q: %w", qs, err)
		}
		r := VerifyResult{Query: qs, Answers: len(truth), MaxDiff: maxDiff(rw, truth), ExactDiff: maxDiff(exact, truth)}
		r.OK = r.MaxDiff <= tol && r.ExactDiff <= tol
		out = append(out, r)
	}
	return out, nil
}

// stepByStep is Dfn 5 spelled out over d's step-by-step API: every
// candidate database of d enumerated and materialized, stmt run on each by
// a fresh engine, and each candidate's distinct answers weighted by its
// probability.
func stepByStep(d *dirty.DB, stmt *sqlparse.SelectStmt) ([]core.Answer, error) {
	cs, err := d.Candidates()
	if err != nil {
		return nil, err
	}
	var out []core.Answer
	var runErr error
	ctx := context.Background()
	err = cs.Enumerate(ctx, 0, func(c *dirty.Candidate) bool {
		world, err := d.MaterializeCtx(ctx, c)
		if err == nil {
			var res *engine.Result
			if res, err = engine.New(world).QueryStmt(stmt); err == nil {
				seen := make(map[int]bool) // a candidate holds an answer once
				for _, row := range res.Rows {
					i := answerIndex(out, row)
					if i < 0 {
						i = len(out)
						out = append(out, core.Answer{Values: row})
					}
					if !seen[i] {
						seen[i] = true
						out[i].Prob += c.Prob
					}
				}
			}
		}
		runErr = err
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return out, runErr
}

// answerIndex is the index of the answer holding vals, or -1.
func answerIndex(answers []core.Answer, vals []value.Value) int {
	for i, a := range answers {
		if value.RowsIdentical(a.Values, vals) {
			return i
		}
	}
	return -1
}

// maxDiff is the largest |Δp| between res and truth over their answers,
// or 1 when the two list different answers.
func maxDiff(res *core.Result, truth []core.Answer) float64 {
	if res.Len() != len(truth) {
		return 1
	}
	worst := 0.0
	for _, a := range res.Answers {
		i := answerIndex(truth, a.Values)
		if i < 0 {
			return 1
		}
		worst = max(worst, math.Abs(a.Prob-truth[i].Prob))
	}
	return worst
}

// FormatVerify renders the verification report.
func FormatVerify(results []VerifyResult) string {
	var b strings.Builder
	b.WriteString("Theorem 1 verification — rewriting and exact vs step-by-step candidate enumeration\n")
	allOK := true
	for _, r := range results {
		status := "OK "
		if !r.OK {
			status = "FAIL"
			allOK = false
		}
		q := r.Query
		if len(q) > 70 {
			q = q[:67] + "..."
		}
		fmt.Fprintf(&b, "[%s] %3d answers  max |Δp| rewriting %.2e, exact %.2e  %s\n", status, r.Answers, r.MaxDiff, r.ExactDiff, q)
	}
	if allOK {
		b.WriteString("all queries agree: the rewriting computes exact clean answers\n")
	}
	return b.String()
}
