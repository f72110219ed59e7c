package bench

import (
	"context"
	"fmt"
	"strings"

	"conquer/internal/core"
	"conquer/internal/engine"
	"conquer/internal/sqlparse"
	"conquer/internal/uisgen"
)

// VerifyResult is the outcome of one rewriting-vs-ground-truth check.
type VerifyResult struct {
	Query   string
	Answers int
	MaxDiff float64
	OK      bool
}

// Verify cross-checks the rewriting on a freshly generated tiny TPC-H
// instance: for a set of representative rewritable queries, the clean
// answers computed by RewriteClean must match exact candidate enumeration
// (Theorem 1) within tol. It is the end-to-end self-test behind
// `experiments verify`.
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
		exact, err := ev.Eval(context.Background(), stmt, core.EvalOptions{Method: core.MethodExact})
		if err != nil {
			return nil, fmt.Errorf("exact for %q: %w", qs, err)
		}
		rw, err := ev.Eval(context.Background(), stmt, core.EvalOptions{Method: core.MethodRewrite})
		if err != nil {
			return nil, fmt.Errorf("rewriting for %q: %w", qs, err)
		}
		r := VerifyResult{Query: qs, Answers: exact.Len()}
		if exact.Len() != rw.Len() {
			r.MaxDiff = 1
		} else {
			for i := range exact.Answers {
				d := exact.Answers[i].Prob - rw.Answers[i].Prob
				if d < 0 {
					d = -d
				}
				if d > r.MaxDiff {
					r.MaxDiff = d
				}
			}
		}
		r.OK = r.MaxDiff <= tol
		out = append(out, r)
	}
	return out, nil
}

// FormatVerify renders the verification report.
func FormatVerify(results []VerifyResult) string {
	var b strings.Builder
	b.WriteString("Theorem 1 verification — rewriting vs exact candidate enumeration\n")
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
		fmt.Fprintf(&b, "[%s] %3d answers  max |Δp| = %.2e  %s\n", status, r.Answers, r.MaxDiff, q)
	}
	if allOK {
		b.WriteString("all queries agree: the rewriting computes exact clean answers\n")
	}
	return b.String()
}
