// Package core implements the paper's clean-answer semantics (§2.2,
// Dfn 5): a tuple t is a clean answer to query q over dirty database D
// with probability equal to the total probability of the candidate
// databases on which q yields t.
//
// An Evaluator is a dirty database and the engine its queries run on.
// Evaluator.Eval answers with one of three methods, or with the
// degradation ladder over them, in the order below (eval.go):
//
//   - MethodRewrite applies RewriteClean (§3) and executes the rewritten
//     query once on the dirty database. Exact for rewritable queries
//     (Thm 1) and the paper's actual proposal.
//   - MethodExact enumerates every candidate database (Dfn 3) of the
//     statement's FROM relations and sums the probabilities of those that
//     yield each answer. An SPJ statement runs one lineage query on the
//     dirty database and checks each answer's DNF over the cluster choices
//     on every candidate (lineage.go); any other runs the query on each.
//     Exponential — usable only on small databases, it serves as ground
//     truth for the other two.
//   - MethodMonteCarlo samples candidate databases independently and
//     estimates each answer's probability as its sample frequency. A
//     baseline, and the escape hatch for queries outside the rewritable
//     class. An SPJ statement runs the lineage query and checks each
//     answer's DNF on every sampled candidate; any other runs the query on
//     each.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/qerr"
	"conquer/internal/rewrite"
	"conquer/internal/sqlparse"
	"conquer/internal/value"
)

// Answer is one clean answer: an output tuple and its probability of being
// an answer on the clean database.
type Answer struct {
	Values []value.Value
	Prob   float64
	// StdErr is this answer's estimated standard error: 0 for exact
	// methods; for Monte-Carlo the Wald error sqrt(p̂(1-p̂)/n), capped by
	// the worst-case bound Result.StdErr carries.
	StdErr float64
}

// Method identifies which evaluator produced a Result.
type Method int

// Evaluation methods. The ladder asks Rewrite first and falls through
// Exact to MonteCarlo (Evaluator.Eval). As EvalOptions.Method, MethodNone —
// the zero value — asks for the ladder and any other forces that one
// method.
const (
	MethodNone Method = iota
	MethodExact
	MethodRewrite
	MethodMonteCarlo
)

// String names the method for logs and CLI output.
func (m Method) String() string {
	switch m {
	case MethodExact:
		return "exact"
	case MethodRewrite:
		return "rewrite"
	case MethodMonteCarlo:
		return "monte-carlo"
	default:
		return "none"
	}
}

// Result is a set of clean answers. Answers are kept sorted by row value
// so results from different evaluators compare deterministically.
type Result struct {
	Columns []string
	Answers []Answer

	// Method records which evaluator produced the answers.
	Method Method
	// Samples is the Monte-Carlo sample count (0 for exact methods).
	Samples int
	// StdErr is the worst-case bound on the standard error of any
	// probability: 0 for exact methods, 1/(2*sqrt(n)) for Monte-Carlo
	// with n samples. Each Answer.StdErr carries the (tighter) per-answer
	// Wald error.
	StdErr float64
	// Degraded is the degradation chain: one entry per ladder rung Eval
	// abandoned before Method succeeded (empty when the rewriting, the
	// first rung, answered).
	Degraded []Degradation
	// Elapsed is the wall time of the whole evaluation (the full ladder,
	// for Eval). For a cached result it is the cache-lookup latency.
	Elapsed time.Duration
	// Cached reports that the result was served from the engine's cache
	// rather than recomputed; Method, Samples and StdErr describe the
	// original computation.
	Cached bool
	// Stats aggregates engine-level accounting over every SQL query the
	// evaluation ran.
	Stats EvalStats
}

// Degradation records one abandoned rung of the evaluation ladder: the
// method that was ruled out and the one-word reason (a qerr.Reason
// keyword such as "budget" or "candidates", or "not-rewritable").
type Degradation struct {
	Method Method
	Reason string
}

// String renders the entry as "method(reason)" for logs and CLI output.
func (d Degradation) String() string { return d.Method.String() + "(" + d.Reason + ")" }

// EvalStats aggregates engine-level accounting across the SQL queries an
// evaluation executed (DESIGN.md §10).
type EvalStats struct {
	// Queries is how many SQL queries ran: one for the rewriting and for
	// exact and Monte-Carlo over an SPJ statement (its lineage query), one
	// per candidate database for exact and Monte-Carlo over any other —
	// plus one when a lineage query failed and the candidates answered.
	Queries int
	// BufferedPeak is the largest buffered-row high-water mark any of
	// those queries reached.
	BufferedPeak int64
}

// note absorbs one engine result into the running totals.
func (s *EvalStats) note(qres *engine.Result) {
	s.Queries++
	if qres.Stats.BufferedPeak > s.BufferedPeak {
		s.BufferedPeak = qres.Stats.BufferedPeak
	}
}

// add counts o's queries into s.
func (s *EvalStats) add(o EvalStats) {
	s.Queries += o.Queries
	s.BufferedPeak = max(s.BufferedPeak, o.BufferedPeak)
}

// Find returns the probability of the answer tuple equal to vals, or 0.
func (r *Result) Find(vals ...value.Value) float64 {
	for _, a := range r.Answers {
		if value.RowsIdentical(a.Values, vals) {
			return a.Prob
		}
	}
	return 0
}

// Len returns the number of answers.
func (r *Result) Len() int { return len(r.Answers) }

func (r *Result) sortAnswers() {
	slices.SortFunc(r.Answers, func(a, b Answer) int {
		return value.CompareRows(a.Values, b.Values)
	})
}

// Equal reports whether two results contain the same answers with
// probabilities within tol of each other.
func (r *Result) Equal(other *Result, tol float64) bool {
	if len(r.Answers) != len(other.Answers) {
		return false
	}
	for i := range r.Answers {
		if !value.RowsIdentical(r.Answers[i].Values, other.Answers[i].Values) {
			return false
		}
		if !value.FloatEq(r.Answers[i].Prob, other.Answers[i].Prob, tol) {
			return false
		}
	}
	return true
}

// answerTable numbers the distinct answer tuples of one evaluation in
// order of first appearance: answer id is answers[id]. first maps a row
// hash to the last answer added with it, and next chains each answer to
// the one added before it with its hash (-1 ends a chain), so an answer
// costs no allocation of its own. Both arms of the candidate loop
// (overHeld) hand out ids into one.
type answerTable struct {
	answers [][]value.Value
	first   map[uint64]int32
	next    []int32
}

// newAnswerTable is a table with room for n answers.
func newAnswerTable(n int) answerTable {
	return answerTable{answers: make([][]value.Value, 0, n), first: make(map[uint64]int32), next: make([]int32, 0, n)}
}

// id returns the id of the answer tuple vals, adding it on its first
// appearance. same is false for vals Identical to an answer's values but
// not the same bits (0.0 and -0.0): the answer keeps the bits it first
// had.
func (t *answerTable) id(vals []value.Value) (id int32, same bool) {
	h := value.HashRow(vals)
	head, ok := t.first[h]
	if !ok {
		head = -1
	}
	for i := head; i >= 0; i = t.next[i] {
		if value.RowsIdentical(t.answers[i], vals) {
			return i, value.RowsSame(t.answers[i], vals)
		}
	}
	id = int32(len(t.answers))
	t.first[h] = id
	t.next = append(t.next, head)
	t.answers = append(t.answers, vals)
	return id, true
}

// answers is the vector for n answers, sized once; nil when there are
// none, as a Result with no answers has always had.
func answers(n int) []Answer {
	if n == 0 {
		return nil
	}
	return make([]Answer, 0, n)
}

// drawFunc visits the candidate databases of one evaluation, whose
// answers have columns cols, in the evaluator's order, stopping at the
// first error visit returns. The Candidate it hands out is overwritten
// between visits. A draw may refuse cols before it visits any candidate
// (EstimateAggregate's refuses a column the answers lack).
type drawFunc func(cs dirty.Candidates, cols []string, visit func(*dirty.Candidate) error) error

// enumerate draws every candidate database, failing with a
// qerr.ErrTooManyCandidates error when there are more than limit.
func enumerate(ctx context.Context, limit int64) drawFunc {
	return func(cs dirty.Candidates, _ []string, visit func(*dirty.Candidate) error) error {
		var visitErr error
		err := cs.Enumerate(ctx, limit, func(c *dirty.Candidate) bool {
			visitErr = visit(c)
			return visitErr == nil
		})
		if err != nil {
			return err
		}
		return visitErr
	}
}

// sample draws n independent candidate databases from seed.
func sample(ctx context.Context, n int, seed int64) drawFunc {
	return func(cs dirty.Candidates, _ []string, visit func(*dirty.Candidate) error) error {
		rng := rand.New(rand.NewSource(seed))
		cand := cs.NewCandidate()
		for i := 0; i < n; i++ {
			if err := qerr.FromContext(ctx); err != nil {
				return err
			}
			cs.Sample(rng, cand)
			if err := visit(cand); err != nil {
				return err
			}
		}
		return nil
	}
}

// heldFunc receives one visited candidate and the ids of the answers it
// holds, each once, into answers, the answer table so far. held is reused
// between calls.
type heldFunc func(c *dirty.Candidate, answers [][]value.Value, held []int32) error

// overHeld is the one candidate loop under exact, Monte-Carlo and
// EstimateAggregate: it hands visit every candidate draw visits with the
// ids of the answers that candidate holds, Q(c) under set semantics. An
// SPJ statement reads them off its lineage: one query holding at most
// worlds worlds' rows, then each answer's DNF checked on the candidate,
// the held ids ascending. Any other statement, one whose lineage
// buildLineage gives up on, and every statement when worlds is 0, reads
// them off the rows of a run on the candidate (overWorlds), in order of
// first appearance, after the failed lineage query if there was one.
// Either way the candidates are draw's and each holds the same answers
// (DESIGN.md §17). It returns the answers' columns and table, and what its
// queries cost.
func (ev Evaluator) overHeld(ctx context.Context, stmt *sqlparse.SelectStmt, cs dirty.Candidates, worlds int64,
	draw drawFunc, visit heldFunc) (cols []string, answers [][]value.Value, stats EvalStats, err error) {
	if worlds > 0 {
		l, spent, err := ev.buildLineage(ctx, stmt, cs, worlds)
		if err == nil {
			held := make([]int32, len(l.answers))
			err = draw(cs, l.cols, func(c *dirty.Candidate) error {
				l.at(c)
				n := 0
				for i := range l.answers {
					if l.holds(i) {
						held[n] = int32(i)
						n++
					}
				}
				return visit(c, l.answers, held[:n])
			})
			return l.cols, l.answers, spent, err
		}
		if !errors.Is(err, errNoLineage) {
			return nil, nil, spent, err
		}
		stats = spent // the retry costs the failed lineage query too
	}
	tab := newAnswerTable(0)
	var held []int32
	var lastIn []int // per answer, the candidate that last held it
	candidates := 0
	cols, run, err := ev.overWorlds(ctx, stmt, cs, draw, func(c *dirty.Candidate, res *engine.Result) error {
		candidates++
		held = held[:0]
		for _, row := range res.Rows {
			id, _ := tab.id(row)
			if int(id) == len(lastIn) {
				lastIn = append(lastIn, 0)
			}
			if lastIn[id] != candidates {
				lastIn[id] = candidates
				held = append(held, id)
			}
		}
		return visit(c, tab.answers, held)
	})
	stats.add(run)
	return cols, tab.answers, stats, err
}

// overWorlds is the candidate loop's per-world arm (overHeld): it runs
// stmt on each candidate of cs, the FROM relations' cluster index, that
// draw visits and hands the result to answer. (The candidates are the FROM
// relations' alone: a relation the statement does not name cannot change
// its answer, and clusters choose independently, so its choices sum out of
// every probability, DESIGN.md §11.) Everything that depends only on the
// statement happens once, here — a world over those relations, the plan
// over that world on an engine with the evaluator's settings (every
// candidate has one row per cluster, so table sizes and with them the plan
// cannot differ between candidates) and the metrics report. A candidate
// costs refilling the world's dirty tables, re-opening the plan under a
// fresh budget, and collecting (DESIGN.md §17).
func (ev Evaluator) overWorlds(ctx context.Context, stmt *sqlparse.SelectStmt, cs dirty.Candidates, draw drawFunc,
	answer func(c *dirty.Candidate, res *engine.Result) error) (cols []string, stats EvalStats, err error) {
	start := time.Now()
	world, err := ev.DB.NewWorld(stmt.Tables())
	if err != nil {
		return nil, stats, err
	}
	prep, err := engine.NewWithOptions(world.Store, ev.rungs()).Prepare(stmt)
	if err != nil {
		return nil, stats, err
	}
	defer func() { stats.Queries, stats.BufferedPeak = prep.Report(ctx, err, time.Since(start)) }()
	err = draw(cs, prep.Columns(), func(c *dirty.Candidate) error {
		if err := world.Fill(ctx, c); err != nil {
			return err
		}
		res, err := prep.Run(ctx)
		if err != nil {
			return err
		}
		return answer(c, res)
	})
	return prep.Columns(), stats, err
}

// overCandidates computes stmt's clean answers over the candidates of cs
// that draw visits, adding weight(c) to the probability of every answer
// candidate c holds (overHeld, which reads an SPJ statement's answers off
// a lineage holding at most worlds worlds' rows). Each answer adds its
// candidates' weights in draw's order, so both arms of the loop give the
// same probabilities, bit for bit. An answer is listed once a visited
// candidate holds it, with probability 0 if only probability-0 candidates
// do.
func (ev Evaluator) overCandidates(ctx context.Context, stmt *sqlparse.SelectStmt, cs dirty.Candidates, worlds int64,
	draw drawFunc, weight func(c *dirty.Candidate) float64) (*Result, error) {
	type tally struct {
		prob float64
		held bool // by some visited candidate
	}
	var tallies []tally
	cols, vals, stats, err := ev.overHeld(ctx, stmt, cs, worlds, draw, func(c *dirty.Candidate, vals [][]value.Value, held []int32) error {
		if n := len(vals); n > len(tallies) {
			tallies = slices.Grow(tallies, n-len(tallies))[:n]
		}
		w := weight(c)
		for _, id := range held {
			tallies[id].prob += w
			tallies[id].held = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := 0
	for _, t := range tallies {
		if t.held {
			n++
		}
	}
	out := &Result{Columns: cols, Answers: answers(n), Stats: stats}
	for id, t := range tallies {
		if t.held {
			out.Answers = append(out.Answers, Answer{Values: vals[id], Prob: t.prob})
		}
	}
	out.sortAnswers()
	return out, nil
}

// probOf weighs a candidate by its probability, as exact does.
func probOf(c *dirty.Candidate) float64 { return c.Prob }

// exact computes clean answers by Dfn 5 over cs, the candidates of the
// FROM relations, enumerating every one. Above limit candidates (0 for
// dirty.EnumerateLimit) it fails with a qerr.ErrTooManyCandidates error
// before any query runs, and databases beyond it need the rewriting or
// Monte-Carlo. The lineage may hold the rows of min(lineageWorlds,
// candidates) worlds: past one world per candidate, running the plan on
// each would scan fewer rows than the lineage query outputs.
func (ev Evaluator) exact(ctx context.Context, stmt *sqlparse.SelectStmt, cs dirty.Candidates, limit int64) (*Result, error) {
	if err := cs.CheckLimit(limit); err != nil {
		return nil, err
	}
	worlds := min(lineageWorlds, cs.Count().Int64()) // CheckLimit bounds the count
	out, err := ev.overCandidates(ctx, stmt, cs, worlds, enumerate(ctx, limit), probOf)
	if err != nil {
		return nil, err
	}
	out.Method = MethodExact
	return out, nil
}

// monteCarlo estimates clean answers from n candidates of cs sampled
// independently from seed. The estimate of each answer's probability is
// its sample frequency; each answer carries its Wald standard error and
// the Result carries the worst-case bound 1/(2*sqrt(n)). The engine's
// MaxSamples (when positive) caps n with a qerr.ErrBudgetExceeded error so
// callers can renegotiate the sample count rather than silently degrading
// accuracy.
func (ev Evaluator) monteCarlo(ctx context.Context, stmt *sqlparse.SelectStmt, cs dirty.Candidates, n int, seed int64) (*Result, error) {
	if budget := ev.rungs().Limits.MaxSamples; budget > 0 && n > budget {
		return nil, fmt.Errorf("core: %d Monte-Carlo samples exceed budget %d: %w", n, budget, qerr.ErrBudgetExceeded)
	}
	w := 1 / float64(n)
	out, err := ev.overCandidates(ctx, stmt, cs, lineageWorlds, sample(ctx, n, seed),
		func(*dirty.Candidate) float64 { return w })
	if err != nil {
		return nil, err
	}
	return estimated(out, n), nil
}

// estimated marks out as the estimate from n samples: the method, the
// sample count and the standard errors.
func estimated(out *Result, n int) *Result {
	out.Method = MethodMonteCarlo
	out.Samples = n
	// The worst-case bound on any answer's standard error (p̂ = 1/2
	// maximizes the Wald variance); per-answer errors below are tighter.
	bound := 1 / (2 * math.Sqrt(float64(n)))
	out.StdErr = bound
	for i := range out.Answers {
		p := out.Answers[i].Prob
		v := p * (1 - p) / float64(n)
		if v < 0 {
			// n additions of 1/n can overshoot 1 by a few ulps, driving the
			// variance epsilon-negative; clamp before the square root.
			v = 0
		}
		se := math.Sqrt(v)
		if se > bound {
			se = bound
		}
		out.Answers[i].StdErr = se
	}
	return out
}

// rewriting computes clean answers with the paper's rewriting: it applies
// RewriteClean and runs the rewritten query once on the dirty database. It
// fails with rewrite.NotRewritableError when the query is outside the
// rewritable class.
func (ev Evaluator) rewriting(ctx context.Context, stmt *sqlparse.SelectStmt) (*Result, error) {
	rw, err := rewrite.RewriteClean(ev.DB.Store.Catalog, stmt)
	if err != nil {
		return nil, err
	}
	return ev.runRewritten(ctx, rw)
}

// runRewritten executes an already rewritten query, whose last output
// column is the clean-answer probability, and packages its rows as
// answers.
func (ev Evaluator) runRewritten(ctx context.Context, rw *sqlparse.SelectStmt) (*Result, error) {
	res, err := engine.NewWithOptions(ev.DB.Store, ev.rungs()).QueryStmtCtx(ctx, rw)
	if err != nil {
		return nil, err
	}
	if len(res.Columns) == 0 {
		return nil, fmt.Errorf("core: rewritten query returned no columns")
	}
	last := len(res.Columns) - 1
	out := &Result{Columns: res.Columns[:last], Answers: answers(len(res.Rows))}
	for _, row := range res.Rows {
		pv := row[last]
		if pv.IsNull() || !pv.IsNumeric() {
			return nil, fmt.Errorf("core: rewritten query produced non-numeric probability %v", pv)
		}
		out.Answers = append(out.Answers, Answer{Values: row[:last], Prob: pv.AsFloat()})
	}
	out.sortAnswers()
	out.Method = MethodRewrite
	out.Stats.note(res)
	return out, nil
}
