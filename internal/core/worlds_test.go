package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	_ "unsafe" // go:linkname

	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/exec"
	"conquer/internal/rewrite"
	"conquer/internal/sqlparse"
	"conquer/internal/testdb"
	"conquer/internal/uisgen"
	"conquer/internal/value"
)

// The oracle: the evaluators as they were before the shared candidate
// loop, written out over the public step-by-step API — enumerate or
// sample, materialize a database per candidate, a fresh engine on it,
// deduplicate, accumulate.
//
// The exact oracle enumerates the candidates of the *whole* database,
// whatever the statement names; ExactCtx enumerates the FROM relations'
// alone, checking an SPJ statement's lineage DNFs on each candidate or
// running the statement on it. That the two agree (within
// value.ProbEpsilon: the sums run in different orders) on every statement
// below is the marginalization claim Evaluator.Eval's cache scope and rung
// selection rest on (DESIGN.md §11): the clusters of a relation the
// statement does not read sum out. The
// Monte-Carlo oracle draws from the FROM relations' index, as
// MonteCarloCtx does, and MonteCarloCtx must reproduce it bit for bit,
// whether it checks lineage DNFs or runs on the worlds.

// distinctRows deduplicates a query result into set semantics (a candidate
// database contributes an answer once, however many derivations it has),
// with a fresh table per candidate.
func distinctRows(rows [][]value.Value) [][]value.Value {
	seen := make(map[uint64][][]value.Value)
	var out [][]value.Value
	for _, row := range rows {
		h := value.HashRow(row)
		dup := false
		for _, prev := range seen[h] {
			if value.RowsIdentical(prev, row) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen[h] = append(seen[h], row)
		out = append(out, row)
	}
	return out
}

type oracleAcc struct {
	byHash map[uint64][]int
	rows   [][]value.Value
	probs  []float64
}

func (acc *oracleAcc) add(row []value.Value, p float64) {
	h := value.HashRow(row)
	for _, i := range acc.byHash[h] {
		if value.RowsIdentical(acc.rows[i], row) {
			acc.probs[i] += p
			return
		}
	}
	acc.byHash[h] = append(acc.byHash[h], len(acc.rows))
	acc.rows = append(acc.rows, row)
	acc.probs = append(acc.probs, p)
}

// oracleWorld answers stmt on candidate c the step-by-step way and folds
// the answers into res with weight p.
func oracleWorld(ctx context.Context, d *dirty.DB, stmt *sqlparse.SelectStmt, c *dirty.Candidate, lim exec.Limits, acc *oracleAcc, res *Result, p float64) error {
	world, err := d.MaterializeCtx(ctx, c)
	if err != nil {
		return err
	}
	qres, err := engine.NewWithLimits(world, lim).QueryStmtCtx(ctx, stmt)
	if err != nil {
		return err
	}
	res.Stats.note(qres)
	res.Columns = qres.Columns
	for _, row := range distinctRows(qres.Rows) {
		acc.add(row, p)
	}
	return nil
}

func (acc *oracleAcc) into(res *Result) *Result {
	for i, row := range acc.rows {
		res.Answers = append(res.Answers, Answer{Values: row, Prob: acc.probs[i]})
	}
	res.sortAnswers()
	return res
}

func oracleExact(ctx context.Context, d *dirty.DB, stmt *sqlparse.SelectStmt, lim exec.Limits) (*Result, error) {
	acc, res := &oracleAcc{byHash: map[uint64][]int{}}, &Result{Method: MethodExact}
	cs, err := d.Candidates()
	if err != nil {
		return nil, err
	}
	var werr error
	err = cs.Enumerate(ctx, lim.MaxCandidates, func(c *dirty.Candidate) bool {
		werr = oracleWorld(ctx, d, stmt, c, lim, acc, res, c.Prob)
		return werr == nil
	})
	if err != nil {
		return nil, err
	}
	if werr != nil {
		return nil, werr
	}
	return acc.into(res), nil
}

func oracleMonteCarlo(ctx context.Context, d *dirty.DB, stmt *sqlparse.SelectStmt, n int, seed int64, lim exec.Limits) (*Result, error) {
	acc, res := &oracleAcc{byHash: map[uint64][]int{}}, &Result{Method: MethodMonteCarlo, Samples: n}
	rng := rand.New(rand.NewSource(seed))
	w := 1 / float64(n)
	cs, err := d.CandidatesOf(stmt.Tables())
	if err != nil {
		return nil, err
	}
	c := cs.NewCandidate()
	for i := 0; i < n; i++ {
		// The materialized database holds no tuple of a dirty relation
		// the statement does not name, and the statement cannot tell.
		cs.Sample(rng, c)
		if err := oracleWorld(ctx, d, stmt, c, lim, acc, res, w); err != nil {
			return nil, err
		}
	}
	acc.into(res)
	res.StdErr = 1 / (2 * math.Sqrt(float64(n)))
	for i := range res.Answers {
		p := res.Answers[i].Prob
		res.Answers[i].StdErr = math.Min(math.Sqrt(math.Max(p*(1-p)/float64(n), 0)), res.StdErr)
	}
	return res, nil
}

// sameResult demands the same answers in the same order; at tol 0 identity,
// not closeness: probabilities and standard errors equal as float64 bit
// patterns. How many queries each side ran, and their buffered peaks, are
// the caller's to check (samePlanRuns).
func sameResult(t *testing.T, label string, want, got *Result, tol float64) {
	t.Helper()
	same := func(a, b float64) bool {
		if tol == 0 {
			return math.Float64bits(a) == math.Float64bits(b)
		}
		return math.Abs(a-b) <= tol
	}
	if strings.Join(want.Columns, ",") != strings.Join(got.Columns, ",") {
		t.Errorf("%s: columns %v, want %v", label, got.Columns, want.Columns)
	}
	if got.Method != want.Method || got.Samples != want.Samples ||
		math.Float64bits(got.StdErr) != math.Float64bits(want.StdErr) {
		t.Errorf("%s: method/samples/stderr = %v/%d/%v, want %v/%d/%v", label,
			got.Method, got.Samples, got.StdErr, want.Method, want.Samples, want.StdErr)
	}
	if len(got.Answers) != len(want.Answers) {
		t.Fatalf("%s: %d answers, want %d\n got: %v\nwant: %v", label, len(got.Answers), len(want.Answers), got.Answers, want.Answers)
	}
	for i, w := range want.Answers {
		g := got.Answers[i]
		if !value.RowsIdentical(g.Values, w.Values) || !same(g.Prob, w.Prob) || !same(g.StdErr, w.StdErr) {
			t.Errorf("%s: answer %d = %v p=%v se=%v, want %v p=%v se=%v", label, i,
				g.Values, g.Prob, g.StdErr, w.Values, w.Prob, w.StdErr)
		}
	}
}

// samePlanRuns demands that got ran as many plans as want, buffering as
// many rows at the peak: the evaluator ran the statement on the worlds the
// step-by-step path did.
func samePlanRuns(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Stats.Queries != want.Stats.Queries || got.Stats.BufferedPeak != want.Stats.BufferedPeak {
		t.Errorf("%s: %d queries, buffered peak %d; step by step %d and %d", label,
			got.Stats.Queries, got.Stats.BufferedPeak, want.Stats.Queries, want.Stats.BufferedPeak)
	}
}

// diffCase is one statement over one database of the differential corpus.
// worlds, when set, pins the candidate count of the FROM relations: how
// many candidates exact visits when it enumerates.
type diffCase struct {
	name   string
	d      *dirty.DB
	sql    string
	worlds int
}

// tinyTPCH is the enumerable uisgen instance the benchmark's ladder
// workload and bench.Verify use: four clean tables, 432 candidates.
func tinyTPCH(t testing.TB) *dirty.DB {
	t.Helper()
	d, err := uisgen.Generate(uisgen.Config{
		SF: 0.0002, IF: 2, Scale: 0.01, Seed: 84002, Propagated: true, UniformProbs: true,
		CleanTables: []string{"region", "nation", "supplier", "part"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fixedCases cover, on the paper's figures and the tiny TPC-H instance:
// joins, DISTINCT, aggregates (integer sums only — float sums depend on
// the worker count, DESIGN.md §9), ORDER BY/LIMIT, worlds with no answer,
// statements whose FROM omits some or all dirty relations (the whole
// databases have 8, 8 and 432 candidates), self-joins (one world table
// under two aliases, its clusters counted once) and statements over clean
// relations alone (one world).
func fixedCases(t testing.TB) []diffCase {
	fig1, fig2, tiny := testdb.Figure1(), testdb.Figure2(), tinyTPCH(t)
	return []diffCase{
		{"fig1.card", fig1, "select l.cardid from loyaltycard l, customer c where l.custfk = c.id and c.income > 100000", 8},
		{"fig1.names", fig1, "select distinct name from customer", 4},
		{"fig2.q3", fig2, "select c.id from orders o, customer c where o.quantity < 5 and o.cidfk = c.id and c.balance > 25000", 8},
		{"fig2.selection", fig2, "select id, balance from customer where balance > 10000", 4},
		{"fig2.sometimes-empty", fig2, "select id from customer where balance > 28000", 4},
		{"fig2.always-empty", fig2, "select id from customer where balance > 99999", 4},
		{"fig2.group", fig2, "select name, count(*) as n, sum(quantity) as q from customer c, orders o where o.cidfk = c.id group by name", 8},
		{"fig2.global-agg", fig2, "select count(*), max(balance) from customer", 4},
		{"fig2.top1", fig2, "select id, balance from customer order by balance desc limit 1", 4},
		{"fig2.orders-only", fig2, "select orderid, quantity from orders where quantity > 2 order by orderid", 2},
		{"fig2.self-join", fig2, "select a.custid, b.custid from customer a, customer b where a.name = b.name and a.id = b.id", 4},
		{"tpch.lineitem-orders", tiny, "select l.l_id, o.o_orderkey from orders o, lineitem l where l.l_orderkey = o.o_orderkey", 0},
		{"tpch.customer-only", tiny, "select c.c_custkey from customer c, orders o where o.o_custkey = c.c_custkey and o.o_totalprice > 100000", 0},
		{"tpch.orders-twice", tiny, "select a.o_orderkey, b.o_totalprice from orders a, orders b where a.o_custkey = b.o_custkey and a.o_totalprice >= b.o_totalprice", 0},
		{"tpch.clean-join", tiny, "select distinct n.n_name from customer c, nation n where c.c_nationkey = n.n_nationkey", 0},
		{"tpch.clean-only", tiny, "select n.n_name, r.r_name from nation n, region r where n.n_regionkey = r.r_regionkey order by n.n_name limit 5", 1},
		{"tpch.one-clean", tiny, "select r_name from region", 1},
	}
}

// generatedCases are n seeded SPJ statements over small random
// two-relation databases: FROM is parent, child or their join; the
// select list is a projection (optionally DISTINCT, optionally ORDER
// BY/LIMIT), a global aggregate or a grouped one; thresholds are drawn so
// that some statements have answers in no world or only in some.
func generatedCases(n int) []diffCase {
	rng := rand.New(rand.NewSource(20060403))
	var out []diffCase
	var d *dirty.DB
	for i := 0; i < n; i++ {
		if i%10 == 0 {
			d = randomDirtyDB(rng, 2+rng.Intn(2), 2+rng.Intn(2), 3)
		}
		var from, where string
		var cols []string
		switch rng.Intn(3) {
		case 0:
			from, cols = "parent a", []string{"a.id", "a.score"}
			where = fmt.Sprintf("a.score > %d", rng.Intn(11))
		case 1:
			from, cols = "child b", []string{"b.id", "b.afk", "b.qty"}
			where = fmt.Sprintf("b.qty < %d", rng.Intn(11))
		default:
			from, cols = "child b, parent a", []string{"a.id", "a.score", "b.id", "b.qty"}
			where = fmt.Sprintf("b.afk = a.id and a.score >= %d and b.qty <= %d", rng.Intn(8), 2+rng.Intn(9))
		}
		rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		cols = cols[:1+rng.Intn(len(cols))]
		var sql string
		switch rng.Intn(5) {
		case 0:
			sql = fmt.Sprintf("select count(*), min(%s), max(%s) from %s where %s", cols[0], cols[0], from, where)
		case 1:
			agg := "count(*)"
			if strings.HasSuffix(cols[len(cols)-1], "qty") || strings.HasSuffix(cols[len(cols)-1], "score") {
				agg = "sum(" + cols[len(cols)-1] + ")"
			}
			sql = fmt.Sprintf("select %s, %s from %s where %s group by %s", cols[0], agg, from, where, cols[0])
		case 2:
			sql = fmt.Sprintf("select distinct %s from %s where %s", strings.Join(cols, ", "), from, where)
		case 3:
			sql = fmt.Sprintf("select %s from %s where %s order by %s desc limit %d",
				strings.Join(cols, ", "), from, where, cols[0], 1+rng.Intn(3))
		default:
			sql = fmt.Sprintf("select %s from %s where %s", strings.Join(cols, ", "), from, where)
		}
		out = append(out, diffCase{name: fmt.Sprintf("gen%03d", i), d: d, sql: sql})
	}
	return out
}

// execPoisonRecycled is internal/exec's test hook poisonRecycled (see the
// root package's recycle_poison_test.go for why it is reached by name).
//
//go:linkname execPoisonRecycled conquer/internal/exec.poisonRecycled
var execPoisonRecycled bool

// TestEvaluatorsMatchStepByStepOracle is the differential test of the
// shared candidate loop and of clean answers from lineage: ExactCtx and
// MonteCarloCtx against the old loop over the public API, at the default
// worker and shard counts (with GOMAXPROCS raised so that they exceed one)
// and at one worker, one shard. Exact answers are the same bits at both.
func TestEvaluatorsMatchStepByStepOracle(t *testing.T) {
	// Recycled row storage is poisoned under the evaluators and not under
	// the oracle, so a row kept past its batch cannot go wrong the same way
	// on both sides: the evaluator answers with the sentinel string.
	defer func() { execPoisonRecycled = false }()
	cases := lineageCases(t)
	ctx := context.Background()
	exactAt := map[string]*Result{} // at the first GOMAXPROCS, by case
	for _, procs := range []int{4, 1} {
		prev := runtime.GOMAXPROCS(procs) // engine defaults: Parallelism = Shards = GOMAXPROCS
		empty, partial, narrowed, lineages, exactLineages := 0, 0, 0, 0, 0
		for _, c := range cases {
			stmt, err := sqlparse.Parse(c.sql)
			if err != nil {
				t.Fatalf("%s: %q: %v", c.name, c.sql, err)
			}
			label := fmt.Sprintf("procs=%d %s %q", procs, c.name, c.sql)
			execPoisonRecycled = false
			want, err := oracleExact(ctx, c.d, stmt, exec.Limits{})
			if err != nil {
				t.Fatalf("%s: oracle: %v", label, err)
			}
			execPoisonRecycled = true
			got, err := ExactCtx(ctx, c.d, stmt, exec.Limits{})
			if err != nil {
				t.Fatalf("%s: exact: %v", label, err)
			}
			sameResult(t, label+" exact", want, got, value.ProbEpsilon)
			if first, ok := exactAt[c.name]; ok {
				sameResult(t, label+" exact against GOMAXPROCS 4", first, got, 0)
			} else {
				exactAt[c.name] = got
			}
			// Whether it checks lineage DNFs or runs on the worlds, ExactCtx
			// answers as the per-world loop over the FROM relations'
			// candidates does, bit for bit.
			cs, err := c.d.CandidatesOf(stmt.Tables())
			if err != nil {
				t.Fatal(err)
			}
			worlds, err := evaluator(c.d).overCandidates(ctx, stmt, cs, 0, enumerate(ctx, 0), probOf)
			if err != nil {
				t.Fatalf("%s: per-world loop: %v", label, err)
			}
			worlds.Method = MethodExact
			sameResult(t, label+" exact against the per-world loop", worlds, got, 0)
			// The oracle ran the statement on every candidate of the
			// database. ExactCtx runs an SPJ statement's lineage query
			// alone where its rows fit as many worlds as the FROM
			// relations have candidates, and otherwise, or for any other
			// statement, the per-world loop after it.
			whole, _ := c.d.CandidateCount()
			scoped := cs.Count()
			spj := false
			if _, err := rewrite.Lineage(c.d.Store.Catalog, stmt); err == nil {
				spj, lineages = true, lineages+1
				_, lq, err := evaluator(c.d).buildLineage(ctx, stmt, cs, min(lineageWorlds, scoped.Int64()))
				switch {
				case err == nil:
					exactLineages++
					if got.Stats != lq {
						t.Errorf("%s: exact stats %+v, want its lineage query's %+v", label, got.Stats, lq)
					}
				case errors.Is(err, errNoLineage):
					if int64(got.Stats.Queries) != scoped.Int64()+1 {
						t.Errorf("%s: exact ran %d queries after a lineage over its cap; want %v + 1", label, got.Stats.Queries, scoped)
					}
				default:
					t.Fatalf("%s: lineage: %v", label, err)
				}
			} else {
				if got.Stats.BufferedPeak != want.Stats.BufferedPeak {
					t.Errorf("%s: exact buffered peak %d, want %d", label, got.Stats.BufferedPeak, want.Stats.BufferedPeak)
				}
				if int64(got.Stats.Queries) != scoped.Int64() {
					t.Errorf("%s: exact ran on %d worlds; want %v", label, got.Stats.Queries, scoped)
				}
			}
			if int64(want.Stats.Queries) != whole.Int64() || (c.worlds != 0 && scoped.Int64() != int64(c.worlds)) {
				t.Errorf("%s: the oracle ran on %d worlds of %v, the FROM relations have %v (pinned %d)",
					label, want.Stats.Queries, whole, scoped, c.worlds)
			}
			if whole.Cmp(scoped) > 0 {
				narrowed++
			}
			switch mass := probMass(got); {
			case len(got.Answers) == 0:
				empty++
			case mass < float64(len(got.Answers))-1e-9:
				partial++
			}

			const samples = 60
			seed := int64(len(c.sql))
			execPoisonRecycled = false
			want, err = oracleMonteCarlo(ctx, c.d, stmt, samples, seed, exec.Limits{})
			if err != nil {
				t.Fatalf("%s: mc oracle: %v", label, err)
			}
			execPoisonRecycled = true
			got, err = MonteCarloCtx(ctx, c.d, stmt, samples, seed, exec.Limits{})
			if err != nil {
				t.Fatalf("%s: mc: %v", label, err)
			}
			sameResult(t, label+" mc", want, got, 0)
			// An SPJ statement runs its lineage query alone; any other
			// runs on every sampled world, as the oracle does.
			if want.Stats.Queries != samples {
				t.Errorf("%s: the mc oracle ran on %d worlds, want %d", label, want.Stats.Queries, samples)
			}
			if spj {
				if got.Stats.Queries != 1 {
					t.Errorf("%s: mc from lineage ran %d queries, want 1", label, got.Stats.Queries)
				}
			} else {
				samePlanRuns(t, label+" mc", want, got)
			}
		}
		runtime.GOMAXPROCS(prev)
		t.Logf("procs=%d: %d SPJ statements of %d, exact answered %d of them from lineage", procs, lineages, len(cases), exactLineages)
		// The corpus must exercise what it claims to.
		if empty < 3 || partial < 20 || narrowed < 40 || lineages < 30 || len(cases)-lineages < 30 || exactLineages < 30 {
			t.Errorf("procs=%d: corpus has %d statements with no answer, %d with uncertain answers, %d that name fewer relations than are dirty and %d SPJ of %d, %d of them answered by exact from lineage; want >= 3, >= 20, >= 40, 30 SPJ and not, and 30",
				procs, empty, partial, narrowed, lineages, len(cases), exactLineages)
		}
	}
}

// EstimateAggregate runs on the same loop; its samples must match the
// step-by-step computation exactly too.
func TestEstimateAggregateMatchesStepByStepOracle(t *testing.T) {
	d := testdb.Figure2()
	stmt := sqlparse.MustParse("select c.id, o.quantity from orders o, customer c where o.cidfk = c.id and c.balance > 10000")
	const n, seed = 80, 7
	rng := rand.New(rand.NewSource(seed))
	var sums []float64
	cs, err := d.CandidatesOf(stmt.Tables())
	if err != nil {
		t.Fatal(err)
	}
	c := cs.NewCandidate()
	for i := 0; i < n; i++ {
		cs.Sample(rng, c)
		world, err := d.MaterializeCtx(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.New(world).QueryStmt(stmt)
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, row := range distinctRows(res.Rows) {
			s += row[1].AsFloat()
		}
		sums = append(sums, s)
	}
	got, err := evaluator(d).sampleAggregates(context.Background(), stmt, AggregateSum, "quantity", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sums) {
		t.Fatalf("%d samples, want %d", len(got), len(sums))
	}
	for i := range sums {
		if math.Float64bits(got[i]) != math.Float64bits(sums[i]) {
			t.Errorf("sample %d = %v, want %v", i, got[i], sums[i])
		}
	}
}

// allocsPerSample is the marginal cost, in heap allocations, of one more
// Monte-Carlo sample of stmt over d, run on the worlds.
func allocsPerSample(t *testing.T, d *dirty.DB, stmt *sqlparse.SelectStmt) float64 {
	t.Helper()
	run := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := monteCarloOverWorlds(context.Background(), d, stmt, n, 1, exec.Limits{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	return (run(1200) - run(200)) / 1000
}

// A Monte-Carlo sample on the worlds pays for refilling the world, one governor, the
// operators' per-open state and its result rows — not for clustering,
// materializing, planning or a worker pool (DESIGN.md §17: 369 allocations
// per candidate before, the figures below after). The ceilings leave a
// little headroom; a regression to any per-candidate set-up blows through
// them. The counts do not depend on GOMAXPROCS: both tables fit one morsel.
func TestMonteCarloAllocationsPerSample(t *testing.T) {
	d := testdb.Figure2()
	for _, c := range []struct {
		sql     string
		ceiling float64
	}{
		{"select id, balance from customer where balance > 10000", 16},
		{"select c.id from orders o, customer c where o.quantity < 5 and o.cidfk = c.id and c.balance > 25000", 33},
	} {
		got := allocsPerSample(t, d, sqlparse.MustParse(c.sql))
		t.Logf("%.1f allocations per sample: %s", got, c.sql)
		if got > c.ceiling {
			t.Errorf("%.1f allocations per sample, ceiling %.0f: %s", got, c.ceiling, c.sql)
		}
	}
}
