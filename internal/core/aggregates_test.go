package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/exec"
	"conquer/internal/rewrite"
	"conquer/internal/sqlparse"
	"conquer/internal/testdb"
	"conquer/internal/value"
)

// Monte-Carlo estimates of the linear aggregates converge to the
// closed-form expectations.
func TestEstimateAggregateConvergesToClosedForm(t *testing.T) {
	d := testdb.Figure2()
	q := sqlparse.MustParse(
		"select o.id, c.id, o.quantity from orders o, customer c where o.cidfk = c.id and c.balance > 10000")
	res, err := ExactCtx(context.Background(), d, q, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	wantCount, wantSum := probMass(res), 0.0
	for _, a := range res.Answers {
		wantSum += a.Prob * a.Values[2].AsFloat()
	}

	est, err := evaluator(d).EstimateAggregate(context.Background(), q, AggregateCount, "", 20000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-wantCount) > 0.05 {
		t.Errorf("MC E[COUNT] = %v, closed form %v", est.Mean, wantCount)
	}
	if est.Samples != 20000 {
		t.Errorf("samples = %d", est.Samples)
	}

	est, err = evaluator(d).EstimateAggregate(context.Background(), q, AggregateSum, "quantity", 20000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-wantSum) > 0.1 {
		t.Errorf("MC E[SUM] = %v, closed form %v", est.Mean, wantSum)
	}
}

func TestEstimateAggregateNonLinear(t *testing.T) {
	d := testdb.Figure2()
	q := sqlparse.MustParse("select id, balance from customer where balance > 10000")
	// MIN(balance) over answers: candidates give balance sets
	// {20K or 30K} ∪ ({27K} with p .2). Enumerate outcomes:
	//   John=20K (p.7): Mary in (p.2) -> min 20K; out (p.8) -> 20K => 20K, p=.7
	//   John=30K (p.3): Mary in (.2) -> 27K (p .06); out -> 30K (p .24)
	// E[MIN] = .7*20000 + .06*27000 + .24*30000 = 14000+1620+7200 = 22820.
	est, err := evaluator(d).EstimateAggregate(context.Background(), q, AggregateMin, "balance", 30000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-22820) > 150 {
		t.Errorf("MC E[MIN] = %v, want ~22820", est.Mean)
	}
	if est.StdDev <= 0 {
		t.Error("MIN varies across candidates; StdDev should be positive")
	}

	// AVG and MAX run without error and stay within the value range.
	for _, kind := range []AggregateKind{AggregateAvg, AggregateMax} {
		est, err := evaluator(d).EstimateAggregate(context.Background(), q, kind, "balance", 2000, 12)
		if err != nil {
			t.Fatal(err)
		}
		if est.Mean < 20000 || est.Mean > 30000 {
			t.Errorf("kind %d mean %v outside value range", kind, est.Mean)
		}
	}
}

func TestEstimateAggregateErrors(t *testing.T) {
	d := testdb.Figure2()
	q := sqlparse.MustParse("select id, name from customer")
	if _, err := evaluator(d).EstimateAggregate(context.Background(), q, AggregateSum, "name", 10, 1); err == nil {
		t.Error("non-numeric sum should fail")
	}
	if _, err := evaluator(d).EstimateAggregate(context.Background(), q, AggregateSum, "ghost", 10, 1); err == nil {
		t.Error("an unknown column should fail")
	}
	if _, err := evaluator(d).EstimateAggregate(context.Background(), q, AggregateCount, "", 0, 1); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := evaluator(d).EstimateAggregate(context.Background(), q, AggregateKind(99), "id", 10, 1); err == nil {
		t.Error("unknown kind should fail")
	}
}

// An SPJ statement's aggregate samples read its lineage: one query, then
// no allocation per sample — where the per-world loop paid a plan run and
// about 30 allocations for each. A grouped statement runs its plan on
// every sampled world.
func TestEstimateAggregateSamplesTheLineage(t *testing.T) {
	ctx := context.Background()
	d := testdb.Figure2()
	spj := sqlparse.MustParse("select c.id, o.quantity from orders o, customer c where o.cidfk = c.id and c.balance > 10000")
	run := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := evaluator(d).EstimateAggregate(ctx, spj, AggregateSum, "quantity", n, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	perSample := (run(1200) - run(200)) / 1000
	t.Logf("%.2f allocations per sample", perSample)
	if perSample >= 1 {
		t.Errorf("%.2f allocations per sample; want less than 1", perSample)
	}

	const n, seed = 25, 3
	grouped := sqlparse.MustParse("select name, count(*) from customer where balance > 10000 group by name")
	for _, c := range []struct {
		stmt    *sqlparse.SelectStmt
		queries int
	}{{spj, 1}, {grouped, n}} {
		cs, err := d.CandidatesOf(c.stmt.Tables())
		if err != nil {
			t.Fatal(err)
		}
		samples := 0
		_, _, stats, err := evaluator(d).overHeld(ctx, c.stmt, cs, lineageWorlds, sample(ctx, n, seed),
			func(*dirty.Candidate, [][]value.Value, []int32) error { samples++; return nil })
		if err != nil || samples != n || stats.Queries != c.queries {
			t.Errorf("%s: %d samples, %d queries, error %v; want %d and %d", c.stmt.SQL(), samples, stats.Queries, err, n, c.queries)
		}
	}
}

// oracleAggregates folds kind over column col of each answer set, in its
// rows' order, as the per-world loop did; ok is false when a value is not
// numeric.
func oracleAggregates(sets [][][]value.Value, kind AggregateKind, col int) (out []float64, ok bool) {
	for _, rows := range sets {
		if kind == AggregateCount {
			out = append(out, float64(len(rows)))
			continue
		}
		var vals []float64
		for _, row := range rows {
			switch v := row[col]; {
			case v.IsNull():
			case !v.IsNumeric():
				return nil, false
			default:
				vals = append(vals, v.AsFloat())
			}
		}
		if kind != AggregateSum && len(vals) == 0 {
			continue // undefined on no values
		}
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		switch kind {
		case AggregateSum:
			out = append(out, sum)
		case AggregateAvg:
			out = append(out, sum/float64(len(vals)))
		default:
			best := vals[0]
			for _, v := range vals[1:] {
				if kind == AggregateMin && v < best || kind == AggregateMax && v > best {
					best = v
				}
			}
			out = append(out, best)
		}
	}
	return out, true
}

// On every SPJ statement of the corpus, each aggregate sample is the
// per-world oracle's for the same draws: COUNT, MIN and MAX bit for bit,
// SUM and AVG within a relative 1e-12, since the lineage folds a sample's
// answers in answer-table order rather than a world's row order. A column
// holding a non-numeric value fails.
func TestEstimateAggregateMatchesPerWorldOracle(t *testing.T) {
	ctx := context.Background()
	const n, seed = 30, 5
	statements, columns := 0, 0
	for _, c := range lineageCases(t) {
		stmt := sqlparse.MustParse(c.sql)
		if _, err := rewrite.Lineage(c.d.Store.Catalog, stmt); err != nil {
			continue // not SPJ
		}
		statements++
		cs, err := c.d.CandidatesOf(stmt.Tables())
		if err != nil {
			t.Fatal(err)
		}
		rng, cand := rand.New(rand.NewSource(seed)), cs.NewCandidate()
		var cols []string
		sets := make([][][]value.Value, n)
		for i := range sets {
			cs.Sample(rng, cand)
			world, err := c.d.MaterializeCtx(ctx, cand)
			if err != nil {
				t.Fatal(err)
			}
			res, err := engine.New(world).QueryStmt(stmt)
			if err != nil {
				t.Fatal(err)
			}
			cols, sets[i] = res.Columns, distinctRows(res.Rows)
		}
		for col, name := range cols {
			if slices.Index(cols, name) != col {
				continue // a name resolves to its first column
			}
			for kind := AggregateCount; kind <= AggregateMax; kind++ {
				label := c.name + " " + name
				want, numeric := oracleAggregates(sets, kind, col)
				got, err := evaluator(c.d).sampleAggregates(ctx, stmt, kind, name, n, seed)
				switch {
				case !numeric:
					if err == nil {
						t.Errorf("%s, kind %d: a non-numeric column aggregates", label, kind)
					}
					continue
				case err != nil:
					t.Fatalf("%s, kind %d: %v", label, kind, err)
				case len(got) != len(want):
					t.Fatalf("%s, kind %d: %d samples, want %d", label, kind, len(got), len(want))
				}
				if kind == AggregateMin {
					columns++
				}
				for i := range want {
					exact := kind != AggregateSum && kind != AggregateAvg
					if exact && math.Float64bits(got[i]) != math.Float64bits(want[i]) ||
						!exact && math.Abs(got[i]-want[i]) > 1e-12*math.Abs(want[i]) {
						t.Errorf("%s, kind %d: sample %d = %v, the per-world loop's %v", label, kind, i, got[i], want[i])
					}
				}
			}
		}
	}
	t.Logf("%d SPJ statements, %d numeric columns", statements, columns)
	if statements < 30 || columns < 30 {
		t.Errorf("%d SPJ statements and %d numeric columns; want >= 30 of each", statements, columns)
	}
}
