package main

import (
	"context"
	"math/rand"
	"time"

	"conquer/internal/core"
	"conquer/internal/plan"
)

// fig8 is the closed-loop Figure 8 workload, one client, cache off. A
// pass answers every statement once from SQL text: fig8_short the twelve
// non-Q9 pairs, fig8_q9 the Q9 pair alone.
type fig8 struct {
	*queryDB
	stmts    []*stmt
	rng      *rand.Rand // statement order within a pass
	q9       bool
	origOpts plan.Options
}

func setupFig8(cfg runConfig, q9 bool) (instance, error) {
	db, err := generateQueryDB(cfg)
	if err != nil {
		return nil, err
	}
	f := &fig8{queryDB: db, stmts: tpchStatements(q9), q9: q9, origOpts: defaultPlanOptions()}
	f.rng = rand.New(rand.NewSource(cfg.seed))
	warm := 3
	if q9 || cfg.quick {
		warm = 1
	}
	ctx := context.Background()
	for i := 0; i < warm; i++ {
		for _, s := range f.stmts {
			if _, err := f.runStmt(ctx, f.eng, s, core.EvalOptions{}); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

func (f *fig8) facts() (float64, int) { return f.generateS, f.d.Store.TotalRows() }
func (f *fig8) close()                {}
func (f *fig8) gate(t *tally)         { f.gateStmts(f.stmts, t) }
func (f *fig8) finish(*tally)         {}

func (f *fig8) measure(budget time.Duration, tr *tracer, t *tally) *measurement {
	m := newMeasurement()
	minPasses, maxPasses := 3, 0
	if f.quick {
		minPasses, maxPasses = 2, 2
	}
	if tr != nil {
		f.measureTraced(m, budget, 2, maxPasses, tr, t)
		return m
	}
	ctx := context.Background()
	perStmt := make([][]float64, len(f.stmts))
	order := make([]int, len(f.stmts))
	for i := range order {
		order[i] = i
	}
	timedPasses(m, budget, minPasses, maxPasses, func(int) (time.Duration, int64) {
		var pass time.Duration
		f.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			s := f.stmts[i]
			start := time.Now()
			a, err := f.runStmt(ctx, f.eng, s, core.EvalOptions{})
			d := time.Since(start)
			pass += d
			perStmt[i] = append(perStmt[i], float64(d))
			t.check(s.checked(a, err))
		}
		return pass, int64(len(f.stmts))
	})
	// The paper's Fig 8 number: clean over original per pair, host speed
	// cancels. Statements come in (original, clean) order.
	var ratios []float64
	for i := 0; i+1 < len(f.stmts); i += 2 {
		ratios = append(ratios, median(perStmt[i+1])/median(perStmt[i]))
	}
	m.extra["overhead_ratio"] = metricValue{Value: geomean(ratios), N: len(ratios)}
	if p90, ok := percentile(m.passMS, 0.90); ok {
		m.extra["pass_p90_ms"] = metricValue{Value: p90, N: len(m.passMS)}
	}
	return m
}

// measureTraced replays each statement step by step with a span per
// layer call, then makes the one whole call (engine.QueryCtx or
// core.Eval) on the same statement. The whole calls are the traced pass
// that trace.overhead_share compares with the untraced one; whole minus
// steps is what the layers seen from outside do not explain.
func (f *fig8) measureTraced(m *measurement, budget time.Duration, minPasses, maxPasses int, tr *tracer, t *tally) {
	ctx := context.Background()
	type passCost struct {
		stepCost
		whole, origSelf, cleanSelf time.Duration
	}
	var passes []passCost
	var rewritable, clean int
	timedPasses(m, budget, minPasses, maxPasses, func(p int) (time.Duration, int64) {
		var pc passCost
		root := tr.begin("pass", -1, p, -1)
		for i, s := range f.stmts {
			rid := tr.begin("replay."+s.name, root, p, i)
			c, rows, err := f.replay(ctx, tr, rid, p, i, s, f.origOpts)
			tr.end(rid)
			if err == nil {
				err = s.want.matches(replayRef(s, rows))
			}
			if err != nil {
				t.fail("replay %s: %v", s.name, err)
				continue
			}
			t.ok()
			c.normalize, _ = normalizeProbe(tr, p, i, s.sql)

			name := "engine.query"
			if s.clean {
				name = "core.eval"
			}
			wid := tr.begin(name, root, p, i)
			a, err := f.runStmt(ctx, f.eng, s, core.EvalOptions{})
			whole := tr.end(wid)
			t.check(s.checked(a, err))

			pc.whole += whole
			pc.add(c)
			if s.clean {
				pc.cleanSelf += whole - c.steps()
				clean++
				if c.rewritable {
					rewritable++
				}
			} else {
				pc.origSelf += whole - c.steps()
			}
		}
		tr.end(root)
		passes = append(passes, pc)
		return pc.whole, int64(len(f.stmts))
	})
	if len(passes) == 0 {
		return
	}
	us := func(get func(passCost) time.Duration) float64 {
		return medianOf(passes, func(p passCost) float64 { return float64(get(p)) / float64(time.Microsecond) })
	}
	count := func(get func(passCost) int64) float64 {
		return medianOf(passes, func(p passCost) float64 { return float64(get(p)) })
	}
	whole := us(func(p passCost) time.Duration { return p.whole })
	steps := us(func(p passCost) time.Duration { return p.steps() })
	l := m.layer
	l["sqlparse.parse_us"] = us(func(p passCost) time.Duration { return p.parse })
	l["sqlparse.normalize_us"] = us(func(p passCost) time.Duration { return p.normalize })
	l["dirty.candidate_count_us"] = us(func(p passCost) time.Duration { return p.ladder })
	l["rewrite.rewrite_us"] = us(func(p passCost) time.Duration { return p.rewrite })
	l["plan.plan_us"] = us(func(p passCost) time.Duration { return p.plan })
	l["exec.run_us"] = us(func(p passCost) time.Duration { return p.exec })
	l["plan.share_of_pass"] = l["plan.plan_us"] / whole
	l["exec.share_of_pass"] = l["exec.run_us"] / whole
	l["engine.self_us"] = us(func(p passCost) time.Duration { return p.origSelf })
	l["core.rewriting_self_us"] = us(func(p passCost) time.Duration { return p.cleanSelf })
	l["engine.unattributed_share"] = 1 - steps/whole
	l["exec.rows_out"] = count(func(p passCost) int64 { return p.rowsOut })
	l["exec.scan_rows_out"] = count(func(p passCost) int64 { return p.scanOut })
	l["exec.join_rows_in"] = count(func(p passCost) int64 { return p.joinIn })
	l["exec.agg_rows_in"] = count(func(p passCost) int64 { return p.aggIn })
	l["exec.batches"] = count(func(p passCost) int64 { return p.batches })
	l["exec.buffered_peak_rows"] = count(func(p passCost) int64 { return p.bufferedPeak })
	l["exec.shard_rebalances"] = count(func(p passCost) int64 { return p.rebalances })
	if l["exec.rows_out"] > 0 {
		l["exec.rows_examined_per_row_out"] = l["exec.scan_rows_out"] / l["exec.rows_out"]
	}
	if l["exec.batches"] > 0 {
		l["exec.rows_per_batch"] = l["exec.rows_out"] / l["exec.batches"]
	}
	for _, p := range passes {
		l["exec.shard_skew_max"] = max(l["exec.shard_skew_max"], p.skew)
	}
	if clean > 0 {
		l["rewrite.rewritable_share"] = float64(rewritable) / float64(clean)
	}
}
