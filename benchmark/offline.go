package main

import (
	"context"
	"runtime"
	"time"

	"conquer/internal/dirty"
	"conquer/internal/matching"
	"conquer/internal/probcalc"
	"conquer/internal/storage"
	"conquer/internal/uisgen"
)

// offline is the paper's Fig 7 pipeline on an unpropagated, unannotated
// instance (uisgen sf=1, if=5). A pass clones the instance (untimed), then
// annotates every dirty relation, propagates identifiers and validates
// Dfn 2. At scale 0.004 a pass takes about 0.2 s on the reference host:
// the issue's 0.5-1 s passes left a dozen samples a run, and their median
// moved by 10% from run to run. Nothing here is drawn at run time: the
// timed instance comes from dataSeed like the rest, and -seed only makes
// the instance the gate checks.
type offline struct {
	seed      int64
	scale     float64
	base      *storage.DB
	last      *dirty.DB // the latest pass's database, for the traced run's probes
	rows      int
	generateS float64
	quick     bool
}

func setupOffline(cfg runConfig) (instance, error) {
	scale := 0.004
	if cfg.quick {
		scale = 0.0005
	}
	start := time.Now()
	d, err := uisgen.Generate(uisgen.Config{SF: 1, IF: 5, Scale: scale, Seed: dataSeed})
	if err != nil {
		return nil, err
	}
	o := &offline{seed: cfg.seed, scale: scale, base: d.Store, rows: d.Store.TotalRows(), generateS: time.Since(start).Seconds(), quick: cfg.quick}
	if _, err := o.pass(nil, -1); err != nil { // warm-up
		return nil, err
	}
	return o, nil
}

func (o *offline) facts() (float64, int) { return o.generateS, o.rows }
func (o *offline) close()                {}
func (o *offline) finish(*tally)         {}

// gate has nothing to compare at Parallelism=1: the pipeline's own check,
// Validate, runs inside every pass. Those passes all see the one timed
// instance, so the gate runs the pipeline once more on an instance
// generated from -seed, half the size.
func (o *offline) gate(t *tally) {
	d, err := uisgen.Generate(uisgen.Config{SF: 1, IF: 5, Scale: o.scale / 2, Seed: o.seed})
	if err == nil {
		_, err = (&offline{base: d.Store}).pass(nil, -1)
	}
	if err != nil {
		t.fail("gate: data of seed %d: %v", o.seed, err)
		return
	}
	t.ok()
}

// stages are one pass's times.
type stages struct {
	annotate, propagate, validate time.Duration
	propagated                    int
}

func (s stages) total() time.Duration { return s.annotate + s.propagate + s.validate }

func (o *offline) pass(tr *tracer, p int) (stages, error) {
	var st stages
	clone, err := o.base.Clone()
	if err != nil {
		return st, err
	}
	db := dirty.New(clone)
	if tr != nil {
		o.last = db
	}
	root := tr.begin("pass", -1, p, -1)
	defer tr.end(root)

	id := tr.begin("probcalc.annotate", root, p, -1)
	start := time.Now()
	err = probcalc.AnnotateAllParCtx(context.Background(), clone, nil, runtime.GOMAXPROCS(0))
	st.annotate = time.Since(start)
	tr.end(id)
	if err != nil {
		return st, err
	}

	id = tr.begin("dirty.propagate", root, p, -1)
	start = time.Now()
	st.propagated, err = db.PropagateAll()
	st.propagate = time.Since(start)
	tr.end(id)
	if err != nil {
		return st, err
	}

	id = tr.begin("dirty.validate", root, p, -1)
	start = time.Now()
	err = db.Validate()
	st.validate = time.Since(start)
	tr.end(id)
	return st, err
}

func (o *offline) measure(budget time.Duration, tr *tracer, t *tally) *measurement {
	m := newMeasurement()
	minPasses, maxPasses := 3, 0
	if o.quick {
		minPasses, maxPasses = 2, 2
	}
	var all []stages
	timedPasses(m, budget, minPasses, maxPasses, func(p int) (time.Duration, int64) {
		st, err := o.pass(tr, p)
		t.check(err) // Validate: Dfn 2 holds after annotation
		all = append(all, st)
		return st.total(), int64(o.rows)
	})
	m.extra["prep_tuples_per_s"] = metricValue{Value: float64(m.ops) / m.elapsedS, N: len(m.passMS)}
	if tr == nil || len(all) == 0 {
		return m
	}
	med := func(get func(stages) float64) float64 { return medianOf(all, get) }
	l := m.layer
	l["probcalc.annotate_us"] = med(func(s stages) float64 { return us(s.annotate) })
	l["dirty.propagate_us"] = med(func(s stages) float64 { return us(s.propagate) })
	l["dirty.validate_us"] = med(func(s stages) float64 { return us(s.validate) })
	l["probcalc.tuples_per_s"] = float64(o.rows) / (l["probcalc.annotate_us"] / 1e6)
	l["dirty.propagate_rows_per_s"] = med(func(s stages) float64 { return float64(s.propagated) }) / (l["dirty.propagate_us"] / 1e6)
	whole := med(func(s stages) float64 { return us(s.total()) })
	l["engine.unattributed_share"] = 1 - (l["probcalc.annotate_us"]+l["dirty.propagate_us"]+l["dirty.validate_us"])/whole

	// Probes the traced run adds on the last pass's database: the cluster
	// count, Fig 7's linear-scan baseline, and the matcher on customer.
	last := o.last
	for _, rel := range last.DirtyRelations() {
		clusters, err := last.Clusters(rel)
		t.check(err)
		l["probcalc.clusters"] += float64(len(clusters))
	}
	id := tr.begin("storage.scan", -1, -1, -1)
	touched := 0
	for _, name := range last.Store.TableNames() {
		tb, _ := last.Store.Table(name)
		for _, r := range tb.Rows() {
			touched += len(r)
		}
	}
	if d := tr.end(id); d > 0 && touched > 0 {
		l["storage.scan_rows_per_s"] = float64(o.rows) / d.Seconds()
	}
	customer, _ := last.Store.Table("customer")
	id = tr.begin("matching.match", -1, -1, -1)
	found, err := matching.MatchTable(customer, nil, "m", matching.Config{})
	d := tr.end(id)
	t.check(err)
	l["matching.match_us"] = us(d)
	l["matching.tuples_per_s"] = float64(customer.Len()) / d.Seconds()
	l["matching.clusters_found"] = float64(found)
	return m
}
