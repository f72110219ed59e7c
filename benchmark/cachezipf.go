package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"time"

	"conquer/internal/cache"
	"conquer/internal/core"
	"conquer/internal/engine"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// cacheZipf reads the 24 short statements through one query cache whose
// byte budget is 80% of their summed result bytes, Zipf(s=1.1) by a
// single closed-loop client, with one insert into supplier per pass. The
// insert bumps supplier's version: the engine's result tier then misses
// only on statements that read supplier, while core.Eval keys clean
// answers on every table's version, so all twelve clean statements refill.
type cacheZipf struct {
	*queryDB
	stmts    []*stmt
	cache    *cache.Cache
	cached   *engine.Engine
	supplier *storage.Table
	draw     []int // one pass's statements in order: every pass replays the same sequence
	nextKey  int64
}

const (
	zipfS = 1.1
	// insertAt is the insert's fixed position in the pass.
	insertAt = 1000
)

// zipfDraw lists n statement indexes in which rank k (from 0) appears in
// proportion to (k+1)^-s, by largest remainder, shuffled once from
// dataSeed. Every pass replays this one sequence, like a recorded trace:
// one early arrival of a 1.8 MB result evicts twenty small ones, so
// misses, time and allocations per pass are chaotic in the order (drawn
// afresh per pass and per -seed, whole runs came out 5% apart in
// allocations and passes 540 to 900 ms within a run), and a bound on them
// needs the same work in every pass and on both sides of a comparison. Rank k is
// the k-th statement in TPC-H order starting at Q2: the Q1 pair, more than
// half of the working set's bytes, is the tail that the budget evicts.
func zipfDraw(n, stmts int, seed int64) []int {
	w := make([]float64, stmts)
	total := 0.0
	for k := range w {
		w[k] = math.Pow(float64(k+1), -zipfS)
		total += w[k]
	}
	type share struct {
		stmt, count int
		rest        float64
	}
	shares := make([]share, stmts)
	left := n
	for k := range w {
		exact := float64(n) * w[k] / total
		shares[k] = share{(k + 2) % stmts, int(exact), exact - math.Floor(exact)}
		left -= shares[k].count
	}
	sort.SliceStable(shares, func(i, j int) bool { return shares[i].rest > shares[j].rest })
	var draw []int
	for i, sh := range shares {
		if i < left {
			sh.count++
		}
		for j := 0; j < sh.count; j++ {
			draw = append(draw, sh.stmt)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(draw), func(i, j int) { draw[i], draw[j] = draw[j], draw[i] })
	return draw
}

func setupCacheZipf(cfg runConfig) (instance, error) {
	db, err := generateQueryDB(cfg)
	if err != nil {
		return nil, err
	}
	c := &cacheZipf{queryDB: db, stmts: tpchStatements(false), nextKey: 1 << 40}
	reads := 1999 // and one insert: 2000 operations a pass
	if cfg.quick {
		reads = 199
	}
	c.draw = zipfDraw(reads, len(c.stmts), dataSeed)
	c.supplier, _ = db.d.Store.Table("supplier")

	// Size the budget from what the cache itself charges: fill an
	// unbounded cache once and read its byte count.
	ctx := context.Background()
	c.useCache(1 << 40)
	for _, s := range c.stmts {
		if _, err := c.runStmt(ctx, c.cached, s, core.EvalOptions{Cache: c.cache}); err != nil {
			return nil, err
		}
	}
	c.useCache(c.cache.Stats().Bytes * 8 / 10)
	if _, err := c.pass(ctx, nil, -1, nil, &tally{}); err != nil { // warm-up
		return nil, err
	}
	return c, nil
}

func (c *cacheZipf) useCache(maxBytes int64) {
	c.cache = cache.New(cache.Options{MaxBytes: maxBytes})
	c.cached = engine.NewWithOptions(c.d.Store, engine.Options{Cache: c.cache})
}

func (c *cacheZipf) facts() (float64, int) { return c.generateS, c.d.Store.TotalRows() }
func (c *cacheZipf) close()                {}
func (c *cacheZipf) gate(t *tally)         { c.gateStmts(c.stmts, t) }

// insert adds a fresh singleton-cluster supplier that no partsupp or
// lineitem row references, so every statement's answer stays what the
// gate recorded while supplier's version moves.
func (c *cacheZipf) insert() error {
	c.nextKey++
	return c.supplier.Insert([]value.Value{
		value.Int(c.nextKey), value.Str("Supplier#bench"), value.Str("nowhere"), value.Int(-1),
		value.Str("00-000-000-0000"), value.Float(0), value.Int(c.nextKey), value.Float(1),
	})
}

// opTimes are a traced pass's per-operation latencies.
type opTimes struct {
	hit, miss, insert []float64 // us
}

// pass runs one pass: the draw with the insert at its fixed position. It
// returns the time inside the calls, leaving the benchmark's own answer
// checks out. With a tracer each call gets a span named for what it turned
// out to be.
func (c *cacheZipf) pass(ctx context.Context, tr *tracer, p int, ot *opTimes, t *tally) (time.Duration, error) {
	var busy time.Duration
	root := tr.begin("pass", -1, p, -1)
	for i, k := range c.draw {
		if i == insertAt%len(c.draw) {
			id := tr.begin("storage.insert", root, p, i)
			start := time.Now()
			err := c.insert()
			d := time.Since(start)
			tr.end(id)
			if err != nil {
				return 0, err
			}
			busy += d
			if ot != nil {
				ot.insert = append(ot.insert, us(d))
			}
			t.ok()
		}
		s := c.stmts[k]
		id := tr.begin("cache.lookup", root, p, i)
		start := time.Now()
		a, err := c.runStmt(ctx, c.cached, s, core.EvalOptions{Cache: c.cache})
		d := time.Since(start)
		tr.end(id)
		busy += d
		if err := s.checked(a, err); err != nil {
			t.fail("%v", err)
			continue
		}
		t.ok()
		if ot == nil {
			continue
		}
		if a.cached {
			tr.rename(id, "cache.hit")
			ot.hit = append(ot.hit, us(d))
		} else {
			tr.rename(id, "cache.miss")
			ot.miss = append(ot.miss, us(d))
		}
	}
	tr.end(root)
	return busy, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (c *cacheZipf) measure(budget time.Duration, tr *tracer, t *tally) *measurement {
	m := newMeasurement()
	minPasses, maxPasses := 5, 0
	if c.quick {
		minPasses, maxPasses = 2, 2
	}
	var ot *opTimes
	if tr != nil {
		ot = &opTimes{}
		if !c.quick {
			maxPasses = 20 // a span per operation: keeps the trace file small
		}
	}
	ctx := context.Background()
	before := c.cache.Stats()
	timedPasses(m, budget, minPasses, maxPasses, func(p int) (time.Duration, int64) {
		d, err := c.pass(ctx, tr, p, ot, t)
		if err != nil {
			t.fail("pass %d: %v", p, err)
		}
		return d, int64(len(c.draw) + 1)
	})
	if tr == nil {
		return m
	}
	after := c.cache.Stats()
	share := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	passes := float64(len(m.passMS))
	l := m.layer
	l["cache.result_hit_share"] = share(after.ResultHits-before.ResultHits, after.ResultMisses-before.ResultMisses)
	l["cache.plan_hit_share"] = share(after.PlanHits-before.PlanHits, after.PlanMisses-before.PlanMisses)
	l["cache.parse_hit_share"] = share(after.ParseHits-before.ParseHits, after.ParseMisses-before.ParseMisses)
	l["cache.hit_us_p50"] = median(ot.hit)
	l["cache.miss_us_p50"] = median(ot.miss)
	l["cache.evictions"] = float64(after.Evictions-before.Evictions) / passes
	l["cache.invalidations"] = float64(after.Invalidations-before.Invalidations) / passes
	l["cache.coalesced"] = float64(after.Coalesced-before.Coalesced) / passes
	l["cache.peak_bytes"] = float64(after.PeakBytes)
	l["storage.insert_us_p50"] = median(ot.insert)
	// Seen from outside, a miss is one call: its time is an upper bound on
	// what exec spent refilling (it also holds rewrite and plan).
	pass := sum(m.passMS) * 1e3
	l["exec.run_us"] = sum(ot.miss) / passes
	l["exec.share_of_pass"] = sum(ot.miss) / pass
	l["engine.unattributed_share"] = 1 - (sum(ot.hit)+sum(ot.miss)+sum(ot.insert))/pass
	l["engine.self_us"] = l["engine.unattributed_share"] * pass / passes
	return m
}

// finish re-checks every statement in full against an uncached engine at
// the final table versions.
func (c *cacheZipf) finish(t *tally) {
	ctx := context.Background()
	for _, s := range c.stmts {
		got, err := c.runStmt(ctx, c.cached, s, core.EvalOptions{Cache: c.cache})
		if err != nil {
			t.fail("final: %v", err)
			continue
		}
		want, err := c.runStmt(ctx, c.eng, s, core.EvalOptions{})
		if err == nil {
			err = sameRows(got.allRows(), want.allRows())
		}
		if err != nil {
			t.fail("final: %s cached against uncached: %v", s.name, err)
			continue
		}
		t.ok()
	}
}
