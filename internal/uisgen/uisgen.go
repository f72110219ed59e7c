// Package uisgen generates dirty TPC-H databases in the style of the UIS
// Database Generator the paper uses for its evaluation (§5.1-§5.2):
//
//   - a scaling factor sf controls the database size, with sf = 1
//     corresponding to the TPC-H entity counts (scaled down by a
//     configurable multiplier so benchmarks fit in memory — the paper's
//     sf = 1 is 1 GB / roughly 8 million tuples on its 2006 testbed);
//   - an inconsistency factor if controls duplication: each real-world
//     entity becomes a cluster whose cardinality is drawn uniformly from
//     [1, 2·if − 1], so clusters contain if tuples on average, exactly as
//     described in §5.2.
//
// Duplicate tuples are perturbed copies of their cluster's master tuple:
// typos in strings, ±10% noise on numeric attributes, day-level jitter on
// dates, and occasional categorical swaps — the standard UIS error model.
//
// Foreign keys are emitted against referenced rowkeys (pre-propagation
// state) or against cluster identifiers directly (post-propagation),
// so both the offline pipeline of Figure 7 and the query workloads of
// Figures 8-10 can be generated.
package uisgen

import (
	"fmt"
	"math"
	"math/rand"

	"conquer/internal/dirty"
	"conquer/internal/storage"
	"conquer/internal/tpch"
	"conquer/internal/value"
)

// Config controls generation.
type Config struct {
	// SF is the scaling factor (§5.2); 1.0 matches the TPC-H entity
	// counts scaled by Scale. Must be > 0.
	SF float64
	// IF is the inconsistency factor: cluster cardinalities are uniform
	// on [1, 2·IF−1] (mean IF). IF = 1 produces a clean database. Must be
	// >= 1.
	IF int
	// Scale shrinks the TPC-H entity counts so generated data fits a test
	// process; 1.0 would reproduce full TPC-H entity counts (6M lineitem
	// entities at SF=1). Defaults to 0.002.
	Scale float64
	// Seed makes generation deterministic.
	Seed int64
	// Propagated emits foreign keys as cluster identifiers (the state
	// after identifier propagation). When false they reference rowkeys of
	// individual referenced tuples, and dirty.DB.PropagateAll must run
	// before identifier joins work.
	Propagated bool
	// UniformProbs fills each cluster's probability column with the
	// uniform distribution 1/|cluster|. When false the prob columns are
	// left NULL for probcalc.AnnotateTableCtx to fill — the Figure-7
	// pipeline.
	UniformProbs bool
	// Only restricts generation to the named tables (and implicitly their
	// referenced tables, which must be listed too). Nil means all eight.
	Only []string
	// CleanTables names tables generated without duplication (every
	// cluster a singleton, probability 1) regardless of IF — used to keep
	// exact-enumeration verification instances tractable.
	CleanTables []string
}

func (c Config) withDefaults() (Config, error) {
	if c.SF <= 0 {
		return c, fmt.Errorf("uisgen: SF must be positive, got %v", c.SF)
	}
	if c.IF < 1 {
		return c, fmt.Errorf("uisgen: IF must be >= 1, got %d", c.IF)
	}
	if c.Scale == 0 { //lint:allow floatcmp -- zero-value config sentinel, not a computed probability
		c.Scale = 0.002
	}
	if c.Scale < 0 {
		return c, fmt.Errorf("uisgen: Scale must be positive, got %v", c.Scale)
	}
	return c, nil
}

// entityCounts is the TPC-H specification's entity population at sf = 1.
var entityCounts = map[string]int{
	"region":   5,
	"nation":   25,
	"supplier": 10_000,
	"customer": 150_000,
	"part":     200_000,
	"partsupp": 800_000,
	"orders":   1_500_000,
	"lineitem": 6_000_000,
}

// Entities returns the number of real-world entities table gets under
// cfg. The scaling factor fixes the total tuple count (sf = 1 is the
// paper's 1 GB / ~8M tuples, shrunk by Scale); the inconsistency factor
// redistributes those tuples into fewer, larger clusters — matching the
// paper, where the Figure-7 linear-scan baseline and the Figure-9
// original-query cost stay flat as if grows. Hence entities ≈
// tuples / if. Region and nation keep their fixed TPC-H populations.
func Entities(table string, cfg Config) int {
	base := entityCounts[table]
	if table == "region" || table == "nation" {
		return base
	}
	n := int(math.Round(float64(base) * cfg.SF * cfg.Scale / float64(cfg.IF)))
	if n < 1 {
		n = 1
	}
	return n
}

// Generate builds a dirty TPC-H database per cfg.
func Generate(cfg Config) (*dirty.DB, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	g := &generator{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		rows: tpch.RowKeyBase,
	}
	store := storage.NewDB()
	cat := tpch.Catalog()
	want := map[string]bool{}
	if cfg.Only == nil {
		for _, t := range tpch.Tables {
			want[t] = true
		}
	} else {
		for _, t := range cfg.Only {
			want[t] = true
		}
	}
	for _, name := range tpch.Tables {
		if !want[name] {
			continue
		}
		rel, _ := cat.Relation(name)
		tb, err := store.CreateTable(rel)
		if err != nil {
			return nil, err
		}
		if err := g.fill(tb, name); err != nil {
			return nil, err
		}
	}
	return dirty.New(store), nil
}

// generator carries shared state across tables.
type generator struct {
	cfg  Config
	rng  *rand.Rand
	rows int64 // global rowkey counter, starting at tpch.RowKeyBase

	// Per-table entity bookkeeping used to wire foreign keys:
	// rowkeysOf[table][entity] lists the rowkeys of the entity's cluster.
	rowkeysOf map[string][][]int64
	// psPart/psSupp record partsupp entity -> (part, supplier) entity.
	psPart, psSupp []int
	// orderDates records each order entity's master order date so line
	// items can derive consistent ship/commit/receipt dates.
	orderDates map[int]string
}

// cluster draws the duplicate-cluster cardinality: uniform on [1, 2·IF−1].
func (g *generator) cluster() int {
	if g.cfg.IF == 1 {
		return 1
	}
	return 1 + g.rng.Intn(2*g.cfg.IF-1)
}

// nextRowkey allocates a globally unique rowkey.
func (g *generator) nextRowkey() int64 {
	g.rows++
	return g.rows
}

// fkRef picks the reference value for a foreign key to the given entity of
// table: the entity identifier when propagated, otherwise the rowkey of a
// random member of the entity's cluster.
func (g *generator) fkRef(table string, entity int) int64 {
	if g.cfg.Propagated {
		return int64(entity)
	}
	rks := g.rowkeysOf[table][entity]
	return rks[g.rng.Intn(len(rks))]
}

// randomEntity picks a random entity index of table (1-based identifiers;
// slot 0 of rowkeysOf is unused).
func (g *generator) randomEntity(table string) int {
	n := len(g.rowkeysOf[table]) - 1
	return 1 + g.rng.Intn(n)
}

func (g *generator) fill(tb *storage.Table, name string) error {
	if g.rowkeysOf == nil {
		g.rowkeysOf = make(map[string][][]int64)
	}
	n := Entities(name, g.cfg)
	g.rowkeysOf[name] = make([][]int64, n+1)
	if name == "partsupp" {
		g.psPart = make([]int, n+1)
		g.psSupp = make([]int, n+1)
	}
	clean := false
	for _, t := range g.cfg.CleanTables {
		if t == name {
			clean = true
			break
		}
	}
	for e := 1; e <= n; e++ {
		master := g.master(name, e)
		k := g.cluster()
		if clean {
			k = 1
		}
		prob := value.Null()
		if g.cfg.UniformProbs {
			prob = value.Float(1 / float64(k))
		}
		for dup := 0; dup < k; dup++ {
			row := master
			if dup > 0 {
				row = g.perturb(name, master)
			}
			rk := g.nextRowkey()
			g.rowkeysOf[name][e] = append(g.rowkeysOf[name][e], rk)
			full := make([]value.Value, 0, len(row)+2)
			full = append(full, row...)
			full = append(full, value.Int(rk), prob)
			if err := tb.Insert(full); err != nil {
				return err
			}
		}
	}
	return nil
}
