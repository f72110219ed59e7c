// Package dirty implements the paper's dirty-database model (§2.1):
// relations whose tuples are partitioned into clusters of potential
// duplicates (Dfn 1), each tuple carrying the probability of being the
// cluster's representative in the clean database (Dfn 2). On top of the
// model it provides:
//
//   - validation and normalization of cluster probability functions,
//   - enumeration of candidate databases (Dfn 3) with their probabilities
//     (Dfn 4), used by the exact clean-answer evaluator,
//   - independent sampling of candidate databases for the Monte-Carlo
//     evaluator, and
//   - identifier propagation: rewriting foreign-key values to refer to
//     cluster identifiers, the pre-processing step the paper assumes
//     (§2.1) and times in Figure 7.
package dirty

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sync"

	"conquer/internal/qerr"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// ProbEpsilon is the tolerance when checking that cluster probabilities
// sum to 1. It aliases the canonical value.ProbEpsilon so every layer
// agrees on what "equal probabilities" means.
const ProbEpsilon = value.ProbEpsilon

// DB wraps a storage database whose relations may carry dirty metadata
// (identifier + prob columns on their schemas).
type DB struct {
	Store *storage.DB

	// factorMu guards factors, CandidateCountOf's memo: per dirty
	// relation, the product of its cluster sizes and the table version
	// that product was computed at.
	factorMu sync.Mutex
	factors  map[*storage.Table]relFactor
}

// relFactor is one dirty relation's factor of the candidate count at one
// mutation count.
type relFactor struct {
	version int64
	count   *big.Int
}

// New wraps store.
func New(store *storage.DB) *DB { return &DB{Store: store} }

// Cluster is one group of potential duplicates within a relation.
type Cluster struct {
	ID   value.Value // cluster identifier value
	Rows []int       // row indices within the relation, in table order
}

// DirtyRelations returns the names of relations carrying dirty metadata,
// in catalog order.
func (d *DB) DirtyRelations() []string {
	var out []string
	for _, name := range d.Store.TableNames() {
		tb, _ := d.Store.Table(name)
		if tb.Schema.IsDirty() {
			out = append(out, name)
		}
	}
	return out
}

// Clusters groups the rows of the named dirty relation by identifier.
// Clusters are returned in order of first appearance; NULL identifiers are
// rejected.
func (d *DB) Clusters(rel string) ([]Cluster, error) {
	tb, ok := d.Store.Table(rel)
	if !ok {
		return nil, fmt.Errorf("dirty: unknown relation %q", rel)
	}
	idIdx := tb.Schema.IdentifierIndex()
	if idIdx < 0 {
		return nil, fmt.Errorf("dirty: relation %q has no identifier column: %w", rel, qerr.ErrBadModel)
	}
	// One pass numbers each row's cluster through a hash index — heads[h]
	// is the latest cluster whose identifier hashes to h, next[c] the one
	// before c with the same hash, -1 ending the chain — and counts the
	// clusters' rows; a second carves every Rows from one array.
	heads := make(map[uint64]int)
	var next, count []int
	var out []Cluster
	of := make([]int, tb.Len())
	for i := range of {
		id := tb.Row(i)[idIdx]
		if id.IsNull() {
			return nil, fmt.Errorf("dirty: %s row %d has NULL identifier: %w", rel, i, qerr.ErrBadModel)
		}
		h := value.Hash(id)
		head, ok := heads[h]
		if !ok {
			head = -1
		}
		c := head
		for c >= 0 && !value.Equal(out[c].ID, id) {
			c = next[c]
		}
		if c < 0 {
			c = len(out)
			out = append(out, Cluster{ID: id})
			next = append(next, head)
			count = append(count, 0)
			heads[h] = c
		}
		count[c]++
		of[i] = c
	}
	rows := make([]int, len(of))
	start := 0
	for c := range out {
		// Capacity ends where the cluster does, so a caller's append
		// copies instead of overwriting the next cluster's rows.
		out[c].Rows = rows[start : start : start+count[c]]
		start += count[c]
	}
	for i, c := range of {
		out[c].Rows = append(out[c].Rows, i)
	}
	return out, nil
}

// Validate checks Dfn 2 on every dirty relation: each tuple probability
// lies in [0, 1] — zero is legal; such tuples are simply never chosen —
// and the probabilities within each cluster sum to 1 (within ProbEpsilon).
// Singleton clusters therefore must have probability 1.
func (d *DB) Validate() error {
	for _, rel := range d.DirtyRelations() {
		tb, _ := d.Store.Table(rel)
		probIdx := tb.Schema.ProbIndex()
		clusters, err := d.Clusters(rel)
		if err != nil {
			return err
		}
		for _, c := range clusters {
			sum := 0.0
			for _, ri := range c.Rows {
				pv := tb.Row(ri)[probIdx]
				if pv.IsNull() || !pv.IsNumeric() {
					return fmt.Errorf("dirty: %s row %d has invalid probability %v", rel, ri, pv)
				}
				p := pv.AsFloat()
				if p < 0 || p > 1+ProbEpsilon {
					return fmt.Errorf("dirty: %s row %d probability %g outside [0,1]", rel, ri, p)
				}
				sum += p
			}
			if !value.ProbEq(sum, 1) {
				return fmt.Errorf("dirty: %s cluster %v probabilities sum to %g, want 1", rel, c.ID, sum)
			}
		}
	}
	return nil
}

// Normalize rescales the probabilities within each cluster of every dirty
// relation to sum to exactly 1; clusters whose probabilities are all zero
// get the uniform distribution. It is the standard fix-up after loading
// externally produced probabilities.
func (d *DB) Normalize() error {
	for _, rel := range d.DirtyRelations() {
		tb, _ := d.Store.Table(rel)
		probIdx := tb.Schema.ProbIndex()
		probCol := tb.Schema.Columns[probIdx].Name
		clusters, err := d.Clusters(rel)
		if err != nil {
			return err
		}
		for _, c := range clusters {
			sum := 0.0
			for _, ri := range c.Rows {
				pv := tb.Row(ri)[probIdx]
				if !pv.IsNull() && pv.IsNumeric() {
					sum += pv.AsFloat()
				}
			}
			for _, ri := range c.Rows {
				var p float64
				if sum <= 0 {
					p = 1 / float64(len(c.Rows))
				} else {
					pv := tb.Row(ri)[probIdx]
					if !pv.IsNull() && pv.IsNumeric() {
						p = pv.AsFloat() / sum
					}
				}
				if err := tb.UpdateColumn(ri, probCol, value.Float(p)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// CandidateCount returns the number of candidate databases: the product of
// cluster sizes over every dirty relation (Dfn 3). The count is returned
// as a big integer because it is exponential in the number of clusters.
func (d *DB) CandidateCount() (*big.Int, error) {
	return d.CandidateCountOf(d.Store.TableNames())
}

// CandidateCountOf returns the number of candidate databases of the named
// relations alone: the product of their cluster sizes, which is how many
// distinct worlds a query over exactly those relations can see (clusters
// choose independently, Dfn 4, so the rest of the database only
// multiplies every one of them by the same marginal 1). See dirtyTables
// for which names count.
//
// Each relation's factor — the number, nothing else — is remembered at its
// table's version, so the clean-answer ladder's rung selection does not re-cluster an
// unchanged relation on every call and an insert re-clusters only the
// relation it went into.
func (d *DB) CandidateCountOf(rels []string) (*big.Int, error) {
	n := big.NewInt(1)
	for _, tb := range d.dirtyTables(rels) {
		f, err := d.factor(tb)
		if err != nil {
			return nil, err
		}
		n.Mul(n, f)
	}
	return n, nil
}

// factor is tb's factor of the candidate count, from the memo when tb has
// not changed since it was computed. Errors are not remembered. The
// returned integer is the memo's own: read it, do not write it.
func (d *DB) factor(tb *storage.Table) (*big.Int, error) {
	version := tb.Version()
	d.factorMu.Lock()
	defer d.factorMu.Unlock()
	if f, ok := d.factors[tb]; ok && f.version == version {
		return f.count, nil
	}
	clusters, err := d.Clusters(tb.Schema.Name)
	if err != nil {
		return nil, err
	}
	count := clusterProduct(clusters)
	if d.factors == nil {
		d.factors = make(map[*storage.Table]relFactor)
	}
	d.factors[tb] = relFactor{version: version, count: count}
	return count, nil
}

// clusterProduct multiplies the cluster sizes.
func clusterProduct(clusters []Cluster) *big.Int {
	n, size := big.NewInt(1), new(big.Int)
	for _, c := range clusters {
		n.Mul(n, size.SetInt64(int64(len(c.Rows))))
	}
	return n
}

// dirtyTables resolves rels to the dirty tables among them, each once, in
// the order first named. Clean relations and names the store does not know
// are skipped (the planner reports the latter), so a FROM list can be
// passed as it stands.
func (d *DB) dirtyTables(rels []string) []*storage.Table {
	var out []*storage.Table
	for _, rel := range rels {
		if tb, ok := d.Store.Table(rel); ok && tb.Schema.IsDirty() && !slices.Contains(out, tb) {
			out = append(out, tb)
		}
	}
	return out
}

// UncertaintyBits returns the Shannon entropy of the candidate-database
// distribution in bits: the sum over clusters of the entropy of each
// cluster's probability function (clusters choose independently, so
// entropies add). Zero means the database is certain — every cluster is a
// singleton or concentrates all mass on one tuple; each additional bit
// doubles the effective number of equally likely clean databases.
func (d *DB) UncertaintyBits() (float64, error) {
	total := 0.0
	for _, rel := range d.DirtyRelations() {
		tb, _ := d.Store.Table(rel)
		probIdx := tb.Schema.ProbIndex()
		clusters, err := d.Clusters(rel)
		if err != nil {
			return 0, err
		}
		for _, c := range clusters {
			for _, ri := range c.Rows {
				pv := tb.Row(ri)[probIdx]
				if pv.IsNull() || !pv.IsNumeric() {
					return 0, fmt.Errorf("dirty: %s row %d has no probability", rel, ri)
				}
				if p := pv.AsFloat(); p > 0 {
					total -= p * math.Log2(p)
				}
			}
		}
	}
	return total, nil
}

// Candidate identifies one candidate database: for every dirty relation,
// the chosen row index per cluster (aligned with the Clusters order), plus
// the candidate's probability (Dfn 4: product of chosen tuple
// probabilities).
type Candidate struct {
	// Chosen maps a dirty relation name to the chosen row index for each
	// of its clusters, in Clusters order.
	Chosen map[string][]int
	Prob   float64
}

// relClusters is one dirty relation's cluster structure.
type relClusters struct {
	rel      string
	probIdx  int
	table    *storage.Table
	clusters []Cluster
}

// Candidates is the cluster structure of a list of dirty relations: the
// one index candidate counting, enumeration and sampling all draw from.
// Building it clusters every relation in it, so an evaluation builds it
// once, over the relations its statement names (DESIGN.md §17); it
// describes the relations as they were at that moment.
type Candidates []relClusters

// Candidates clusters every dirty relation, in catalog order.
func (d *DB) Candidates() (Candidates, error) {
	return d.CandidatesOf(d.Store.TableNames())
}

// CandidatesOf clusters the dirty relations among the named ones, in the
// order first named (see dirtyTables for what is skipped).
func (d *DB) CandidatesOf(rels []string) (Candidates, error) {
	var out Candidates
	for _, tb := range d.dirtyTables(rels) {
		clusters, err := d.Clusters(tb.Schema.Name)
		if err != nil {
			return nil, err
		}
		out = append(out, relClusters{
			rel:      tb.Schema.Name,
			probIdx:  tb.Schema.ProbIndex(),
			table:    tb,
			clusters: clusters,
		})
	}
	return out, nil
}

// Count is the number of candidate databases (Dfn 3) of cs's relations.
func (cs Candidates) Count() *big.Int {
	n := big.NewInt(1)
	for _, rc := range cs {
		n.Mul(n, clusterProduct(rc.clusters))
	}
	return n
}

// Clusters returns the clusters of relation rel, as Chosen[rel] indexes
// them, or nil when rel is not one of cs's relations.
func (cs Candidates) Clusters(rel string) []Cluster {
	for _, rc := range cs {
		if rc.rel == rel {
			return rc.clusters
		}
	}
	return nil
}

// NewCandidate allocates a candidate shaped for cs, for Sample to
// overwrite.
func (cs Candidates) NewCandidate() *Candidate {
	cand := &Candidate{Chosen: make(map[string][]int, len(cs))}
	for _, rc := range cs {
		cand.Chosen[rc.rel] = make([]int, len(rc.clusters))
	}
	return cand
}

// EnumerateLimit is the default cap on how many candidate databases
// EnumerateCandidates will visit before giving up.
const EnumerateLimit = 1 << 22

// EnumerateCandidates visits every candidate database (Dfn 3), calling fn
// with each candidate and its probability. fn returning false stops the
// enumeration early. It fails upfront when the candidate count exceeds
// limit (pass 0 for EnumerateLimit); exact enumeration is meant for
// verification on small databases, with the rewriting or Monte-Carlo
// evaluators covering the rest.
func (d *DB) EnumerateCandidates(limit int64, fn func(c *Candidate) bool) error {
	return d.EnumerateCandidatesCtx(context.Background(), limit, fn)
}

// EnumerateCandidatesCtx is EnumerateCandidates under a context; see
// Candidates.Enumerate.
func (d *DB) EnumerateCandidatesCtx(ctx context.Context, limit int64, fn func(c *Candidate) bool) error {
	cs, err := d.Candidates()
	if err != nil {
		return err
	}
	return cs.Enumerate(ctx, limit, fn)
}

// CheckLimit fails with a qerr.ErrTooManyCandidates error when cs has more
// candidate databases than limit (pass 0 for EnumerateLimit): the refusal
// Enumerate makes before it visits any.
func (cs Candidates) CheckLimit(limit int64) error {
	if limit <= 0 {
		limit = EnumerateLimit
	}
	if count := cs.Count(); count.Cmp(big.NewInt(limit)) > 0 {
		return fmt.Errorf("dirty: %v candidate databases exceed enumeration limit %d: %w",
			count, limit, qerr.ErrTooManyCandidates)
	}
	return nil
}

// Enumerate visits every candidate database in a fixed order — the first
// cluster of the first relation varies slowest — handing fn one Candidate
// it overwrites between calls. It polls ctx between visited candidates
// and aborts with a qerr cancellation error when it fires. An over-limit
// count surfaces as qerr.ErrTooManyCandidates (CheckLimit) so callers (the
// clean-answer ladder) can degrade to sampling instead of failing.
func (cs Candidates) Enumerate(ctx context.Context, limit int64, fn func(c *Candidate) bool) error {
	if err := cs.CheckLimit(limit); err != nil {
		return err
	}
	// Flatten all clusters across relations into one list of choice points.
	type choice struct {
		relIdx, clusterIdx int
	}
	var choices []choice
	for ri, rc := range cs {
		for ci := range rc.clusters {
			choices = append(choices, choice{relIdx: ri, clusterIdx: ci})
		}
	}
	cand := cs.NewCandidate()
	var tick qerr.Ticker
	var stopErr error
	var rec func(i int, prob float64) bool
	rec = func(i int, prob float64) bool {
		if i == len(choices) {
			if err := tick.Poll(ctx); err != nil {
				stopErr = err
				return false
			}
			cand.Prob = prob
			return fn(cand)
		}
		ch := choices[i]
		rc := cs[ch.relIdx]
		cluster := rc.clusters[ch.clusterIdx]
		for _, rowIdx := range cluster.Rows {
			p := rc.table.Row(rowIdx)[rc.probIdx].AsFloat()
			cand.Chosen[rc.rel][ch.clusterIdx] = rowIdx
			if !rec(i+1, prob*p) {
				return false
			}
		}
		return true
	}
	rec(0, 1.0)
	return stopErr
}

// Sample draws one candidate database at random, choosing each cluster's
// tuple independently according to its probability function.
func (d *DB) Sample(rng *rand.Rand) (*Candidate, error) {
	cs, err := d.Candidates()
	if err != nil {
		return nil, err
	}
	cand := cs.NewCandidate()
	cs.Sample(rng, cand)
	return cand, nil
}

// Sample overwrites cand, which NewCandidate shaped, with one candidate
// drawn at random: one rng.Float64 per cluster, in relation and cluster
// order.
func (cs Candidates) Sample(rng *rand.Rand, cand *Candidate) {
	cand.Prob = 1
	for _, rc := range cs {
		chosen := cand.Chosen[rc.rel]
		for ci, cluster := range rc.clusters {
			r := rng.Float64()
			acc := 0.0
			// A draw at or past the cluster's sum (1 - ProbEpsilon passes
			// Validate) takes the last tuple that can be chosen.
			pick, pickProb := cluster.Rows[len(cluster.Rows)-1], 0.0
			for _, rowIdx := range cluster.Rows {
				p := rc.table.Row(rowIdx)[rc.probIdx].AsFloat()
				if p <= 0 {
					continue // never chosen; acc, and with it every other draw, is unchanged
				}
				acc += p
				pick, pickProb = rowIdx, p
				if r < acc {
					break
				}
			}
			chosen[ci] = pick
			cand.Prob *= pickProb
		}
	}
}

// World is a candidate database held open for many candidates
// (DESIGN.md §17): the clean relations are the source's own tables,
// shared by reference, and each dirty relation is one table whose rows
// Fill replaces in place. Every candidate has one row per cluster, so the
// tables never change size and a plan over Store stays valid from one
// candidate to the next. Nothing in Store may be mutated except through
// Fill.
type World struct {
	Store *storage.DB
	fills []worldFill
	tick  qerr.Ticker
}

// worldFill pairs a dirty relation with the table standing for it.
type worldFill struct {
	src, dst *storage.Table
}

// NewWorld builds the world over the named relations (repeats and names
// the store does not know are skipped; the planner reports the latter). A
// fault injector installed on the source store is propagated, so injected
// insert failures fire during Fill and surface %w-wrapped to the caller.
func (d *DB) NewWorld(tables []string) (*World, error) {
	w := &World{Store: storage.NewDB()}
	w.Store.SetInjector(d.Store.Injector())
	for _, name := range tables {
		src, ok := d.Store.Table(name)
		if !ok {
			continue
		}
		if _, dup := w.Store.Table(name); dup {
			continue
		}
		if !src.Schema.IsDirty() {
			if err := w.Store.Attach(src); err != nil {
				return nil, err
			}
			continue
		}
		dst, err := w.Store.CreateTable(src.Schema)
		if err != nil {
			return nil, err
		}
		w.fills = append(w.fills, worldFill{src: src, dst: dst})
	}
	return w, nil
}

// Fill makes the world hold candidate c: each dirty relation's chosen
// tuples, in cluster order. It polls ctx between rows. After an error the
// world holds a mixture of two candidates and must be discarded.
func (w *World) Fill(ctx context.Context, c *Candidate) error {
	for _, f := range w.fills {
		for i, rowIdx := range c.Chosen[f.src.Schema.Name] {
			if err := w.tick.Poll(ctx); err != nil {
				return err
			}
			if err := f.dst.SetRow(i, f.src.Row(rowIdx)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Materialize builds a database holding exactly the candidate's chosen
// tuples for dirty relations and every tuple of clean relations. Schemas
// and the clean relations' tables are shared with the source, so the
// result is for querying, not for mutation.
func (d *DB) Materialize(c *Candidate) (*storage.DB, error) {
	return d.MaterializeCtx(context.Background(), c)
}

// MaterializeCtx is Materialize under a context: a one-candidate World
// over every relation.
func (d *DB) MaterializeCtx(ctx context.Context, c *Candidate) (*storage.DB, error) {
	w, err := d.NewWorld(d.Store.TableNames())
	if err != nil {
		return nil, err
	}
	if err := w.Fill(ctx, c); err != nil {
		return nil, err
	}
	return w.Store, nil
}
