// Package conquer is the public API of ConQuer-Go, a reproduction of
// "Clean Answers over Dirty Databases: A Probabilistic Approach"
// (Andritsos, Fuxman, Miller — ICDE 2006).
//
// A Database holds relations whose tuples may be duplicated: a tuple
// matcher has grouped potential duplicates into clusters (sharing a
// cluster identifier), and each tuple carries the probability of being the
// one that belongs in the clean database. Eval answers queries over such
// data three ways, by EvalOptions.Method:
//
//   - "rewrite" rewrites a select-project-join query with the paper's
//     RewriteClean transformation and executes it once — exact
//     probabilities, no candidate-database materialization (§3).
//     CleanAnswers is the shorthand for it.
//   - "exact" enumerates every candidate database (Dfn 3-5) of the
//     relations the query names; exponential, for small data and
//     verification. A select-project-join query runs once, listing each
//     answer's derivations, and every candidate is checked against them;
//     any other query runs on every candidate.
//   - "monte-carlo" samples candidate databases; an approximation usable
//     outside the rewritable query class.
//
// By default Eval picks the strongest of the three the budget admits.
//
// The probability annotations can be supplied by the caller, or computed
// from the clustering alone with AssignProbabilities, the paper's §4
// information-loss method.
//
// Basic usage:
//
//	db := conquer.New()
//	db.MustCreateTable("customer",
//		conquer.Columns("custid STRING", "name STRING", "balance FLOAT"),
//		conquer.WithDirty("id", "prob"))
//	db.MustInsert("customer", "m1", "John", 20000.0, "c1", 0.7)
//	db.MustInsert("customer", "m2", "John", 30000.0, "c1", 0.3)
//	res, err := db.CleanAnswers("select id from customer where balance > 10000")
package conquer

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"conquer/internal/cache"
	"conquer/internal/core"
	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/matching"
	"conquer/internal/probcalc"
	"conquer/internal/rewrite"
	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// Database is a queryable collection of (possibly dirty) relations.
type Database struct {
	d     *dirty.DB
	cache *cache.Cache
	// parallelism is the worker count every engine runs under.
	parallelism int
}

// New creates an empty database.
func New() *Database {
	return &Database{d: dirty.New(storage.NewDB())}
}

// newEngine builds an engine over the store under the database's cache,
// its parallelism and the given budget. An engine holds
// no state, so every query builds its own.
func (db *Database) newEngine(lim Limits) *engine.Engine {
	return engine.NewWithOptions(db.d.Store, engine.Options{
		Limits:      lim.internal(),
		Cache:       db.cache,
		Parallelism: db.parallelism,
	})
}

// EnableCache attaches a versioned multi-tier query cache (DESIGN.md
// §11) sized to maxBytes of materialized results; plain queries and
// clean-answer evaluations are then memoized and invalidated
// automatically when tables mutate. maxBytes <= 0 turns caching off
// again. It returns db for chaining.
func (db *Database) EnableCache(maxBytes int64) *Database {
	if maxBytes <= 0 {
		db.cache = nil
	} else {
		db.cache = cache.New(cache.Options{MaxBytes: maxBytes})
	}
	return db
}

// SetParallelism sets the engine's worker count for subsequent queries
// (0 tracks GOMAXPROCS, 1 forces serial execution). It returns db for
// chaining.
func (db *Database) SetParallelism(n int) *Database {
	db.parallelism = n
	return db
}

// CacheStats renders the cache's statistics ("" when caching is off).
func (db *Database) CacheStats() string {
	if db.cache == nil {
		return ""
	}
	return db.cache.Stats().String()
}

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type string // INT, FLOAT, STRING/VARCHAR/DATE, BOOL
}

// Columns parses "name TYPE" column specifications; a bare name defaults
// to STRING. Blank specifications yield an unnamed column, which
// CreateTable rejects with a proper error.
func Columns(specs ...string) []Column {
	out := make([]Column, len(specs))
	for i, s := range specs {
		fields := strings.Fields(s)
		c := Column{Type: "STRING"}
		if len(fields) > 0 {
			c.Name = fields[0]
		}
		if len(fields) > 1 {
			c.Type = fields[1]
		}
		out[i] = c
	}
	return out
}

// TableOption customizes CreateTable; construct one with WithDirty or
// WithForeignKey.
type TableOption struct {
	apply func(*schema.Relation) error
}

// WithDirty marks the table dirty: identifier names the cluster-identifier
// column and prob the probability column; either is added (STRING / FLOAT)
// if not declared.
func WithDirty(identifier, prob string) TableOption {
	//lint:allow probflow -- metadata-only: probabilities are checked by Database.Validate / NormalizeProbabilities after loading
	return TableOption{apply: func(r *schema.Relation) error { return r.SetDirty(identifier, prob) }}
}

// WithForeignKey declares that column references refColumn of refTable —
// the edge Propagate uses to rewrite pre-matching keys into cluster
// identifiers.
func WithForeignKey(column, refTable, refColumn string) TableOption {
	return TableOption{apply: func(r *schema.Relation) error { return r.AddForeignKey(column, refTable, refColumn) }}
}

// CreateTable registers a new relation.
func (db *Database) CreateTable(name string, cols []Column, opts ...TableOption) error {
	sc := make([]schema.Column, len(cols))
	for i, c := range cols {
		k, err := value.ParseKind(c.Type)
		if err != nil {
			return err
		}
		sc[i] = schema.Column{Name: c.Name, Type: k}
	}
	rel, err := schema.NewRelation(name, sc...)
	if err != nil {
		return err
	}
	for _, opt := range opts {
		if err := opt.apply(rel); err != nil {
			return err
		}
	}
	_, err = db.d.Store.CreateTable(rel)
	return err
}

// MustCreateTable is CreateTable that panics on error; for tests and
// static fixtures only.
func (db *Database) MustCreateTable(name string, cols []Column, opts ...TableOption) {
	if err := db.CreateTable(name, cols, opts...); err != nil {
		panic(err) //lint:allow nopanic -- fixture constructor, documented to panic
	}
}

// Insert appends one row; values follow the declared column order
// (including any identifier/prob columns added by WithDirty, which come
// last). Accepted Go types: nil, bool, int, int64, float64, string.
func (db *Database) Insert(table string, values ...any) error {
	tb, ok := db.d.Store.Table(table)
	if !ok {
		return fmt.Errorf("conquer: unknown table %q", table)
	}
	row := make([]value.Value, len(values))
	for i, v := range values {
		cv, err := toValue(v)
		if err != nil {
			return err
		}
		row[i] = cv
	}
	return tb.Insert(row)
}

// MustInsert is Insert that panics on error; for tests and static
// fixtures only.
func (db *Database) MustInsert(table string, values ...any) {
	if err := db.Insert(table, values...); err != nil {
		panic(err) //lint:allow nopanic -- fixture constructor, documented to panic
	}
}

// LoadCSV bulk-loads rows from a CSV file whose header names the table's
// columns (any order, all present).
func (db *Database) LoadCSV(table, path string) error {
	tb, ok := db.d.Store.Table(table)
	if !ok {
		return fmt.Errorf("conquer: unknown table %q", table)
	}
	return tb.LoadCSVFile(path)
}

// SaveCSV writes the table to a CSV file.
func (db *Database) SaveCSV(table, path string) error {
	tb, ok := db.d.Store.Table(table)
	if !ok {
		return fmt.Errorf("conquer: unknown table %q", table)
	}
	return tb.SaveCSVFile(path)
}

func toValue(v any) (value.Value, error) {
	switch v := v.(type) {
	case nil:
		return value.Null(), nil
	case bool:
		return value.Bool(v), nil
	case int:
		return value.Int(int64(v)), nil
	case int64:
		return value.Int(v), nil
	case float64:
		return value.Float(v), nil
	case string:
		return value.Str(v), nil
	default:
		return value.Null(), fmt.Errorf("conquer: unsupported value type %T", v)
	}
}

func fromValue(v value.Value) any {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindInt:
		return v.AsInt()
	case value.KindFloat:
		return v.AsFloat()
	case value.KindString:
		return v.AsString()
	case value.KindBool:
		return v.AsBool()
	}
	return nil
}

// Rows is a plain (non-probabilistic) query result.
type Rows struct {
	Columns []string
	Rows    [][]any
}

// Query runs ordinary SQL directly on the stored (dirty) data — the
// baseline the paper compares its rewritten queries against.
func (db *Database) Query(sql string) (*Rows, error) {
	return db.QueryCtx(context.Background(), sql, Limits{})
}

func toRows(res *engine.Result, err error) (*Rows, error) {
	if err != nil {
		return nil, err
	}
	out := &Rows{Columns: res.Columns}
	for _, r := range res.Rows {
		row := make([]any, len(r))
		for i, v := range r {
			row[i] = fromValue(v)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Explain returns the physical plan for sql.
func (db *Database) Explain(sql string) (string, error) {
	return db.newEngine(Limits{}).Explain(sql)
}

// CleanAnswer is one answer tuple with its probability of being an answer
// on the clean database.
type CleanAnswer struct {
	Values []any
	Prob   float64
	// StdErr is the standard error of Prob: 0 for exact methods; for
	// Monte-Carlo, the Wald estimate sqrt(p(1-p)/n), never exceeding the
	// worst-case bound CleanResult.StdErr.
	StdErr float64
}

// CleanResult is a set of clean answers, sorted by answer tuple.
type CleanResult struct {
	Columns []string
	Answers []CleanAnswer

	// Method names the evaluator that produced the answers: "exact",
	// "rewrite" or "monte-carlo". Eval fills it so callers can tell an
	// exact result from an estimate; the fixed-method entry points fill
	// it too.
	Method string
	// Samples is the Monte-Carlo sample count (0 for exact methods).
	Samples int
	// Degraded lists the rungs Eval abandoned before Method answered, in
	// ladder order, as "method(reason)" strings — e.g.
	// "rewrite(not-rewritable)", "exact(candidates)". Empty when the
	// rewriting, the first rung, answered or a fixed-method entry point was
	// called.
	Degraded []string
	// Elapsed is the wall time the evaluation took (the cache-lookup
	// latency when Cached).
	Elapsed time.Duration
	// Cached reports that the answers were served from the query cache
	// (EnableCache) instead of recomputed.
	Cached bool
	// StdErr bounds the standard error of each probability: 0 for exact
	// methods, at most 1/(2*sqrt(Samples)) for Monte-Carlo.
	StdErr float64
}

// Find returns the probability of the given answer tuple, or 0.
func (r *CleanResult) Find(values ...any) float64 {
	for _, a := range r.Answers {
		if len(a.Values) != len(values) {
			continue
		}
		match := true
		for i := range values {
			if !anyEqual(a.Values[i], values[i]) {
				match = false
				break
			}
		}
		if match {
			return a.Prob
		}
	}
	return 0
}

func anyEqual(a, b any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	av, errA := toValue(a)
	bv, errB := toValue(b)
	if errA != nil || errB != nil {
		return false
	}
	return value.Identical(av, bv)
}

func convertResult(res *core.Result) *CleanResult {
	out := &CleanResult{
		Columns: res.Columns,
		Method:  res.Method.String(),
		Samples: res.Samples,
		StdErr:  res.StdErr,
		Elapsed: res.Elapsed,
		Cached:  res.Cached,
	}
	for _, d := range res.Degraded {
		out.Degraded = append(out.Degraded, d.String())
	}
	for _, a := range res.Answers {
		vals := make([]any, len(a.Values))
		for i, v := range a.Values {
			vals[i] = fromValue(v)
		}
		out.Answers = append(out.Answers, CleanAnswer{Values: vals, Prob: a.Prob, StdErr: a.StdErr})
	}
	return out
}

// CleanAnswers computes the clean answers of a rewritable SPJ query via
// the paper's query rewriting (§3): Eval with Method "rewrite". It fails
// with an explanation when the query is outside the rewritable class
// (Dfn 7).
func (db *Database) CleanAnswers(sql string) (*CleanResult, error) {
	return db.Eval(context.Background(), sql, EvalOptions{Method: "rewrite"})
}

// CleanAnswersAugmented is CleanAnswers that repairs condition-4
// violations: when the only obstacle to rewriting is that the join-graph
// root's identifier is not projected, the identifier is added as the
// first output column (the paper notes this "is not an onerous
// restriction") and the clean answers of that finer query are returned.
// augmented reports whether the repair was applied.
func (db *Database) CleanAnswersAugmented(sql string) (res *CleanResult, augmented bool, err error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, false, err
	}
	aug, augmented, err := rewrite.Augment(db.d.Store.Catalog, stmt)
	if err != nil {
		return nil, false, err
	}
	res, err = db.eval(context.Background(), aug, Limits{}, core.EvalOptions{Method: core.MethodRewrite})
	if err != nil {
		return nil, false, err
	}
	return res, augmented, nil
}

// RewriteSQL returns the RewriteClean output for sql as SQL text, without
// executing it.
func (db *Database) RewriteSQL(sql string) (string, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	rw, err := rewrite.RewriteClean(db.d.Store.Catalog, stmt)
	if err != nil {
		return "", err
	}
	return rw.SQL(), nil
}

// IsRewritable reports whether sql is in the rewritable class of Dfn 7;
// when it is not, reasons lists the violated conditions.
func (db *Database) IsRewritable(sql string) (ok bool, reasons []string, err error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return false, nil, err
	}
	a, err := rewrite.Analyze(db.d.Store.Catalog, stmt)
	if err != nil {
		return false, nil, err
	}
	return a.Rewritable, a.Reasons, nil
}

// Validate checks that every dirty relation's cluster probabilities form
// valid distributions (Dfn 2).
func (db *Database) Validate() error { return db.d.Validate() }

// NormalizeProbabilities rescales each cluster's probabilities to sum to
// one.
func (db *Database) NormalizeProbabilities() error { return db.d.Normalize() }

// MatchTuples runs the built-in tuple matcher on a dirty table: rows are
// clustered by similarity over attrCols (nil for all attributes) and the
// identifier column is filled with cluster identifiers prefixed by prefix.
// It returns the number of clusters.
func (db *Database) MatchTuples(table string, attrCols []string, prefix string, threshold float64) (int, error) {
	tb, ok := db.d.Store.Table(table)
	if !ok {
		return 0, fmt.Errorf("conquer: unknown table %q", table)
	}
	return matching.MatchTable(tb, attrCols, prefix, matching.Config{Threshold: threshold})
}

// AssignProbabilities computes tuple probabilities for a dirty table from
// its clustering using the paper's §4 information-loss method and writes
// them into the probability column. The per-cluster work runs on the
// database's parallelism (SetParallelism); the probabilities are
// bit-identical to a serial pass at every setting, because the Figure-5
// arithmetic never crosses a cluster boundary.
func (db *Database) AssignProbabilities(table string, attrCols []string) error {
	tb, ok := db.d.Store.Table(table)
	if !ok {
		return fmt.Errorf("conquer: unknown table %q", table)
	}
	par := db.newEngine(Limits{}).Options().Parallelism
	return probcalc.AnnotateTableCtx(context.Background(), tb, attrCols, nil, par)
}

// Propagate performs identifier propagation along every declared foreign
// key (§2.1), returning the number of rewritten values.
func (db *Database) Propagate() (int, error) { return db.d.PropagateAll() }

// CandidateCount returns the number of candidate databases as a decimal
// string (it is exponential in the number of clusters).
func (db *Database) CandidateCount() (string, error) {
	n, err := db.d.CandidateCount()
	if err != nil {
		return "", err
	}
	return n.String(), nil
}

// UncertaintyBits returns the Shannon entropy of the candidate-database
// distribution: how uncertain the clean database is, in bits. Zero means
// certainty; each additional bit doubles the effective number of equally
// likely clean databases.
func (db *Database) UncertaintyBits() (float64, error) { return db.d.UncertaintyBits() }

// TopK returns the k most probable answers, most likely first (ties
// broken by answer tuple).
func (r *CleanResult) TopK(k int) []CleanAnswer {
	sorted := append([]CleanAnswer(nil), r.Answers...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Prob > sorted[j].Prob
	})
	if k > len(sorted) {
		k = len(sorted)
	}
	if k < 0 {
		k = 0
	}
	return sorted[:k]
}

// AtLeast filters the result to answers with probability >= p. Only the
// answers change: the method, sample count, error bound and degradation
// chain stay, so a filtered estimate still reads as one.
func (r *CleanResult) AtLeast(p float64) *CleanResult {
	out := *r
	out.Answers = nil
	for _, a := range r.Answers {
		if a.Prob >= p {
			out.Answers = append(out.Answers, a)
		}
	}
	return &out
}

// ConsistentAnswers filters a clean-answer result down to the certain
// answers (probability 1) — the consistent answers of Arenas et al., which
// the paper generalizes.
func ConsistentAnswers(r *CleanResult) *CleanResult { return r.AtLeast(1 - 1e-9) }

// String renders the result as an aligned table, probabilities last.
func (r *CleanResult) String() string {
	var b strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(c)
	}
	b.WriteString("  prob\n")
	for _, a := range r.Answers {
		for i, v := range a.Values {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%v", v)
		}
		p := math.Round(a.Prob*10000) / 10000
		fmt.Fprintf(&b, "  %g\n", p)
	}
	return b.String()
}
