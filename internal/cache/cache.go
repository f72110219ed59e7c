// Package cache is the engine's versioned multi-tier query cache
// (DESIGN.md §11). Clean answers are deterministic for a fixed database
// state — RewriteClean is a pure function of the query and the dirty
// tables — so repeated queries over unchanged data can be answered
// without touching the executor at all. The cache exploits that with
// three tiers, the plan and result tiers keyed by canonical SQL
// (sqlparse.Normalize) so case- and whitespace-variant spellings of one
// query share an entry:
//
//	parse tier   raw SQL text -> the engine's parsed statement and its
//	             normal form. Data-independent, never invalidated.
//	plan tier    normalized SQL -> an engine-owned prepared plan. A plan
//	             reads no row, so no write invalidates it; the engine
//	             drops one whose run failed.
//	result tier  normalized SQL (or an evaluation's key) + version
//	             vector -> the materialized result, LRU-evicted under a
//	             byte budget (Options.MaxBytes).
//
// The three are one LRU map (tier) made three times: a result entry's
// size is its bytes, a parse or plan entry's is 1, so those two tiers are
// bounded by entry count (DefaultMaxParses, DefaultMaxPlans).
//
// Invalidation is a version-vector compare: storage tables carry a
// monotonic mutation counter (storage.Table.Version), a query snapshots
// the counters of every table it references before executing, and a
// result hit requires the snapshot to match the cached vector exactly.
// There are no epochs and no TTLs — a stale entry can never be served
// because versions only move forward.
//
// Do provides singleflight deduplication: concurrent identical queries
// over the same versions share one underlying execution instead of
// stampeding the engine. The check-then-register step runs under one
// lock, so the cache guarantees exactly one execution per unique
// (query, version-vector) as long as the entry is not evicted in
// between — the property the concurrency suite asserts.
//
// Values are stored as `any` so the engine (engine.Result) and the
// clean-answer ladder (core.Result, one entry per rung outcome) share
// the implementation without import cycles. Cached values are shared
// between callers and must be treated as immutable.
package cache

import (
	"container/list"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"conquer/internal/metrics"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// DefaultMaxPlans caps the plan tier; prepared plans are small (an
// operator tree), so a few hundred cover any realistic working set of
// distinct query shapes.
const DefaultMaxPlans = 256

// DefaultMaxParses caps the parse tier; entries are a statement AST
// keyed by the raw query text.
const DefaultMaxParses = 1024

// Options configures a Cache.
type Options struct {
	// MaxBytes is the result tier's byte budget: the total bytes of
	// materialized results the cache may retain, LRU eviction reclaiming
	// them once it is full. <= 0 disables result caching (parse and plan
	// tiers still work).
	MaxBytes int64
}

// Cache is a concurrency-safe multi-tier query cache. One Cache serves
// one database: keys do not name the database, so sharing a cache
// between engines over different stores would alias their entries.
type Cache struct {
	mu      sync.Mutex
	parses  tier // raw SQL -> the engine's parsed statement
	plans   tier // normalized SQL -> an engine-owned prepared plan
	results tier // key -> a materialized result, under its version vector
	flights map[flightKey]*flight

	coalesced, executions count
}

// count is one cumulative event count: the cache's own, which Stats
// reads, and the process registry's, fed in the same step.
type count struct {
	n   atomic.Int64
	reg *metrics.Counter // nil publishes nothing
}

func (c *count) inc() { c.n.Add(1); c.reg.Inc() }

// tier is one LRU map: a key names an entry of some size, and the least
// recently used entries go while the sizes sum past max. The caller
// holds Cache.mu.
type tier struct {
	entries         map[string]*list.Element // key -> element holding an *entry
	lru             list.List                // front = most recent
	size, peak, max int64

	hits, misses, evictions, invalidations count
	sizeGauge, lenGauge                    *metrics.Gauge // nil publishes nothing
}

// entry is one tier entry. vv is its version vector: a result's, "" in
// the parse and plan tiers.
type entry struct {
	key, vv string
	val     any
	size    int64
}

// init readies an empty tier bounded by max, publishing its hits and
// misses as name+".hits" and name+".misses".
func (t *tier) init(name string, max int64) {
	t.entries = make(map[string]*list.Element)
	t.max = max
	t.hits.reg = metrics.Default.Counter(name + ".hits")
	t.misses.reg = metrics.Default.Counter(name + ".misses")
}

// get returns the value under key if its version vector is vv. An entry
// under another vector is stale: it is removed, counted as an
// invalidation, and the lookup is a miss.
func (t *tier) get(key, vv string) (any, bool) {
	if el, ok := t.entries[key]; ok {
		if e := el.Value.(*entry); e.vv == vv {
			t.lru.MoveToFront(el)
			t.hits.inc()
			return e.val, true
		}
		t.remove(el)
		t.invalidations.inc()
	}
	t.misses.inc()
	return nil, false
}

// put stores val under key and vv, replacing whatever the key held, after
// evicting least recently used entries until it fits; a value larger
// than the whole tier is not stored and evicts nothing.
func (t *tier) put(key, vv string, val any, size int64) {
	if el, ok := t.entries[key]; ok {
		t.remove(el)
	}
	if size > t.max {
		return
	}
	for t.size+size > t.max {
		last := t.lru.Back()
		if last == nil {
			return
		}
		t.remove(last)
		t.evictions.inc()
	}
	t.size += size
	t.peak = max(t.peak, t.size)
	t.entries[key] = t.lru.PushFront(&entry{key: key, vv: vv, val: val, size: size})
	t.publish()
}

// remove unlinks one entry and releases its size.
func (t *tier) remove(el *list.Element) {
	e := t.lru.Remove(el).(*entry)
	delete(t.entries, e.key)
	t.size -= e.size
	t.publish()
}

// clear removes every entry; the counts stay.
func (t *tier) clear() {
	for el := t.lru.Back(); el != nil; el = t.lru.Back() {
		t.remove(el)
	}
}

func (t *tier) publish() {
	t.sizeGauge.Set(t.size)
	t.lenGauge.Set(int64(len(t.entries)))
}

// New creates a cache under opts.
func New(opts Options) *Cache {
	c := &Cache{flights: make(map[flightKey]*flight)}
	c.parses.init("cache.parse", DefaultMaxParses)
	c.plans.init("cache.plan", DefaultMaxPlans)
	c.results.init("cache.result", opts.MaxBytes)
	reg := metrics.Default
	c.results.evictions.reg = reg.Counter("cache.result.evictions")
	c.results.invalidations.reg = reg.Counter("cache.result.invalidations")
	c.results.sizeGauge = reg.Gauge("cache.result.bytes")
	c.results.lenGauge = reg.Gauge("cache.result.entries")
	c.coalesced.reg = reg.Counter("cache.singleflight.coalesced")
	c.executions.reg = reg.Counter("cache.singleflight.executions")
	return c
}

// VersionVector snapshots the mutation counters of the named tables as
// the cache's invalidation key: "name=version" pairs over the sorted,
// deduplicated lowercase names. It reports ok=false when a table does
// not exist — the caller then bypasses the cache so the ordinary
// resolution error surfaces from planning. Every cached read computes
// one, so it costs one allocation: the string.
func VersionVector(db *storage.DB, names []string) (string, bool) {
	var few [8]*storage.Table // a FROM list; longer ones spill to the heap
	tables := few[:0]
	for _, n := range names {
		t, ok := db.Table(n)
		if !ok {
			return "", false
		}
		if !slices.Contains(tables, t) {
			tables = append(tables, t)
		}
	}
	slices.SortFunc(tables, func(a, b *storage.Table) int {
		return strings.Compare(a.Schema.Name, b.Schema.Name)
	})
	buf := make([]byte, 0, 128)
	for i, t := range tables {
		if i > 0 {
			buf = append(buf, ';')
		}
		buf = append(buf, t.Schema.Name...)
		buf = append(buf, '=')
		buf = strconv.AppendInt(buf, t.Version(), 10)
	}
	return string(buf), true
}

// SizeOfValues approximates the retained bytes of one row: the slice
// header, value.Size per element, plus string payloads.
func SizeOfValues(row []value.Value) int64 {
	n := 24 + int64(len(row))*value.Size
	for _, v := range row {
		if v.Kind() == value.KindString {
			n += int64(len(v.AsString()))
		}
	}
	return n
}

// SizeOfRows approximates the retained bytes of a materialized result.
func SizeOfRows(cols []string, rows [][]value.Value) int64 {
	n := int64(64) // result struct, slice headers
	for _, c := range cols {
		n += int64(len(c)) + 16
	}
	for _, r := range rows {
		n += SizeOfValues(r)
	}
	return n
}

// GetParse returns the parse artifact cached under the raw query text.
func (c *Cache) GetParse(raw string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parses.get(raw, "")
}

// PutParse stores a parse artifact under the raw query text.
func (c *Cache) PutParse(raw string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.parses.put(raw, "", val, 1)
}

// GetPlan returns the plan artifact cached under key.
func (c *Cache) GetPlan(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plans.get(key, "")
}

// PutPlan stores a plan artifact under key, replacing any previous entry
// for the key.
func (c *Cache) PutPlan(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plans.put(key, "", val, 1)
}

// DropPlan removes the plan cached under key (the engine calls it when a
// prepared tree errors mid-execution and is no longer trustworthy).
func (c *Cache) DropPlan(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.plans.entries[key]; ok {
		c.plans.remove(el)
	}
}

// Clear drops every entry in every tier (the `\cache clear` command).
// Cumulative statistics are preserved.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results.clear()
	c.plans.clear()
	c.parses.clear()
}

// Stats is a point-in-time snapshot of the cache.
type Stats struct {
	ParseHits, ParseMisses   int64
	PlanHits, PlanMisses     int64
	ResultHits, ResultMisses int64
	// Evictions counts result-tier entries dropped to make room under
	// the byte budget.
	Evictions int64
	// Invalidations counts result-tier entries found stale — their
	// version vector no longer the tables' — and dropped by the lookup.
	Invalidations int64
	Coalesced     int64
	// Executions counts underlying query executions started through Do —
	// the denominator the singleflight tests pin down.
	Executions int64
	// Bytes/MaxBytes/PeakBytes describe the result tier's byte budget.
	Bytes, MaxBytes, PeakBytes int64
	// Entries, Plans and Parses are the result, plan and parse tiers'
	// current entry counts.
	Entries, Plans, Parses int
}

// Stats returns the cache's cumulative counters and current occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		ParseHits:     c.parses.hits.n.Load(),
		ParseMisses:   c.parses.misses.n.Load(),
		PlanHits:      c.plans.hits.n.Load(),
		PlanMisses:    c.plans.misses.n.Load(),
		ResultHits:    c.results.hits.n.Load(),
		ResultMisses:  c.results.misses.n.Load(),
		Evictions:     c.results.evictions.n.Load(),
		Invalidations: c.results.invalidations.n.Load(),
		Coalesced:     c.coalesced.n.Load(),
		Executions:    c.executions.n.Load(),
		Bytes:         c.results.size,
		MaxBytes:      c.results.max,
		PeakBytes:     c.results.peak,
		Entries:       len(c.results.entries),
		Plans:         len(c.plans.entries),
		Parses:        len(c.parses.entries),
	}
}

// String renders the stats as the `\cache` command prints them.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "result tier:  %d hits, %d misses, %d evictions, %d invalidations\n",
		s.ResultHits, s.ResultMisses, s.Evictions, s.Invalidations)
	fmt.Fprintf(&b, "              %d entries, %d/%d bytes (peak %d)\n",
		s.Entries, s.Bytes, s.MaxBytes, s.PeakBytes)
	fmt.Fprintf(&b, "plan tier:    %d hits, %d misses, %d entries\n", s.PlanHits, s.PlanMisses, s.Plans)
	fmt.Fprintf(&b, "parse tier:   %d hits, %d misses, %d entries\n", s.ParseHits, s.ParseMisses, s.Parses)
	fmt.Fprintf(&b, "singleflight: %d executions, %d coalesced\n", s.Executions, s.Coalesced)
	return b.String()
}
