// Package cache is the engine's versioned multi-tier query cache
// (DESIGN.md §11). Clean answers are deterministic for a fixed database
// state — RewriteClean is a pure function of the query and the dirty
// tables — so repeated queries over unchanged data can be answered
// without touching the executor at all. The cache exploits that with
// three tiers, each keyed by canonical SQL (sqlparse.Normalize) so
// case- and whitespace-variant spellings of one query share an entry:
//
//	parse tier   raw SQL text -> parsed statement + normalized text.
//	             Data-independent, never invalidated.
//	plan tier    normalized SQL + planner options -> an engine-owned
//	             prepared plan, validated against a version vector.
//	result tier  normalized SQL + options + version vector -> the
//	             materialized result, LRU-evicted under a byte budget
//	             (Options.MaxBytes).
//
// Invalidation is a version-vector compare: storage tables carry a
// monotonic mutation counter (storage.Table.Version), a query snapshots
// the counters of every table it references before executing, and a hit
// requires the snapshot to match the cached vector exactly. There are no
// epochs and no TTLs — a stale entry can never be served because
// versions only move forward.
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
	// Registry receives the cache's hit/miss/eviction/coalesced counters
	// (metrics.Default when nil).
	Registry *metrics.Registry
}

// Cache is a concurrency-safe multi-tier query cache. One Cache serves
// one database: keys do not name the database, so sharing a cache
// between engines over different stores would alias their entries.
type Cache struct {
	mu       sync.Mutex
	results  map[string]*list.Element // key -> LRU element (resultEntry)
	resLRU   *list.List               // front = most recent
	plans    map[string]*list.Element // key -> LRU element (planEntry)
	planLRU  *list.List
	parses   map[string]*list.Element // raw SQL -> LRU element (parseEntry)
	parseLRU *list.List
	flights  map[flightKey]*flight
	// The result tier's byte budget: bytes held now, their high-water
	// mark, and the capacity.
	bytes, peakBytes, maxBytes int64

	stats counters
	met   metricSet
}

// resultEntry is one result-tier entry.
type resultEntry struct {
	key   string
	vv    string
	val   any
	bytes int64
}

// planEntry is one plan-tier entry; val is engine-owned.
type planEntry struct {
	key string
	vv  string
	val any
}

// parseEntry is one parse-tier entry.
type parseEntry struct {
	raw  string
	val  any
	norm string
}

// counters is the cache's own cumulative accounting, kept separate from
// the process registry so per-cache stats survive registry sharing.
type counters struct {
	parseHits, parseMisses   atomic.Int64
	planHits, planMisses     atomic.Int64
	resultHits, resultMisses atomic.Int64
	evictions, invalidations atomic.Int64
	coalesced, executions    atomic.Int64
}

// metricSet holds the registry counters the cache feeds; all pointers,
// fetched once at construction (nil-safe by metrics' design).
type metricSet struct {
	parseHits, parseMisses   *metrics.Counter
	planHits, planMisses     *metrics.Counter
	resultHits, resultMisses *metrics.Counter
	evictions, invalidations *metrics.Counter
	coalesced, executions    *metrics.Counter
	bytes, entries           *metrics.Gauge
}

// New creates a cache under opts.
func New(opts Options) *Cache {
	reg := opts.Registry
	if reg == nil {
		reg = metrics.Default
	}
	return &Cache{
		maxBytes: opts.MaxBytes,
		results:  make(map[string]*list.Element),
		resLRU:   list.New(),
		plans:    make(map[string]*list.Element),
		planLRU:  list.New(),
		parses:   make(map[string]*list.Element),
		parseLRU: list.New(),
		flights:  make(map[flightKey]*flight),
		met: metricSet{
			parseHits:     reg.Counter("cache.parse.hits"),
			parseMisses:   reg.Counter("cache.parse.misses"),
			planHits:      reg.Counter("cache.plan.hits"),
			planMisses:    reg.Counter("cache.plan.misses"),
			resultHits:    reg.Counter("cache.result.hits"),
			resultMisses:  reg.Counter("cache.result.misses"),
			evictions:     reg.Counter("cache.result.evictions"),
			invalidations: reg.Counter("cache.result.invalidations"),
			coalesced:     reg.Counter("cache.singleflight.coalesced"),
			executions:    reg.Counter("cache.singleflight.executions"),
			bytes:         reg.Gauge("cache.result.bytes"),
			entries:       reg.Gauge("cache.result.entries"),
		},
	}
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

// --- parse tier -----------------------------------------------------------

// GetParse returns the cached parse artifact for the raw query text: the
// caller-stored value (a statement AST) and the normalized SQL.
func (c *Cache) GetParse(raw string) (val any, norm string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.parses[raw]
	if !ok {
		c.stats.parseMisses.Add(1)
		c.met.parseMisses.Inc()
		return nil, "", false
	}
	c.parseLRU.MoveToFront(el)
	e := el.Value.(*parseEntry)
	c.stats.parseHits.Add(1)
	c.met.parseHits.Inc()
	return e.val, e.norm, true
}

// PutParse stores a parse artifact under the raw query text.
func (c *Cache) PutParse(raw string, val any, norm string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.parses[raw]; ok {
		c.parseLRU.MoveToFront(el)
		e := el.Value.(*parseEntry)
		e.val, e.norm = val, norm
		return
	}
	c.parses[raw] = c.parseLRU.PushFront(&parseEntry{raw: raw, val: val, norm: norm})
	for len(c.parses) > DefaultMaxParses {
		last := c.parseLRU.Back()
		c.parseLRU.Remove(last)
		delete(c.parses, last.Value.(*parseEntry).raw)
	}
}

// --- plan tier ------------------------------------------------------------

// GetPlan returns the plan artifact cached under key if its version
// vector still matches vv; a stale entry is dropped and counts as an
// invalidation.
func (c *Cache) GetPlan(key, vv string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.plans[key]
	if ok {
		e := el.Value.(*planEntry)
		if e.vv == vv {
			c.planLRU.MoveToFront(el)
			c.stats.planHits.Add(1)
			c.met.planHits.Inc()
			return e.val, true
		}
		c.planLRU.Remove(el)
		delete(c.plans, key)
		c.stats.invalidations.Add(1)
		c.met.invalidations.Inc()
	}
	c.stats.planMisses.Add(1)
	c.met.planMisses.Inc()
	return nil, false
}

// PutPlan stores a plan artifact under key and version vector vv,
// replacing any previous entry for the key.
func (c *Cache) PutPlan(key, vv string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.plans[key]; ok {
		c.planLRU.MoveToFront(el)
		e := el.Value.(*planEntry)
		e.vv, e.val = vv, val
		return
	}
	c.plans[key] = c.planLRU.PushFront(&planEntry{key: key, vv: vv, val: val})
	for len(c.plans) > DefaultMaxPlans {
		last := c.planLRU.Back()
		c.planLRU.Remove(last)
		delete(c.plans, last.Value.(*planEntry).key)
	}
}

// DropPlan removes the plan cached under key (the engine calls it when a
// prepared tree errors mid-execution and is no longer trustworthy).
func (c *Cache) DropPlan(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.plans[key]; ok {
		c.planLRU.Remove(el)
		delete(c.plans, key)
	}
}

// --- result tier ----------------------------------------------------------

// GetResult returns the result cached under key if its version vector
// matches vv. A vector mismatch deletes the stale entry (its bytes are
// reclaimed immediately) and reports a miss.
func (c *Cache) GetResult(key, vv string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupLocked(key, vv)
}

// lookupLocked is GetResult under c.mu — shared with Do, whose
// check-then-register must be atomic.
func (c *Cache) lookupLocked(key, vv string) (any, bool) {
	el, ok := c.results[key]
	if ok {
		e := el.Value.(*resultEntry)
		if e.vv == vv {
			c.resLRU.MoveToFront(el)
			c.stats.resultHits.Add(1)
			c.met.resultHits.Inc()
			return e.val, true
		}
		c.removeResultLocked(el)
		c.stats.invalidations.Add(1)
		c.met.invalidations.Inc()
	}
	c.stats.resultMisses.Add(1)
	c.met.resultMisses.Inc()
	return nil, false
}

// PutResult admits a result of the given byte size under key and version
// vector vv. Least-recently-used entries are evicted until the byte
// budget admits the newcomer; a result larger than the whole budget is
// simply not cached.
func (c *Cache) PutResult(key, vv string, val any, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putResultLocked(key, vv, val, bytes)
}

func (c *Cache) putResultLocked(key, vv string, val any, bytes int64) {
	if el, ok := c.results[key]; ok {
		c.removeResultLocked(el) // replace whatever vintage was there
	}
	for c.bytes+bytes > c.maxBytes {
		last := c.resLRU.Back()
		if last == nil {
			return // larger than the whole budget: don't cache
		}
		c.removeResultLocked(last)
		c.stats.evictions.Add(1)
		c.met.evictions.Inc()
	}
	c.bytes += bytes
	c.peakBytes = max(c.peakBytes, c.bytes)
	c.results[key] = c.resLRU.PushFront(&resultEntry{key: key, vv: vv, val: val, bytes: bytes})
	c.met.bytes.Set(c.bytes)
	c.met.entries.Set(int64(len(c.results)))
}

// removeResultLocked unlinks one result entry and releases its bytes.
func (c *Cache) removeResultLocked(el *list.Element) {
	e := el.Value.(*resultEntry)
	c.resLRU.Remove(el)
	delete(c.results, e.key)
	c.bytes -= e.bytes
	c.met.bytes.Set(c.bytes)
	c.met.entries.Set(int64(len(c.results)))
}

// Clear drops every entry in every tier (the `\cache clear` command).
// Cumulative statistics are preserved.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.resLRU.Back() != nil {
		c.removeResultLocked(c.resLRU.Back())
	}
	c.plans = make(map[string]*list.Element)
	c.planLRU.Init()
	c.parses = make(map[string]*list.Element)
	c.parseLRU.Init()
}

// Stats is a point-in-time snapshot of the cache.
type Stats struct {
	ParseHits, ParseMisses   int64
	PlanHits, PlanMisses     int64
	ResultHits, ResultMisses int64
	Evictions                int64
	Invalidations            int64
	Coalesced                int64
	// Executions counts underlying query executions started through Do —
	// the denominator the singleflight tests pin down.
	Executions int64
	// Bytes/MaxBytes/PeakBytes describe the result tier's byte budget.
	Bytes, MaxBytes, PeakBytes int64
	// Entries and Plans are current result- and plan-tier entry counts.
	Entries, Plans, Parses int
}

// Stats returns the cache's cumulative counters and current occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		ParseHits:     c.stats.parseHits.Load(),
		ParseMisses:   c.stats.parseMisses.Load(),
		PlanHits:      c.stats.planHits.Load(),
		PlanMisses:    c.stats.planMisses.Load(),
		ResultHits:    c.stats.resultHits.Load(),
		ResultMisses:  c.stats.resultMisses.Load(),
		Evictions:     c.stats.evictions.Load(),
		Invalidations: c.stats.invalidations.Load(),
		Coalesced:     c.stats.coalesced.Load(),
		Executions:    c.stats.executions.Load(),
		Bytes:         c.bytes,
		MaxBytes:      c.maxBytes,
		PeakBytes:     c.peakBytes,
		Entries:       len(c.results),
		Plans:         len(c.plans),
		Parses:        len(c.parses),
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
