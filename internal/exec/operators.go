package exec

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"conquer/internal/qerr"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// Scan reads the rows of a stored table, tagging columns with the query
// alias so references resolve per-occurrence. It claims the table's
// morsels from a cursor, its own or the one the parts of a split share,
// and a batch never spans one: morsel is the last batch's, claims the
// count EXPLAIN ANALYZE reports per worker. Only a shared scan tags rows
// with their ordinals: nothing reassembles a single part.
type Scan struct {
	Table *storage.Table
	Alias string

	govHolder
	statsHolder
	schema RowSchema
	cursor *morselCursor // &own, or the cursor of the split the scan is a part of
	own    morselCursor
	grid   int // rows per morsel of own; 0 makes the table one morsel
	morsel int
	claims int
	pos    int
	end    int
}

// NewScan builds a scan of tb under the given alias.
func NewScan(tb *storage.Table, alias string) *Scan {
	s := &Scan{Table: tb, Alias: strings.ToLower(alias)}
	s.schema = tableSchema(tb, s.Alias)
	return s
}

// tableSchema is the row layout of tb's stored rows under alias.
func tableSchema(tb *storage.Table, alias string) RowSchema {
	rs := make(RowSchema, len(tb.Schema.Columns))
	for i, c := range tb.Schema.Columns {
		rs[i] = ColInfo{Qualifier: alias, Name: c.Name, Type: c.Type}
	}
	return rs
}

func (s *Scan) Schema() RowSchema { return s.schema }

// Open starts the scan over. A scan of its own cursor rewinds it, on its
// grid; a part leaves the shared cursor alone, since the split that made
// it rewound it, and rewinding it per part would race.
func (s *Scan) Open() error {
	s.stats.markOpen()
	if s.cursor == nil || s.cursor == &s.own {
		n := s.Table.Len()
		s.cursor = &s.own
		s.own.next.Store(0)
		s.own.size, s.own.total = cmp.Or(s.grid, max(n, 1)), n
	}
	s.pos, s.end, s.morsel, s.claims = 0, 0, -1, 0
	return nil
}

func (s *Scan) Close() error { s.stats.markDone(); return nil }

// Describe implements Operator.
func (s *Scan) Describe() string {
	return fmt.Sprintf("Scan(%s AS %s, %d rows)", s.Table.Schema.Name, s.Alias, s.Table.Len())
}

// Filter passes through child rows satisfying the predicate.
type Filter struct {
	Child Operator
	Pred  sqlparse.Expr

	govHolder
	statsHolder
	test func([]value.Value) (bool, error)
}

// NewFilter compiles pred against the child schema.
func NewFilter(child Operator, pred sqlparse.Expr) (*Filter, error) {
	test, err := CompilePredicate(pred, child.Schema())
	if err != nil {
		return nil, err
	}
	return &Filter{Child: child, Pred: pred, test: test}, nil
}

func (f *Filter) Schema() RowSchema { return f.Child.Schema() }
func (f *Filter) Open() error       { f.stats.markOpen(); return f.Child.Open() }
func (f *Filter) Close() error      { f.stats.markDone(); return f.Child.Close() }

// Describe implements Operator.
func (f *Filter) Describe() string { return "Filter(" + f.Pred.SQL() + ")" }

// Project computes output columns from expressions over child rows.
type Project struct {
	Child Operator

	govHolder
	statsHolder
	schema RowSchema
	evals  []Evaluator
	// passthrough[i] is the child column position when output i is a
	// plain column reference (-1 otherwise); NextBatch copies those values
	// directly instead of calling the evaluator.
	passthrough []int
	scratch     *Batch        // child-side batch, reused across NextBatch calls
	out         []value.Value // the last output slab, refilled when the consumer's batch is transient
}

// ProjectionCol pairs an output column descriptor with its source
// expression.
type ProjectionCol struct {
	Expr sqlparse.Expr
	Col  ColInfo
}

// NewProject compiles the projection list against the child schema.
func NewProject(child Operator, cols []ProjectionCol) (*Project, error) {
	p := &Project{Child: child}
	for _, pc := range cols {
		ev, err := Compile(pc.Expr, child.Schema())
		if err != nil {
			return nil, err
		}
		src := -1
		if ref, ok := pc.Expr.(*sqlparse.ColumnRef); ok {
			if idx, err := child.Schema().Resolve(ref.Qualifier, ref.Name); err == nil {
				src = idx
			}
		}
		p.evals = append(p.evals, ev)
		p.passthrough = append(p.passthrough, src)
		p.schema = append(p.schema, pc.Col)
	}
	return p, nil
}

func (p *Project) Schema() RowSchema { return p.schema }
func (p *Project) Open() error       { p.stats.markOpen(); return p.Child.Open() }

// Close drops the child-side batch with the rows it references, and the
// output slab: a closed tree — one parked in the plan cache, say — holds
// its plan and nothing of its last run.
func (p *Project) Close() error {
	p.stats.markDone()
	p.scratch, p.out = nil, nil
	return p.Child.Close()
}

// Describe implements Operator.
func (p *Project) Describe() string {
	names := make([]string, len(p.schema))
	for i, c := range p.schema {
		names[i] = c.Name
	}
	return "Project(" + strings.Join(names, ", ") + ")"
}

// joinOutput is the output side of a join: which columns of the
// concatenation left‖right a joined row keeps. The constructor
// installs the identity (every column, in order); the planner narrows it
// to the columns some operator above the join still reads (DESIGN.md
// §16), so the one place a join copies values copies only those.
type joinOutput struct {
	schema RowSchema
	cols   []int // positions in left‖right; nil = identity
	nLeft  int   // width of the left input
	nFull  int   // width of left‖right
}

func newJoinOutput(left, right RowSchema) joinOutput {
	return joinOutput{schema: left.Concat(right), nLeft: len(left), nFull: len(left) + len(right)}
}

// Schema is the join's (possibly narrowed) output layout.
func (o *joinOutput) Schema() RowSchema { return o.schema }

// Narrow restricts the join's output to the listed positions of
// left‖right, in list order; nil keeps the identity. Key expressions are
// unaffected: they bind to the inputs, not the output.
func (o *joinOutput) Narrow(cols []int) error {
	if cols == nil {
		return nil
	}
	if o.cols != nil {
		return fmt.Errorf("exec: join output narrowed twice: %w", qerr.ErrInternal)
	}
	pruned := make(RowSchema, len(cols))
	for i, c := range cols {
		if c < 0 || c >= o.nFull {
			return fmt.Errorf("exec: join output column %d out of range (width %d): %w", c, o.nFull, qerr.ErrInternal)
		}
		pruned[i] = o.schema[c]
	}
	o.schema, o.cols = pruned, cols
	return nil
}

// emit writes the joined row of left and right into dst, which must be
// len(Schema()) wide.
func (o *joinOutput) emit(dst, left, right []value.Value) {
	if o.cols == nil {
		copy(dst[copy(dst, left):], right)
		return
	}
	for i, c := range o.cols {
		if c < o.nLeft {
			dst[i] = left[c]
		} else {
			dst[i] = right[c-o.nLeft]
		}
	}
}

// describeCols is the EXPLAIN suffix of a narrowed join: kept/total
// columns. Identity joins print nothing.
func (o *joinOutput) describeCols() string {
	if o.cols == nil {
		return ""
	}
	return fmt.Sprintf(" cols=%d/%d", len(o.cols), o.nFull)
}

// HashJoin is the executor's join: it builds a hash table on the right
// input keyed by the right key expressions, then probes with left rows.
// NULL join keys match nothing, as in SQL. With no keys every row hashes
// to the one bucket and every pair matches: the Cartesian product the
// planner asks for when the FROM list's join graph is disconnected.
//
// On a run of several workers the build's workers drain the split right
// input into runs of their own, which one merge in morsel order writes
// into the entry vector (see joinBuild); splitPipeline additionally
// splits the probe side into parts sharing one build.
type HashJoin struct {
	Left, Right         Operator
	LeftKeys, RightKeys []sqlparse.Expr

	govHolder
	statsHolder
	joinOutput
	lk, rk  []Evaluator
	build   *joinBuild
	part    bool          // probe part sharing a split-time build
	next    int32         // link to the next build entry of the pending bucket, 0 at its end
	curHash uint64        // hash of the pending probe keys
	curKeys []value.Value // probe keys of the pending bucket
	curLeft []value.Value

	// The pending probe batch with its pre-computed key hashes
	// (probeKeys[i] == nil marks a NULL key) and the slab the keys sit in.
	bp        batchProbe
	probeHash []uint64
	probeKeys [][]value.Value
	keySlab   []value.Value
}

// buildEntry is one row of joinBuild's entry vector: the row, its keys and
// their hash, and next, the link to the next entry of its bucket. A link
// is an index into the vector plus one, so that the zero value — of the
// field and of an empty head slot — ends a chain.
type buildEntry struct {
	keys []value.Value
	row  []value.Value
	hash uint64
	next int32
}

// NewHashJoin compiles the key expressions against the respective inputs;
// two empty lists make a cross join.
func NewHashJoin(left, right Operator, leftKeys, rightKeys []sqlparse.Expr) (*HashJoin, error) {
	if len(leftKeys) != len(rightKeys) {
		return nil, fmt.Errorf("exec: hash join needs key lists of one length, got %d and %d", len(leftKeys), len(rightKeys))
	}
	j := &HashJoin{Left: left, Right: right, LeftKeys: leftKeys, RightKeys: rightKeys}
	j.joinOutput = newJoinOutput(left.Schema(), right.Schema())
	for _, k := range leftKeys {
		ev, err := Compile(k, left.Schema())
		if err != nil {
			return nil, err
		}
		j.lk = append(j.lk, ev)
	}
	for _, k := range rightKeys {
		ev, err := Compile(k, right.Schema())
		if err != nil {
			return nil, err
		}
		j.rk = append(j.rk, ev)
	}
	return j, nil
}

// Open builds (or, for a probe part, waits for) the hash table over the
// right input.
func (j *HashJoin) Open() error {
	j.stats.markOpen()
	if err := j.Left.Open(); err != nil {
		return err
	}
	if !j.part {
		j.build = newJoinBuild(j.Right, j.rk, 1, j.stats)
	} else if j.build == nil {
		return fmt.Errorf("exec: probe part reopened after close: %w", qerr.ErrInternal)
	}
	j.next, j.curKeys, j.curLeft = 0, nil, nil
	j.bp.reset()
	return j.build.run(j.gov)
}

// evalKeysInto evaluates the key expressions into buf (carved from a
// slab, one per batch); null reports a NULL key, which never joins.
func evalKeysInto(evs []Evaluator, row, buf []value.Value) (keys []value.Value, null bool, err error) {
	for i, ev := range evs {
		v, err := ev(row)
		if err != nil {
			return nil, false, &EvalError{err}
		}
		if v.IsNull() {
			return nil, true, nil
		}
		buf[i] = v
	}
	return buf, false, nil
}

func keysEqual(a, b []value.Value) bool {
	for i := range a {
		if !value.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func (j *HashJoin) Close() error {
	j.stats.markDone()
	if j.build != nil {
		j.build.close(j.gov)
		j.build = nil
	}
	j.next, j.curKeys, j.curLeft = 0, nil, nil
	// The probe batch, its key vectors and the unused tail of the last
	// output slab go with the run (see Project.Close).
	j.bp.reset()
	j.probeHash, j.probeKeys, j.keySlab = nil, nil, nil
	return j.Left.Close()
}

// Describe implements Operator. A keyless join prints under the name SQL
// gives it.
func (j *HashJoin) Describe() string {
	parts := make([]string, len(j.LeftKeys))
	for i := range j.LeftKeys {
		parts[i] = j.LeftKeys[i].SQL() + " = " + j.RightKeys[i].SQL()
	}
	s := "HashJoin(" + strings.Join(parts, " AND ") + ")"
	if len(parts) == 0 {
		s = "CrossJoin"
	}
	s += j.describeCols()
	if n := j.workers(); n > 1 {
		s += fmt.Sprintf(" [parallel build n=%d]", n)
	}
	return s
}

// AggFunc enumerates the supported aggregate functions.
type AggFunc uint8

// Supported aggregates.
const (
	AggSum AggFunc = iota
	AggCount
	AggAvg
	AggMin
	AggMax
)

// ParseAggFunc maps an (upper-case) function name to its AggFunc.
func ParseAggFunc(name string) (AggFunc, error) {
	switch name {
	case "SUM":
		return AggSum, nil
	case "COUNT":
		return AggCount, nil
	case "AVG":
		return AggAvg, nil
	case "MIN":
		return AggMin, nil
	case "MAX":
		return AggMax, nil
	}
	return 0, fmt.Errorf("exec: unknown aggregate %q", name)
}

// AggSpec describes one aggregate output: a function over an argument
// expression (nil argument means COUNT(*)).
type AggSpec struct {
	Func AggFunc
	Arg  sqlparse.Expr // nil for COUNT(*)
	Col  ColInfo
}

// HashAggregate groups child rows by the group expressions and computes the
// aggregate specs per group. Output rows are the group values followed by
// the aggregates, in spec order. Without group expressions it produces one
// global row.
type HashAggregate struct {
	Child  Operator
	Groups []sqlparse.Expr
	Aggs   []AggSpec

	govHolder
	statsHolder
	schema   RowSchema
	groupEvs []Evaluator
	argEvs   []Evaluator // nil for COUNT(*)
	out      [][]value.Value
	reserved atomic.Int64 // groups charged against the buffered budget, by every part
	pos      int
	accs     []*aggAcc // each part's accumulator while Open runs
	one      [1]*aggAcc
}

type aggState struct {
	groupVals []value.Value
	hash      uint64    // value.HashRow(groupVals)
	ord       rowOrd    // first-appearance ordinal, orders the parallel merge
	next      *aggState // the next group of its hash bucket
	count     []int64
	sum       []float64 // every argument, as a float, over the rows of morsel
	isum      []int64   // SUM's arguments while all are integers, exactly
	sumIsInt  []bool
	min, max  []value.Value
	seen      []bool
	// morsel is the morsel whose rows sum adds up. earlier links the chain
	// of the group's sums over other morsels, kept apart until foldSums: in
	// its part's aggAcc.setAside, then, when parts merge, in the merge's.
	morsel  int
	earlier int32
	// one and oneFlags hold the fields of a state with a single aggregate
	// — every rewriting's SUM(prob) — and count through seen are slices of
	// them, so the arena carves them from no block of its own. The flags
	// (sumIsInt, seen) sit beside earlier, in what would be padding.
	oneFlags [2]bool
	one      struct {
		count, isum [1]int64
		sum         [1]float64
		min, max    [1]value.Value
	}
}

// NewHashAggregate compiles groups and aggregate arguments; groupCols name
// the group outputs.
func NewHashAggregate(child Operator, groups []sqlparse.Expr, groupCols []ColInfo, aggs []AggSpec) (*HashAggregate, error) {
	if len(groups) != len(groupCols) {
		return nil, fmt.Errorf("exec: group expressions and columns must align")
	}
	a := &HashAggregate{Child: child, Groups: groups, Aggs: aggs}
	for i, g := range groups {
		ev, err := Compile(g, child.Schema())
		if err != nil {
			return nil, err
		}
		a.groupEvs = append(a.groupEvs, ev)
		a.schema = append(a.schema, groupCols[i])
	}
	for _, spec := range aggs {
		if spec.Arg == nil {
			if spec.Func != AggCount {
				return nil, fmt.Errorf("exec: only COUNT supports *")
			}
			a.argEvs = append(a.argEvs, nil)
		} else {
			ev, err := Compile(spec.Arg, child.Schema())
			if err != nil {
				return nil, err
			}
			a.argEvs = append(a.argEvs, ev)
		}
		a.schema = append(a.schema, spec.Col)
	}
	return a, nil
}

func (a *HashAggregate) Schema() RowSchema { return a.schema }

// aggAcc is the accumulation state of one part of an aggregation pass:
// the one part of a serial pass, or each worker's. Its hash table is a
// power-of-two vector of bucket heads; a bucket is a chain of states
// through aggState.next, carved from the arena like the states themselves,
// so a group costs no slice and no map slot of its own. A bucket holds the
// groups whose hashes agree in the bits the vector's length keeps, so a
// lookup compares the stored hash before the group values. The vector
// doubles, relinking every group, when a group would outnumber its slots.
type aggAcc struct {
	heads   []*aggState
	order   []*aggState // first-appearance order
	scratch []value.Value
	arena   aggArena
	// setAside holds the sums of its groups' finished morsels, chained per
	// group; sums carves the sums of their next morsels.
	setAside []morselSum
	sums     []float64
	pending  int64 // groups created since the last flushReserve
}

// aggFirstHeads is the length of an accumulator's first head vector.
const aggFirstHeads = 8

func (a *HashAggregate) newAcc() *aggAcc {
	return &aggAcc{
		heads:   make([]*aggState, aggFirstHeads),
		order:   make([]*aggState, 0, aggFirstHeads),
		scratch: make([]value.Value, len(a.groupEvs)),
	}
}

// findGroup returns the state of group values gv, whose hash is h, in
// heads, or nil when the group is new.
func findGroup(heads []*aggState, h uint64, gv []value.Value) *aggState {
	st := heads[h&uint64(len(heads)-1)]
	for st != nil && (st.hash != h || !value.RowsIdentical(st.groupVals, gv)) {
		st = st.next
	}
	return st
}

// chainGroup makes st the first state of its bucket in heads.
func chainGroup(heads []*aggState, st *aggState) {
	slot := st.hash & uint64(len(heads)-1)
	st.next, heads[slot] = heads[slot], st
}

// add links the new group st into acc, doubling the head vector first when
// the groups already fill it; the order vector grows alongside.
func (acc *aggAcc) add(st *aggState) {
	if len(acc.order) == len(acc.heads) {
		acc.heads = make([]*aggState, 2*len(acc.heads))
		for _, old := range acc.order {
			chainGroup(acc.heads, old)
		}
		acc.order = slices.Grow(acc.order, len(acc.heads)-len(acc.order))
	}
	chainGroup(acc.heads, st)
	acc.order = append(acc.order, st)
}

// aggArena carves aggState structs and their fixed-width slices from
// shared blocks: a high-cardinality GROUP BY otherwise pays eight heap
// allocations per group, which dominates the allocation profile of the
// aggregate-heavy Figure 8 queries. Every group consumes the same
// amount from each block, so the blocks drain in lockstep and one
// emptiness check covers them all. Blocks grow geometrically (16 groups
// up to 4096) and carved storage is never recycled — emitted states
// keep referencing their block, growth only adds blocks. With a single
// aggregate its fields live in the state (aggState.one, oneFlags), so a
// block is two slices, the states and their group values, not five.
type aggArena struct {
	states []aggState
	i64s   []int64
	f64s   []float64
	bools  []bool
	vals   []value.Value
	groups int // groups per block, doubles up to arenaMaxGroups
}

const arenaMaxGroups = 4096

func (ar *aggArena) refill(nAgg, nGroup int) {
	if ar.groups == 0 {
		ar.groups = 16
	} else if ar.groups < arenaMaxGroups {
		ar.groups *= 2
	}
	g := ar.groups
	ar.states = make([]aggState, g)
	n := nGroup
	if nAgg > 1 {
		ar.i64s = make([]int64, 2*g*nAgg)
		ar.f64s = make([]float64, g*nAgg)
		ar.bools = make([]bool, 2*g*nAgg)
		n += 2 * nAgg
	}
	if n > 0 {
		ar.vals = make([]value.Value, g*n)
	}
}

func (a *HashAggregate) newState(acc *aggAcc, gv []value.Value, ord rowOrd) *aggState {
	n := len(a.Aggs)
	ar := &acc.arena
	if len(ar.states) == 0 {
		ar.refill(n, len(gv))
	}
	st := &ar.states[0]
	ar.states = ar.states[1:]
	st.ord = ord
	ng := len(gv)
	st.groupVals, ar.vals = ar.vals[:ng:ng], ar.vals[ng:]
	copy(st.groupVals, gv)
	if one := &st.one; n == 1 {
		st.count, st.isum, st.sum = one.count[:], one.isum[:], one.sum[:]
		st.sumIsInt, st.seen = st.oneFlags[:1:1], st.oneFlags[1:]
		st.min, st.max = one.min[:], one.max[:]
	} else {
		st.count, ar.i64s = ar.i64s[:n:n], ar.i64s[n:]
		st.isum, ar.i64s = ar.i64s[:n:n], ar.i64s[n:]
		st.sum, ar.f64s = ar.f64s[:n:n], ar.f64s[n:]
		st.sumIsInt, ar.bools = ar.bools[:n:n], ar.bools[n:]
		st.seen, ar.bools = ar.bools[:n:n], ar.bools[n:]
		st.min, ar.vals = ar.vals[:n:n], ar.vals[n:]
		st.max, ar.vals = ar.vals[:n:n], ar.vals[n:]
	}
	for i := range st.sumIsInt {
		st.sumIsInt[i] = true
	}
	return st
}

// morselSum is a group's float sums over the rows of one morsel. A
// group's morselSums form a chain through next, the index plus one of the
// next in the same vector (0 ends it), so that setting sums aside
// allocates nothing per group.
type morselSum struct {
	morsel int
	sum    []float64
	next   int32
}

// nextMorsel sets st's sums over its current morsel aside and starts its
// sums over morsel m.
func (acc *aggAcc) nextMorsel(st *aggState, m int) {
	acc.setAside = append(acc.setAside, morselSum{st.morsel, st.sum, st.earlier})
	st.earlier = int32(len(acc.setAside))
	n := len(st.sum)
	if len(acc.sums) < n {
		acc.sums = make([]float64, 256*n)
	}
	st.sum, acc.sums, st.morsel = acc.sums[:n:n], acc.sums[n:], m
}

// moveSums moves the chain at link in from onto *to, ahead of the chain at
// head there, and returns the moved chain's new head.
func moveSums(to *[]morselSum, from []morselSum, link, head int32) int32 {
	for link != 0 {
		ms := from[link-1]
		link, ms.next = ms.next, head
		*to = append(*to, ms)
		head = int32(len(*to))
	}
	return head
}

// foldSums makes st's float sums the sum, from zero and in morsel order,
// of its sums over each morsel: its own and the chain at st.earlier in
// chain. Each of those adds the morsel's rows in order, in whichever part
// claimed it, so the result depends on the rows and the morsel grid alone,
// not on the worker count or on which worker won which morsel. scratch is
// reused, and returned for the next call.
func (st *aggState) foldSums(chain, scratch []morselSum) []morselSum {
	parts := append(scratch[:0], morselSum{morsel: st.morsel, sum: st.sum})
	for l := st.earlier; l != 0; l = chain[l-1].next {
		parts = append(parts, chain[l-1])
	}
	slices.SortFunc(parts, func(x, y morselSum) int { return cmp.Compare(x.morsel, y.morsel) })
	for i := range st.sum {
		t := 0.0
		for _, p := range parts {
			t += p.sum[i]
		}
		st.sum[i] = t // st.sum is one of the parts, read for i already
	}
	st.earlier = 0
	return parts
}

// accumulate folds one child row, of morsel morsel, into acc. New groups
// are only counted as pending here; the caller charges them against the
// buffered budget with flushReserve, once per batch.
func (a *HashAggregate) accumulate(acc *aggAcc, row []value.Value, ord rowOrd, morsel int) error {
	gv := acc.scratch
	for i, ev := range a.groupEvs {
		v, err := ev(row)
		if err != nil {
			return &EvalError{err}
		}
		gv[i] = v
	}
	h := value.HashRow(gv)
	st := findGroup(acc.heads, h, gv)
	if st == nil {
		acc.pending++
		st = a.newState(acc, gv, ord)
		st.hash, st.morsel = h, morsel
		acc.add(st)
	} else if st.morsel != morsel {
		acc.nextMorsel(st, morsel)
	}
	for i, spec := range a.Aggs {
		if a.argEvs[i] == nil { // COUNT(*)
			st.count[i]++
			continue
		}
		v, err := a.argEvs[i](row)
		if err != nil {
			return &EvalError{err}
		}
		if v.IsNull() {
			continue // aggregates skip NULLs
		}
		st.count[i]++
		switch spec.Func {
		case AggSum, AggAvg:
			if !v.IsNumeric() {
				return &EvalError{fmt.Errorf("exec: %v over non-numeric value", spec.Func)}
			}
			if v.Kind() != value.KindInt {
				st.sumIsInt[i] = false
			} else if spec.Func == AggSum && st.sumIsInt[i] {
				if err := addInt(&st.isum[i], v.AsInt()); err != nil {
					return err
				}
			}
			st.sum[i] += v.AsFloat()
		case AggMin:
			if !st.seen[i] || compareExtreme(v, st.min[i]) < 0 {
				st.min[i] = v
			}
		case AggMax:
			if !st.seen[i] || compareExtreme(v, st.max[i]) > 0 {
				st.max[i] = v
			}
		}
		st.seen[i] = true
	}
	return nil
}

// flushReserve charges the groups accumulate created since the last
// flush against gov's buffered budget (gov is the caller's governor — a
// worker fork during parallel aggregation). A failed reservation still
// charges (drainBatches convention): pending moves into a.reserved before
// the error returns, so Close releases exactly what was reserved.
func (a *HashAggregate) flushReserve(acc *aggAcc, gov *Governor) error {
	n := acc.pending
	if n == 0 {
		return nil
	}
	acc.pending = 0
	a.reserved.Add(n)
	a.stats.addBuffered(n)
	return gov.ReserveBuffered(n)
}

// addInt adds v to the integer sum *sum, failing with an EvalError when
// the sum leaves int64.
func addInt(sum *int64, v int64) error {
	s := *sum + v
	if (v > 0 && s < *sum) || (v < 0 && s > *sum) {
		return &EvalError{fmt.Errorf("exec: integer SUM overflows int64")}
	}
	*sum = s
	return nil
}

// combine merges a worker-local partial state into dst. Counts add, and
// integer sums add exactly, failing past int64 as accumulate does; min/max
// compare by compareExtreme; the first-appearance ordinal is the minimum,
// so the merged output order matches one part's. Float sums are the
// caller's: the merge chains them per morsel for foldSums.
func combine(dst, src *aggState, aggs []AggSpec) error {
	if src.ord.compare(dst.ord) < 0 {
		dst.ord = src.ord
	}
	for i, spec := range aggs {
		dst.count[i] += src.count[i]
		if !src.sumIsInt[i] {
			dst.sumIsInt[i] = false
		}
		if spec.Func == AggSum && dst.sumIsInt[i] {
			if err := addInt(&dst.isum[i], src.isum[i]); err != nil {
				return err
			}
		}
		switch spec.Func {
		case AggMin:
			if src.seen[i] && (!dst.seen[i] || compareExtreme(src.min[i], dst.min[i]) < 0) {
				dst.min[i] = src.min[i]
			}
		case AggMax:
			if src.seen[i] && (!dst.seen[i] || compareExtreme(src.max[i], dst.max[i]) > 0) {
				dst.max[i] = src.max[i]
			}
		}
		if src.seen[i] {
			dst.seen[i] = true
		}
	}
	return nil
}

// compareExtreme is the order MIN and MAX keep their value by:
// value.Compare, its ties between numbers broken by a total order — NaN
// above every number (NaNs by their bits), then numeric value, then an Int
// before a Float, then -0 before +0 — so which of two tied values a group
// keeps does not depend on the order its rows were folded in.
func compareExtreme(a, b value.Value) int {
	if c := value.Compare(a, b); c != 0 || !a.IsNumeric() || !b.IsNumeric() {
		return c
	}
	af, bf := a.AsFloat(), b.AsFloat()
	if an, bn := math.IsNaN(af), math.IsNaN(bf); an || bn {
		if an == bn {
			return cmp.Compare(math.Float64bits(af), math.Float64bits(bf))
		}
		return -cmp.Compare(af, bf) // cmp.Compare puts a NaN first
	}
	// A Float tied with an Int is the Int rounded, so integral.
	switch ai, bi := a.Kind() == value.KindInt, b.Kind() == value.KindInt; {
	case ai && bi:
		return 0
	case ai:
		return intVsFloat(a.AsInt(), bf)
	case bi:
		return -intVsFloat(b.AsInt(), af)
	}
	return cmp.Compare(math.Float64bits(bf)>>63, math.Float64bits(af)>>63) // -0 first
}

// intVsFloat orders i before f, the float i rounds to, unless i is above
// it; -math.MinInt64 is 2^63, above every int64.
func intVsFloat(i int64, f float64) int {
	if f < -math.MinInt64 && i > int64(f) {
		return 1
	}
	return -1
}

// emit finishes the states into output rows, all carved from one block.
func (a *HashAggregate) emit(order []*aggState) error {
	// Global aggregate over an empty input still yields one row.
	if len(a.groupEvs) == 0 && len(order) == 0 {
		n := len(a.Aggs)
		order = append(order, &aggState{
			count: make([]int64, n), sum: make([]float64, n),
			sumIsInt: make([]bool, n), min: make([]value.Value, n),
			max: make([]value.Value, n), seen: make([]bool, n),
		})
	}
	width := len(a.schema)
	block := make([]value.Value, len(order)*width)
	a.out = make([][]value.Value, len(order))
	for r, st := range order {
		if err := a.gov.Poll(); err != nil {
			return err
		}
		row := block[r*width : (r+1)*width : (r+1)*width]
		n := copy(row, st.groupVals)
		for i, spec := range a.Aggs {
			row[n+i] = finishAgg(spec.Func, st, i)
		}
		a.out[r] = row
	}
	a.pos = 0
	return nil
}

// Open drains the child and builds all groups: each part of the child's
// split (the child itself, unless it splits) folds into an accumulator of
// its own, several merge, and a group's float sums fold in morsel order,
// so a SUM or AVG has the same bits at every worker count and in every run.
func (a *HashAggregate) Open() error {
	a.stats.markOpen()
	sp := splitFor(a.Child, a.workers(), a.stats)
	a.accs = slots(&a.one, &sp)
	defer func() { clear(a.accs); a.accs = nil }() // emitted, the states die
	if err := sp.run(a.gov, a); err != nil {
		return err
	}
	// One accumulator's order is already first appearance.
	order, chain := a.accs[0].order, a.accs[0].setAside
	if len(a.accs) > 1 {
		var err error
		if order, chain, err = a.merge(a.accs); err != nil {
			return err
		}
	}
	var scratch []morselSum
	for _, st := range order {
		if err := a.gov.Poll(); err != nil {
			return err
		}
		if st.earlier != 0 {
			scratch = st.foldSums(chain, scratch)
		}
	}
	return a.emit(order)
}

// fillPart folds part w into a fresh accumulator, accs[w], flushing its
// reservations once per batch. Group order is the accumulator's first
// appearance; only the merge of several reads the row ordinals.
func (a *HashAggregate) fillPart(w int, part Operator, leaf *Scan, gov *Governor) error {
	acc := a.newAcc()
	a.accs[w] = acc
	// Transient: accumulate copies the values it keeps.
	return pull(part, leaf, gov, NewTransientBatch(batchSize), a.stats, func(b *Batch, m int) error {
		for i, n := 0, b.Len(); i < n; i++ {
			if err := a.accumulate(acc, b.Row(i), b.Ord(i), m); err != nil {
				return err
			}
		}
		return a.flushReserve(acc, gov)
	})
}

func finishAgg(f AggFunc, st *aggState, i int) value.Value {
	switch f {
	case AggCount:
		return value.Int(st.count[i])
	case AggSum:
		if st.count[i] == 0 {
			return value.Null()
		}
		if st.sumIsInt[i] {
			return value.Int(st.isum[i])
		}
		return value.Float(st.sum[i])
	case AggAvg:
		if st.count[i] == 0 {
			return value.Null()
		}
		return value.Float(st.sum[i] / float64(st.count[i]))
	case AggMin:
		if !st.seen[i] {
			return value.Null()
		}
		return st.min[i]
	case AggMax:
		if !st.seen[i] {
			return value.Null()
		}
		return st.max[i]
	}
	return value.Null()
}

func (a *HashAggregate) Close() error {
	a.stats.markDone()
	a.out = nil
	a.gov.ReleaseBuffered(a.reserved.Swap(0))
	return nil
}

// Describe implements Operator.
func (a *HashAggregate) Describe() string {
	s := fmt.Sprintf("HashAggregate(%d groups, %d aggs)", len(a.Groups), len(a.Aggs))
	if n := a.workers(); n > 1 {
		s += fmt.Sprintf(" [parallel n=%d]", n)
	}
	return s
}

// SortKey is one sort criterion over the child schema: either an
// expression compiled against the child, or (when Pos >= 0) a direct child
// column position. Positional keys let the planner reference projected
// columns whose bare names collide (e.g. o.id and c.id both projected as
// "id").
type SortKey struct {
	Expr sqlparse.Expr // used when Pos < 0
	Pos  int           // output column position; -1 to use Expr
	Desc bool
}

// SortKeyExpr builds an expression-based key.
func SortKeyExpr(e sqlparse.Expr, desc bool) SortKey { return SortKey{Expr: e, Pos: -1, Desc: desc} }

// SortKeyPos builds a positional key.
func SortKeyPos(pos int, desc bool) SortKey { return SortKey{Pos: pos, Desc: desc} }

// Sort materializes the child and orders rows by the keys (NULLs first on
// ascending keys). The sort is stable.
//
// A positive Limit keeps only the first Limit rows of that order: Open
// folds the input through a bounded heap, so ORDER BY … LIMIT k buffers k
// rows instead of its whole input (the paper's Figure 9 shows ORDER BY
// dominating cost as duplication grows; the "top answers" form of a clean
// query does not pay the full sort). Zero or negative sorts every row.
type Sort struct {
	Child Operator
	Keys  []SortKey
	Limit int

	govHolder
	statsHolder
	cols     []sortCol
	computed bool // some key is computed, not read at a position
	rows     [][]value.Value
	reserved int64
	pos      int
}

// sortCol is a compiled sort key: the child column it reads, or for a
// computed key (ev non-nil) the evaluator the comparator calls on each row
// it compares.
type sortCol struct {
	pos  int
	ev   Evaluator
	desc bool
}

// compare orders two child rows under the sort keys: negative when a
// sorts first, zero on a tie. A computed key is evaluated on both rows at
// every comparison, so a sort keeps no key of its own; Open has evaluated
// it on each row once already, so it cannot fail here.
func (s *Sort) compare(a, b []value.Value) int {
	for _, k := range s.cols {
		var x, y value.Value
		if k.ev == nil {
			x, y = a[k.pos], b[k.pos]
		} else {
			x, _ = k.ev(a)
			y, _ = k.ev(b)
		}
		if c := value.Compare(x, y); c != 0 {
			if k.desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// check evaluates row's computed keys, surfacing the error compare would
// drop.
func (s *Sort) check(row []value.Value) error {
	for _, k := range s.cols {
		if k.ev == nil {
			continue
		}
		if _, err := k.ev(row); err != nil {
			return &EvalError{err}
		}
	}
	return nil
}

// sortRow is a row the bounded heap keeps, with its arrival order.
type sortRow struct {
	row []value.Value
	seq int
}

// compareKept orders two kept rows by the sort keys, then by arrival,
// which makes the bounded heap as stable as the full sort.
func (s *Sort) compareKept(a, b sortRow) int {
	if c := s.compare(a.row, b.row); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// topHeap is a max-heap under the sort order: the root is the worst kept
// row, evicted when a better one arrives.
type topHeap struct {
	s     *Sort
	items []sortRow
}

func (h *topHeap) Len() int           { return len(h.items) }
func (h *topHeap) Less(i, j int) bool { return h.s.compareKept(h.items[j], h.items[i]) < 0 }
func (h *topHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *topHeap) Push(x any)         { h.items = append(h.items, x.(sortRow)) }
func (h *topHeap) Pop() any {
	it := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return it
}

// offer folds one child row into the bounded heap. A kept row reserves
// buffered budget on its own: kept rows are bounded by Limit, not by the
// input, so there is nothing to amortize. A failed reservation still
// charges (drainBatches convention).
func (s *Sort) offer(h *topHeap, row []value.Value, seq int) error {
	if err := s.check(row); err != nil {
		return err
	}
	it := sortRow{row: row, seq: seq}
	if h.Len() < s.Limit {
		s.stats.addBuffered(1)
		s.reserved++
		heap.Push(h, it)
		return s.gov.ReserveBuffered(1)
	}
	if s.compareKept(it, h.items[0]) < 0 {
		h.items[0] = it
		heap.Fix(h, 0)
	}
	return nil
}

// NewSort compiles the sort keys against the child schema. A key that
// names a child column, by position or as a column reference, reads it
// where it sits; any other expression is a computed key.
func NewSort(child Operator, keys []SortKey) (*Sort, error) {
	s := &Sort{Child: child, Keys: keys}
	rs := child.Schema()
	for _, k := range keys {
		col := sortCol{pos: k.Pos, desc: k.Desc}
		if cr, ok := k.Expr.(*sqlparse.ColumnRef); ok && k.Pos < 0 {
			pos, err := rs.Resolve(cr.Qualifier, cr.Name)
			if err != nil {
				return nil, err
			}
			col.pos = pos
		}
		switch {
		case col.pos >= len(rs):
			return nil, fmt.Errorf("exec: sort position %d out of range (width %d)", col.pos, len(rs))
		case col.pos < 0:
			ev, err := Compile(k.Expr, rs)
			if err != nil {
				return nil, err
			}
			col.ev, s.computed = ev, true
		}
		s.cols = append(s.cols, col)
	}
	return s, nil
}

func (s *Sort) Schema() RowSchema { return s.Child.Schema() }

// Open drains the child and orders its rows: every row, sorted in place in
// the vector the drain returned, or with a Limit the best Limit rows, kept
// in a bounded heap while the child drains. Either way keys are compared
// where they sit in the rows.
func (s *Sort) Open() error {
	s.stats.markOpen()
	s.pos = 0
	if s.Limit > 0 {
		if err := s.Child.Open(); err != nil {
			return err
		}
		defer s.Child.Close()
		h := &topHeap{s: s}
		bb := NewBatch(batchSize)
		seq := 0
		for {
			if err := s.gov.PollBatch(); err != nil {
				return err
			}
			if err := s.Child.NextBatch(bb); err != nil {
				return err
			}
			n := bb.Len()
			if n == 0 {
				break
			}
			s.stats.addIn(int64(n))
			for i := 0; i < n; i++ {
				if err := s.offer(h, bb.Row(i), seq); err != nil {
					return err
				}
				seq++
			}
		}
		items := h.items
		slices.SortFunc(items, s.compareKept)
		s.rows = make([][]value.Value, len(items))
		for i, it := range items { //lint:allow ctxpoll -- bounded by the Limit, not data size
			s.rows[i] = it.row
		}
		return nil
	}
	// The full sort orders the vector the drain returned — the child's own,
	// when the child hands one over — in place, comparing keys where they
	// sit in the rows: no key slab, no index vector (DESIGN.md §15,
	// "Hand-over").
	rows, reserved, err := drainBatches(s.Child, s.gov, s.stats)
	s.reserved = reserved
	if err != nil {
		return err
	}
	if s.computed {
		for _, row := range rows {
			if err := s.gov.Poll(); err != nil {
				return err
			}
			if err := s.check(row); err != nil {
				return err
			}
		}
	}
	slices.SortStableFunc(rows, s.compare)
	s.rows = rows
	return nil
}

func (s *Sort) Close() error {
	s.stats.markDone()
	s.rows = nil
	s.gov.ReleaseBuffered(s.reserved)
	s.reserved = 0
	return nil
}

// Describe implements Operator. A sort with a limit prints as TopN.
func (s *Sort) Describe() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		if k.Pos >= 0 {
			parts[i] = fmt.Sprintf("#%d", k.Pos+1)
		} else {
			parts[i] = k.Expr.SQL()
		}
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	if s.Limit > 0 {
		return fmt.Sprintf("TopN(%d; %s)", s.Limit, strings.Join(parts, ", "))
	}
	return "Sort(" + strings.Join(parts, ", ") + ")"
}

// Distinct suppresses duplicate rows (NULL-aware, like SQL DISTINCT).
type Distinct struct {
	Child Operator

	govHolder
	statsHolder
	seen     map[uint64][][]value.Value
	reserved int64
}

// NewDistinct wraps child.
func NewDistinct(child Operator) *Distinct { return &Distinct{Child: child} }

func (d *Distinct) Schema() RowSchema { return d.Child.Schema() }

// Open resets the duplicate table.
func (d *Distinct) Open() error {
	d.stats.markOpen()
	d.seen = make(map[uint64][][]value.Value)
	return d.Child.Open()
}

func (d *Distinct) Close() error {
	d.stats.markDone()
	d.seen = nil
	d.gov.ReleaseBuffered(d.reserved)
	d.reserved = 0
	return d.Child.Close()
}

// Describe implements Operator.
func (d *Distinct) Describe() string { return "Distinct" }

// Limit passes through at most N rows.
type Limit struct {
	Child Operator
	N     int

	govHolder
	statsHolder
	emitted int
}

// NewLimit wraps child.
func NewLimit(child Operator, n int) *Limit { return &Limit{Child: child, N: n} }

func (l *Limit) Schema() RowSchema { return l.Child.Schema() }

// Open resets the counter.
func (l *Limit) Open() error { l.stats.markOpen(); l.emitted = 0; return l.Child.Open() }

func (l *Limit) Close() error { l.stats.markDone(); return l.Child.Close() }

// Describe implements Operator.
func (l *Limit) Describe() string { return fmt.Sprintf("Limit(%d)", l.N) }
