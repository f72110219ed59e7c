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
	grid   int            // rows per morsel of own; 0 makes the table one morsel
	runs   *storage.Table // own's run table (morselCursor.runs): set by a streaming aggregate
	morsel int
	claims int
	read   int // rows returned since Open
	pos    int
	end    int
}

// NewScan builds a scan of tb under the given alias.
func NewScan(tb *storage.Table, alias string) *Scan {
	s := &Scan{Table: tb, Alias: strings.ToLower(alias)}
	s.schema = tableSchema(make(RowSchema, len(tb.Schema.Columns)), tb, s.Alias)
	return s
}

// NewScans builds the n scans of a FROM list, scan i over the table and
// under the alias from(i) returns: the scans from one block, their schemas
// from another, so a statement's scans cost two allocations, not two each.
func NewScans(n int, from func(i int) (*storage.Table, string)) []Scan {
	scans := make([]Scan, n)
	width := 0
	for i := range scans {
		tb, alias := from(i)
		scans[i].Table, scans[i].Alias = tb, strings.ToLower(alias)
		width += len(tb.Schema.Columns)
	}
	cols := make(RowSchema, width)
	for i := range scans {
		s := &scans[i]
		w := len(s.Table.Schema.Columns)
		s.schema, cols = tableSchema(cols[:w:w], s.Table, s.Alias), cols[w:]
	}
	return scans
}

// tableSchema fills rs, as long as tb has columns, with the row layout of
// tb's stored rows under alias, and returns it.
func tableSchema(rs RowSchema, tb *storage.Table, alias string) RowSchema {
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
		s.own.size, s.own.total, s.own.runs = cmp.Or(s.grid, max(n, 1)), n, s.runs
	}
	s.pos, s.end, s.morsel, s.claims, s.read = 0, 0, -1, 0, 0
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
	pred Evaluator
}

// NewFilter compiles pred against the child schema.
func NewFilter(child Operator, pred sqlparse.Expr) (*Filter, error) {
	ev, err := Compile(pred, child.Schema())
	if err != nil {
		return nil, err
	}
	return &Filter{Child: child, Pred: pred, pred: ev}, nil
}

// test is the predicate as a WHERE test on one row.
func (f *Filter) test(row []value.Value) (bool, error) { return truth(f.pred(row)) }

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
	// cols computes output column i: a plain column reference (a
	// passthrough) or a literal is read in place and compiles nothing.
	cols    []operand
	scratch *Batch        // child-side batch, reused across NextBatch calls
	out     []value.Value // the last output slab, refilled when the consumer's batch is transient
}

// ProjectionCol pairs an output column descriptor with its source
// expression.
type ProjectionCol struct {
	Expr sqlparse.Expr
	Col  ColInfo
}

// NewProject compiles the projection list against the child schema.
func NewProject(child Operator, cols []ProjectionCol) (*Project, error) {
	p := &Project{Child: child, schema: make(RowSchema, len(cols)), cols: make([]operand, len(cols))}
	slots := 0
	for _, pc := range cols {
		slots += operandSlots(pc.Expr)
	}
	c := compiler{rs: child.Schema(), ops: make([]operand, slots)}
	for i, pc := range cols {
		if err := c.fill(&p.cols[i], pc.Expr); err != nil {
			return nil, err
		}
		p.schema[i] = pc.Col
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
// concatenation left‖right a joined row keeps. The planner passes the
// columns some operator above the join still reads (DESIGN.md §16), so
// the one place a join copies values copies only those; nil keeps every
// column, in order.
type joinOutput struct {
	schema RowSchema
	cols   []int // positions in left‖right; nil = identity
	nLeft  int   // width of the left input
	nFull  int   // width of left‖right
}

// newJoinOutput builds the output schema of left‖right restricted to
// cols, in list order. Key expressions are unaffected: they bind to the
// inputs, not the output.
func newJoinOutput(left, right RowSchema, cols []int) (joinOutput, error) {
	o := joinOutput{cols: cols, nLeft: len(left), nFull: len(left) + len(right)}
	if cols == nil {
		o.schema = left.Concat(right)
		return o, nil
	}
	o.schema = make(RowSchema, len(cols))
	for i, c := range cols {
		switch {
		case c < 0 || c >= o.nFull:
			return joinOutput{}, fmt.Errorf("exec: join output column %d out of range (width %d): %w", c, o.nFull, qerr.ErrInternal)
		case c < o.nLeft:
			o.schema[i] = left[c]
		default:
			o.schema[i] = right[c-o.nLeft]
		}
	}
	return o, nil
}

// Schema is the join's (possibly narrowed) output layout.
func (o *joinOutput) Schema() RowSchema { return o.schema }

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
	lk, rk []operand
	build  *joinBuild
	part   bool  // probe part sharing a split-time build
	next   int32 // link to the next build entry of probe row bp.idx-1's bucket, 0 at its end

	// The pending probe batch with its rows' keys and their hashes, the
	// slab the keys sit in and the matches of the fill being made.
	bp        batchProbe
	probeKeys []probeKey
	keySlab   []value.Value
	matches   []joinMatch
}

// probeKey is one probe row's evaluated join keys and their hash; nil keys
// mark a NULL key, which never joins.
type probeKey struct {
	keys []value.Value
	hash uint64
}

// joinMatch is one row of a join's fill before it is carved: the probe
// row's position in its batch and the index of the build entry it joins.
type joinMatch struct{ probe, entry int32 }

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
// two empty lists make a cross join. cols lists the positions of
// left‖right a joined row keeps, in output order; nil keeps them all.
func NewHashJoin(left, right Operator, leftKeys, rightKeys []sqlparse.Expr, cols []int) (*HashJoin, error) {
	if len(leftKeys) != len(rightKeys) {
		return nil, fmt.Errorf("exec: hash join needs key lists of one length, got %d and %d", len(leftKeys), len(rightKeys))
	}
	out, err := newJoinOutput(left.Schema(), right.Schema(), cols)
	if err != nil {
		return nil, err
	}
	j := &HashJoin{Left: left, Right: right, LeftKeys: leftKeys, RightKeys: rightKeys, joinOutput: out}
	n, slots := len(leftKeys), 0
	for i := range leftKeys {
		slots += operandSlots(leftKeys[i]) + operandSlots(rightKeys[i])
	}
	// One block: the left keys, the right keys, then their operands.
	keys := make([]operand, 2*n+slots)
	j.lk, j.rk = keys[:n:n], keys[n:2*n:2*n]
	c := compiler{rs: left.Schema(), ops: keys[2*n:]}
	if err := c.fillAll(j.lk, leftKeys); err != nil {
		return nil, err
	}
	c.rs = right.Schema()
	if err := c.fillAll(j.rk, rightKeys); err != nil {
		return nil, err
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
	j.next = 0
	j.bp.reset()
	return j.build.run(j.gov)
}

// evalKeysInto evaluates the key expressions into buf (carved from a
// slab, one per batch); null reports a NULL key, which never joins.
func evalKeysInto(ops []operand, row, buf []value.Value) (keys []value.Value, null bool, err error) {
	for i := range ops {
		var v value.Value
		if o := &ops[i]; o.col >= 0 { // a column, read in place
			v = row[o.col]
		} else if v, err = o.eval(row); err != nil {
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
	j.next = 0
	// The probe batch, its key vectors, the match vector and the block a
	// transient output batch rewinds to go with the run (see Project.Close).
	j.bp.reset()
	j.probeKeys, j.keySlab, j.matches = nil, nil, nil
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
	groupEvs []operand
	argEvs   []operand // unused for COUNT(*)
	out      [][]value.Value
	reserved atomic.Int64 // groups charged against the buffered budget, by every part
	pos      int
	accs     []*aggAcc // each part's accumulator while Open runs
	one      [1]*aggAcc
	// runCol is the child column that passes the driving scan's identifier
	// through unchanged, when a group key reads it; -1 otherwise. Over a
	// table stored in identifier order every group's rows then lie in one
	// run of it, so the aggregate streams (Open).
	runCol int
	outs   []runs[[]value.Value] // each part's finished rows while a streaming Open runs
	oneOut [1]runs[[]value.Value]
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
	ng, na := len(groups), len(aggs)
	a := &HashAggregate{Child: child, Groups: groups, Aggs: aggs, schema: make(RowSchema, ng+na), runCol: -1}
	slots := 0
	for _, g := range groups {
		slots += operandSlots(g)
	}
	for _, spec := range aggs {
		slots += operandSlots(spec.Arg)
	}
	// One block: the groups, the arguments, then their operands.
	ops := make([]operand, ng+na+slots)
	a.groupEvs, a.argEvs = ops[:ng:ng], ops[ng:ng+na:ng+na]
	c := compiler{rs: child.Schema(), ops: ops[ng+na:]}
	if err := c.fillAll(a.groupEvs, groups); err != nil {
		return nil, err
	}
	copy(a.schema, groupCols)
	for _, o := range a.groupEvs {
		if o.col >= 0 && passesIdentifier(child, o.col) {
			a.runCol = o.col
			break
		}
	}
	for i, spec := range aggs {
		if spec.Arg == nil {
			if spec.Func != AggCount {
				return nil, fmt.Errorf("exec: only COUNT supports *")
			}
		} else if err := c.fill(&a.argEvs[i], spec.Arg); err != nil {
			return nil, err
		}
		a.schema[ng+i] = spec.Col
	}
	return a, nil
}

func (a *HashAggregate) Schema() RowSchema { return a.schema }

// passesIdentifier reports whether column col of op's rows is the
// identifier of drivingScan(op)'s table, passed up unchanged: through
// filters, plain column projections and the probe side of joins.
func passesIdentifier(op Operator, col int) bool {
	switch op := op.(type) {
	case *Scan:
		return col == op.Table.Schema.IdentifierIndex()
	case *Filter:
		return passesIdentifier(op.Child, col)
	case *Project:
		c := op.cols[col].col
		return c >= 0 && passesIdentifier(op.Child, c)
	case *HashJoin:
		if op.joinOutput.cols != nil {
			col = op.joinOutput.cols[col]
		}
		return col < op.nLeft && passesIdentifier(op.Left, col)
	}
	return false
}

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
// up to 4096). With a single aggregate its fields live in the state
// (aggState.one, oneFlags), so a block is two slices, the states and
// their group values, not five. On the hashed path carved storage is
// never recycled: growth only adds blocks. A streaming aggregate finishes
// its groups at each run's end and rewinds the newest block for the next
// run's.
type aggArena struct {
	free   arenaBlock // the newest block's uncarved tail
	block  arenaBlock // the newest block, whole
	groups int        // groups per block, doubles up to arenaMaxGroups
}

// arenaBlock is one block of an aggArena, each slice a group's share
// times the block's groups.
type arenaBlock struct {
	states []aggState
	i64s   []int64
	f64s   []float64
	bools  []bool
	vals   []value.Value
}

const arenaMaxGroups = 4096

func (ar *aggArena) refill(nAgg, nGroup int) {
	if ar.groups == 0 {
		ar.groups = 16
	} else if ar.groups < arenaMaxGroups {
		ar.groups *= 2
	}
	g := ar.groups
	b := arenaBlock{states: make([]aggState, g)}
	n := nGroup
	if nAgg > 1 {
		b.i64s = make([]int64, 2*g*nAgg)
		b.f64s = make([]float64, g*nAgg)
		b.bools = make([]bool, 2*g*nAgg)
		n += 2 * nAgg
	}
	if n > 0 {
		b.vals = make([]value.Value, g*n)
	}
	ar.free, ar.block = b, b
}

// rewind makes the newest block carvable again from its start, zeroing
// what was carved, for groups whose predecessors are finished: states of
// older blocks are dropped.
func (ar *aggArena) rewind() {
	b, f := &ar.block, &ar.free
	clear(b.states[:len(b.states)-len(f.states)])
	clear(b.i64s[:len(b.i64s)-len(f.i64s)])
	clear(b.f64s[:len(b.f64s)-len(f.f64s)])
	clear(b.bools[:len(b.bools)-len(f.bools)])
	clear(b.vals[:len(b.vals)-len(f.vals)])
	ar.free = ar.block
}

func (a *HashAggregate) newState(acc *aggAcc, gv []value.Value, ord rowOrd) *aggState {
	n := len(a.Aggs)
	ar := &acc.arena.free
	if len(ar.states) == 0 {
		acc.arena.refill(n, len(gv))
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
	for i := range a.groupEvs {
		o := &a.groupEvs[i]
		if o.col >= 0 { // a column, read in place
			gv[i] = row[o.col]
			continue
		}
		v, err := o.eval(row)
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
		if spec.Arg == nil { // COUNT(*)
			st.count[i]++
			continue
		}
		v, err := a.argEvs[i].eval(row)
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
		a.out[r] = a.finish(block[r*width:(r+1)*width:(r+1)*width], st)
	}
	a.pos = 0
	return nil
}

// finish writes st's output row, its group values and then its finished
// aggregates, into row, which is the schema's width, and returns it.
func (a *HashAggregate) finish(row []value.Value, st *aggState) []value.Value {
	n := copy(row, st.groupVals)
	for i, spec := range a.Aggs {
		row[n+i] = finishAgg(spec.Func, st, i)
	}
	return row
}

// Open drains the child and builds all groups: each part of the child's
// split (the child itself, unless it splits) folds into an accumulator of
// its own, several merge, and a group's float sums fold in morsel order,
// so a SUM or AVG has the same bits at every worker count and in every run.
// The one part's driving scan is cut on the grid a split would claim, so
// that its fold units are the workers' (DESIGN.md §9).
//
// When a group key is the driving scan's identifier (runCol) and its table
// is stored in identifier order, the aggregate streams instead: the grid's
// marks move to run boundaries, so that each run of one identifier lies in
// one morsel, and every group's rows come in one run (stream).
func (a *HashAggregate) Open() error {
	a.stats.markOpen()
	sp := splitFor(a.Child, a.workers(), a.stats)
	var runs *storage.Table // the driving table, when the aggregate streams over its runs
	if a.runCol >= 0 {
		if tb := drivingScan(a.Child).Table; tb.Ordered() {
			runs = tb
		}
	}
	if sp.leaf != nil {
		sp.leaf.grid, sp.leaf.runs = morselRows(a.Child), runs
	} else if runs != nil {
		sp.leaves[0].cursor.runs = runs // the parts' one shared cursor
	}
	if runs != nil {
		return a.stream(&sp)
	}
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

// stream runs the parts of sp, each finishing its groups run by run into
// outs, and concatenates their rows in morsel order. A group's rows all lie
// in one run of one morsel, so no group is in two parts, its float sums
// add its rows left to right at every worker count, and the concatenation
// is first-appearance order, the order the merge gives.
func (a *HashAggregate) stream(sp *split) error {
	a.outs = slots(&a.oneOut, sp)
	defer func() { a.outs, a.oneOut = nil, [1]runs[[]value.Value]{} }()
	if err := sp.run(a.gov, a); err != nil {
		return err
	}
	var err error
	a.out, err = mergeRuns(a.outs, a.gov)
	a.pos = 0
	return err
}

// streamPart folds part's rows into acc and, whenever the run column's
// value or the morsel changes, and at the part's end, finishes acc's
// groups into out (flushRun). Rows of one identifier reach the aggregate
// together within a morsel: filters keep their order and a probe emits
// one row's matches together.
func (a *HashAggregate) streamPart(acc *aggAcc, out *runs[[]value.Value], part Operator, leaf *Scan, gov *Governor) error {
	fin := finished{leaf: leaf, share: len(a.outs)}
	cur, run := -1, value.Value{}
	err := pull(part, leaf, gov, NewTransientBatch(batchSize), a.stats, func(b *Batch, m int) error {
		for i, n := 0, b.Len(); i < n; i++ {
			row := b.Row(i)
			if v := row[a.runCol]; m != cur || !value.Same(v, run) {
				if err := a.flushRun(acc, out, &fin, cur, n-i, gov); err != nil {
					return err
				}
				cur, run = m, v
			}
			if err := a.accumulate(acc, row, b.Ord(i), m); err != nil {
				return err
			}
			fin.rows++
		}
		return a.flushReserve(acc, gov)
	})
	if err != nil {
		return err
	}
	return a.flushRun(acc, out, &fin, cur, 0, gov)
}

// finished holds a streaming part's finished rows, forward only: they are
// the output. Its blocks are sized from what the part has seen, the groups
// it made per row, over the rows it has still to fold and to read, so
// that its last block ends about where its input does and holds no tail a
// cached answer would keep uncharged.
type finished struct {
	slab   valueSlab
	leaf   *Scan // the part's driving scan, nil when it has none
	share  int   // the parts the unclaimed morsels will be shared by
	rows   int   // rows folded
	groups int   // groups finished before the current run
}

// expect returns how many groups the part's input still holds: the groups
// per row it folded over more, the rows of the batch still to fold, and
// the groups per row its leaf read over the rows the leaf has still to
// read for it — the rest of its morsel and its share of the morsels no
// part has claimed. groups are the current run's.
func (f *finished) expect(groups, more int) int {
	seen := f.groups + groups
	n := 0
	if f.rows > 0 {
		n = (more*seen + f.rows - 1) / f.rows
	}
	if l := f.leaf; l != nil && l.read > 0 {
		unread := l.end - l.pos + l.cursor.unclaimed()/f.share
		n += (unread*seen + l.read - 1) / l.read
	}
	return n
}

// flushRun finishes acc's groups, all of them of one run of morsel m, into
// out in first-appearance order, tagged m, and empties acc for the next
// run: its heads, its order and its arena, whose newest block the next
// run's groups reuse. The groups stay charged against the buffered budget
// until Close, as rows of the output. more is how many rows of the input
// batch are still to fold, each of which may make a group: a new block
// for the finished rows holds the run's rest and the groups the part's
// input is expected to hold still (finished.expect), at most a batch.
func (a *HashAggregate) flushRun(acc *aggAcc, out *runs[[]value.Value], fin *finished, m, more int, gov *Governor) error {
	width, groups := len(a.schema), len(acc.order)
	for i, st := range acc.order {
		if err := gov.Poll(); err != nil {
			return err
		}
		if len(fin.slab.block) < width {
			fin.slab.refill(width, min(groups-i+fin.expect(groups, more), batchSize))
		}
		out.add(m, a.finish(fin.slab.carve(width, 0, batchSize), st), groups-i+more)
		acc.heads[st.hash&uint64(len(acc.heads)-1)] = nil
	}
	fin.groups += groups
	acc.order = acc.order[:0]
	acc.arena.rewind()
	return nil
}

// fillPart folds part w into a fresh accumulator, accs[w], flushing its
// reservations once per batch. Group order is the accumulator's first
// appearance; only the merge of several reads the row ordinals. A
// streaming Open has the part finish its groups run by run instead.
func (a *HashAggregate) fillPart(w int, part Operator, leaf *Scan, gov *Governor) error {
	acc := a.newAcc()
	if a.outs != nil {
		return a.streamPart(acc, &a.outs[w], part, leaf, gov)
	}
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
	s := fmt.Sprintf("HashAggregate(%d groups, %d aggs", len(a.Groups), len(a.Aggs))
	if a.runCol >= 0 {
		s += ", runs=" + a.Child.Schema()[a.runCol].Name
	}
	s += ")"
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
	s := &Sort{Child: child, Keys: keys, cols: make([]sortCol, len(keys))}
	rs := child.Schema()
	for i, k := range keys {
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
		s.cols[i] = col
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
		seq := 0
		err := pull(s.Child, nil, s.gov, NewBatch(batchSize), s.stats, func(b *Batch, _ int) error {
			for i, n := 0, b.Len(); i < n; i++ {
				if err := s.offer(h, b.Row(i), seq); err != nil {
					return err
				}
				seq++
			}
			return nil
		})
		if err != nil {
			return err
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

// Open resets the counter and opens the child for its first N rows.
func (l *Limit) Open() error { return l.openKeeping(math.MaxInt) }

func (l *Limit) openKeeping(keep int) error {
	l.stats.markOpen()
	l.emitted = 0
	return openKeeping(l.Child, min(l.N, keep))
}

func (l *Limit) Close() error { l.stats.markDone(); return l.Child.Close() }

// Describe implements Operator.
func (l *Limit) Describe() string { return fmt.Sprintf("Limit(%d)", l.N) }
