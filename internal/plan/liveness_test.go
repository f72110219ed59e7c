package plan

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"conquer/internal/exec"
	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// livenessDB is a three-table dirty database large enough for several
// morsels per scan: every table has an identifier `id` and a `prob`
// column (so unqualified references to either are ambiguous across any
// two tables), orders and lineitem share the key name `okey`.
func livenessDB(t testing.TB) *storage.DB {
	t.Helper()
	db := storage.NewDB()
	mk := func(name string, cols ...schema.Column) *storage.Table {
		cols = append([]schema.Column{{Name: "id", Type: value.KindString}}, cols...)
		cols = append(cols, schema.Column{Name: "prob", Type: value.KindFloat})
		rel := schema.MustRelation(name, cols...)
		if err := rel.SetDirty("id", "prob"); err != nil {
			t.Fatal(err)
		}
		return db.MustCreateTable(rel)
	}
	cust := mk("customer",
		schema.Column{Name: "ckey", Type: value.KindInt},
		schema.Column{Name: "name", Type: value.KindString})
	for i := 0; i < 120; i++ {
		cust.MustInsert(value.Str(fmt.Sprintf("c%d", i/2)), value.Int(int64(i)),
			value.Str(fmt.Sprintf("name%d", i%17)), value.Float(0.5))
	}
	ord := mk("orders",
		schema.Column{Name: "okey", Type: value.KindInt},
		schema.Column{Name: "ckey", Type: value.KindInt},
		schema.Column{Name: "qty", Type: value.KindInt})
	for i := 0; i < 2500; i++ {
		ck := value.Int(int64(i % 150)) // some customers do not exist
		if i%97 == 0 {
			ck = value.Null()
		}
		ord.MustInsert(value.Str(fmt.Sprintf("o%d", i/3)), value.Int(int64(i)), ck,
			value.Int(int64(i%9)), value.Float(1.0/3))
	}
	line := mk("lineitem",
		schema.Column{Name: "okey", Type: value.KindInt},
		schema.Column{Name: "ckey", Type: value.KindInt},
		schema.Column{Name: "price", Type: value.KindInt})
	for i := 0; i < 5000; i++ {
		line.MustInsert(value.Str(fmt.Sprintf("l%d", i)), value.Int(int64((i*7)%3000)),
			value.Int(int64(i%150)), value.Int(int64(i%23)), value.Float(1))
	}
	return db
}

// workerCounts is the execution-mode matrix the liveness tests cover: a
// plan run serially and on four workers.
func workerCounts() []int { return []int{1, 4} }

func modeLabel(workers int) string {
	return fmt.Sprintf("par=%d", workers)
}

// runPlan plans and executes qs the way the engine does: governed, on the
// given worker count.
func runPlan(t *testing.T, db *storage.DB, qs string, workers int) (exec.Operator, [][]value.Value) {
	t.Helper()
	op, err := Plan(db, sqlparse.MustParse(qs), Options{})
	if err != nil {
		t.Fatalf("%s: plan %q: %v", modeLabel(workers), qs, err)
	}
	gov := exec.NewGovernor(context.Background(), exec.Limits{})
	gov.SetWorkers(workers)
	exec.Attach(op, gov)
	rows, _, err := exec.CollectBatchesGoverned(op, gov, 0)
	if err != nil {
		t.Fatalf("%s: exec %q: %v", modeLabel(workers), qs, err)
	}
	return op, rows
}

// collect executes op to completion under a fresh governor with no
// limits.
func collect(op exec.Operator) ([][]value.Value, error) {
	gov := exec.NewGovernor(context.Background(), exec.Limits{})
	exec.Attach(op, gov)
	rows, _, err := exec.CollectBatchesGoverned(op, gov, 0)
	return rows, err
}

// unprunedOracle answers `select <items> from <rest>` the way the planner
// did before column liveness: it runs `select * from <rest>` serially —
// SELECT * keeps every join's identity output — and evaluates
// the select items over the full-width rows by hand. items == nil only
// counts.
func unprunedOracle(t *testing.T, db *storage.DB, items []string, rest string) [][]value.Value {
	t.Helper()
	op, wide := runPlan(t, db, "select * from "+rest, 1)
	if strings.Contains(exec.Explain(op), "cols=") {
		t.Fatalf("oracle plan is pruned:\n%s", exec.Explain(op))
	}
	// Under the Gather, the star projection copies the join tree's columns
	// one for one; the tree's schema still carries the qualifiers.
	wideSchema := op.(*exec.Gather).Child.(*exec.Project).Child.Schema()
	var evs []exec.Evaluator
	for _, it := range items {
		ev, err := exec.Compile(sqlparse.MustParse("select " + it + " from t").Select[0].Expr, wideSchema)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	out := make([][]value.Value, len(wide))
	for i, row := range wide {
		out[i] = make([]value.Value, len(evs))
		for c, ev := range evs {
			v, err := ev(row)
			if err != nil {
				t.Fatal(err)
			}
			out[i][c] = v
		}
	}
	return out
}

func requireRows(t *testing.T, label string, want, got [][]value.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, unpruned plan has %d", label, len(got), len(want))
	}
	for i := range want {
		if !value.RowsIdentical(got[i], want[i]) {
			t.Fatalf("%s: row %d = %v, unpruned plan has %v", label, i, got[i], want[i])
		}
	}
}

// joinLines returns the join lines of op's EXPLAIN, trimmed.
func joinLines(op exec.Operator) []string {
	var out []string
	for _, l := range strings.Split(exec.Explain(op), "\n") {
		if l = strings.TrimSpace(l); strings.Contains(l, "Join") {
			out = append(out, l)
		}
	}
	return out
}

// Pruned plans return what the unpruned plan returns, in the same order,
// in every execution mode: joins that feed no column at all (COUNT(*),
// a constant select list), residual multi-table predicates, cyclic join
// graphs, a three-table chain where a middle table contributes only
// keys, and a cross join.
func TestPrunedPlansMatchUnprunedInEveryMode(t *testing.T) {
	db := livenessDB(t)
	cases := []struct {
		name  string
		items []string // nil: count(*)
		rest  string
		joins []string // EXPLAIN join lines, top first, at parallelism 1
	}{
		{"count over join", nil,
			"orders o, lineitem l where o.okey = l.okey",
			[]string{"HashJoin(o.okey = l.okey) cols=0/10"}},
		{"constant over join", []string{"1"},
			"orders o, lineitem l where o.okey = l.okey and o.qty < 4",
			[]string{"HashJoin(o.okey = l.okey) cols=0/10"}},
		{"residual keeps its columns", []string{"l.id"},
			"orders o, lineitem l where o.okey = l.okey and o.qty + l.price < 9",
			[]string{"HashJoin(o.okey = l.okey) cols=3/10"}},
		{"chain, middle table only keys", []string{"c.name", "l.price * 2"},
			"customer c, orders o, lineitem l where c.ckey = o.ckey and o.okey = l.okey and c.ckey < 40",
			[]string{"HashJoin(o.okey = l.okey) cols=2/7", "HashJoin(c.ckey = o.ckey) cols=2/9"}},
		// The closing edge of a cycle is a second key of the last join;
		// until then it keeps c.ckey alive through the first one.
		{"cycle", []string{"l.price"},
			"customer c, orders o, lineitem l where c.ckey = o.ckey and o.okey = l.okey and l.ckey = c.ckey",
			[]string{"HashJoin(o.okey = l.okey AND c.ckey = l.ckey) cols=1/7", "HashJoin(c.ckey = o.ckey) cols=2/9"}},
		{"cycle, nothing read above", nil,
			"customer c, orders o, lineitem l where c.ckey = o.ckey and o.okey = l.okey and l.ckey = c.ckey",
			[]string{"HashJoin(o.okey = l.okey AND c.ckey = l.ckey) cols=0/7", "HashJoin(c.ckey = o.ckey) cols=2/9"}},
		{"cross join", []string{"o.qty", "c.name"},
			"orders o, customer c where o.okey < 30 and c.ckey < 3",
			[]string{"CrossJoin cols=2/9"}},
		{"cross join, nothing read", nil,
			"orders o, customer c where o.okey < 30 and c.ckey < 3",
			[]string{"CrossJoin cols=0/9"}},
	}
	for _, tc := range cases {
		want := unprunedOracle(t, db, tc.items, tc.rest)
		if len(want) == 0 {
			t.Fatalf("%s: empty result proves nothing", tc.name)
		}
		sel := "count(*)"
		if tc.items != nil {
			sel = strings.Join(tc.items, ", ")
		}
		qs := "select " + sel + " from " + tc.rest
		for _, workers := range workerCounts() {
			label := tc.name + " " + modeLabel(workers)
			op, got := runPlan(t, db, qs, workers)
			if tc.items == nil {
				if len(got) != 1 || got[0][0].AsInt() != int64(len(want)) {
					t.Fatalf("%s: count = %v, unpruned join has %d rows", label, got, len(want))
				}
			} else {
				requireRows(t, label, want, got)
			}
			if workers == 1 {
				if got := joinLines(op); strings.Join(got, "\n") != strings.Join(tc.joins, "\n") {
					t.Errorf("%s: joins\n  %s\nwant\n  %s", label, strings.Join(got, "\n  "), strings.Join(tc.joins, "\n  "))
				}
			}
		}
	}
}

// SELECT * over a join is the identity list at every join: nothing is
// pruned and the columns come out in join-tree order, as before.
func TestSelectStarIsUnpruned(t *testing.T) {
	db := livenessDB(t)
	qs := "select * from customer c, orders o, lineitem l where c.ckey = o.ckey and o.okey = l.okey and o.qty = 2 and o.okey < 500"
	var want [][]value.Value
	for i, workers := range workerCounts() {
		op, got := runPlan(t, db, qs, workers)
		if out := exec.Explain(op); strings.Contains(out, "cols=") {
			t.Fatalf("%s: SELECT * plan is pruned:\n%s", modeLabel(workers), out)
		}
		var names []string
		for _, c := range op.Schema() {
			names = append(names, c.Name)
		}
		// orders has the most filters, so the tree is (o ⋈ c) ⋈ l.
		if strings.Join(names, " ") != "id okey ckey qty prob id ckey name prob id okey ckey price prob" {
			t.Fatalf("%s: column order %v", modeLabel(workers), names)
		}
		if i == 0 {
			want = got
			if len(want) == 0 {
				t.Fatal("empty result proves nothing")
			}
			continue
		}
		requireRows(t, modeLabel(workers), want, got)
	}
}

// Name resolution sees the unpruned sources: a reference ambiguous across
// two tables is rejected with the executor's own message even where
// pruning would have removed one of the two candidates, and an unknown
// column still fails at plan time.
func TestPruningKeepsResolutionErrors(t *testing.T) {
	db := livenessDB(t)
	const ambiguous = "exec: ambiguous column reference"
	for _, tc := range []struct{ qs, want string }{
		// prob is in every table; neither is otherwise read.
		{"select prob from orders o, lineitem l where o.okey = l.okey", ambiguous + ` "prob"`},
		// The shared key name: both candidates are join keys that die in
		// the join.
		{"select okey from orders o, lineitem l where o.okey = l.okey", ambiguous + ` "okey"`},
		// One candidate is read elsewhere, the other only through the
		// ambiguous reference.
		{"select o.id, id from orders o, lineitem l where o.okey = l.okey", ambiguous + ` "id"`},
		{"select l.price from orders o, lineitem l where o.okey = l.okey group by l.price, prob", ambiguous + ` "prob"`},
		{"select sum(prob) from orders o, lineitem l where o.okey = l.okey", ambiguous + ` "prob"`},
		{"select l.price, count(*) from orders o, lineitem l where o.okey = l.okey group by l.price having sum(prob) > 1", ambiguous + ` "prob"`},
		{"select nosuch from orders o, lineitem l where o.okey = l.okey", `exec: unknown column "nosuch"`},
		{"select o.nosuch from orders o, lineitem l where o.okey = l.okey", `exec: unknown column "o.nosuch"`},
		{"select x.qty from orders o, lineitem l where o.okey = l.okey", `exec: unknown column "x.qty"`},
		{"select o.qty from orders o, lineitem l where o.okey = l.okey and prob > 0", `plan: ambiguous column "prob"`},
	} {
		// One plan serves every worker count, so it fails once.
		_, err := Plan(db, sqlparse.MustParse(tc.qs), Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want %q", tc.qs, err, tc.want)
		}
	}
}

// randomPrunedQuery draws a 2-3 table query over randomDB's schema whose
// select list reads a random subset of the columns (possibly none), with
// random equi-join edges (chains, cycles, missing edges), single-table
// filters and a residual predicate.
func randomPrunedQuery(rng *rand.Rand) (items []string, rest string) {
	aliases := []string{"x", "y", "z"}[:2+rng.Intn(2)]
	from := make([]string, len(aliases))
	for i, a := range aliases {
		from[i] = []string{"ta", "tb", "tc"}[i] + " " + a
	}
	var conds []string
	for i := range aliases {
		for k := i + 1; k < len(aliases); k++ {
			if rng.Intn(3) > 0 {
				conds = append(conds, fmt.Sprintf("%s.k = %s.%s", aliases[i], aliases[k], []string{"k", "v"}[rng.Intn(2)]))
			}
		}
	}
	for _, a := range aliases {
		if rng.Intn(3) == 0 {
			conds = append(conds, a+[]string{".v > 2", ".s <> 'b'", ".k is not null"}[rng.Intn(3)])
		}
	}
	if rng.Intn(3) == 0 {
		conds = append(conds, fmt.Sprintf("%s.v + %s.v < 14", aliases[0], aliases[len(aliases)-1]))
	}
	for _, a := range aliases {
		for _, c := range []string{"k", "v", "s"} {
			if rng.Intn(4) == 0 {
				items = append(items, a+"."+c)
			}
		}
	}
	if rng.Intn(4) == 0 {
		items = append(items, fmt.Sprintf("%s.v * %s.v", aliases[0], aliases[1]))
	}
	if len(items) == 0 {
		items = []string{"7"}
	}
	rest = strings.Join(from, ", ")
	if len(conds) > 0 {
		rest += " where " + strings.Join(conds, " and ")
	}
	return items, rest
}

// Random pruned plans equal the unpruned plan of the same FROM/WHERE
// projected by hand, row for row.
func TestPrunedPlansMatchUnprunedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1206))
	modes := workerCounts()
	for trial := 0; trial < 300; trial++ {
		db := randomDB(rng)
		items, rest := randomPrunedQuery(rng)
		workers := modes[rng.Intn(len(modes))]
		want := unprunedOracle(t, db, items, rest)
		qs := "select " + strings.Join(items, ", ") + " from " + rest
		_, got := runPlan(t, db, qs, workers)
		requireRows(t, fmt.Sprintf("trial %d %s %q", trial, modeLabel(workers), qs), want, got)
	}
}
