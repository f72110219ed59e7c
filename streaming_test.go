// The rewriting's GROUP BY streams over the clusters of the relation that
// drives the join tree, the root where it drives (DESIGN.md §9, §15).
package conquer

import (
	"context"
	"maps"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"conquer/internal/bench"
	"conquer/internal/engine"
	"conquer/internal/value"
)

// scanAliases lists the aliases of an EXPLAIN's scans in pre-order: its
// join order.
var scanAliases = regexp.MustCompile(`Scan\(\w+ AS (\w+),`)

// TestRewritingStreamsAndKeepsTheJoinOrder checks which rewritings
// stream: exactly those that group by the identifier of the relation
// driving the join tree, the root's or another's, so that each group is
// finished at its cluster's end (streamingPairs). And on all thirteen
// pairs the rewriting joins its relations in the original's order, without
// which the paper's rewritten/original ratio would compare two plans, not
// one plan with an extra GROUP BY.
func TestRewritingStreamsAndKeepsTheJoinOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	d := determinismWorkload(t)
	pairs, err := bench.PreparePairs()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(d.Store)
	joinOrder := func(plan string) []string {
		var aliases []string
		for _, m := range scanAliases.FindAllStringSubmatch(plan, -1) {
			aliases = append(aliases, m[1])
		}
		return aliases
	}
	streams := map[int]bool{}
	for _, p := range pairs {
		orig, err := eng.Explain(p.Original.SQL())
		if err != nil {
			t.Fatal(err)
		}
		rw, err := eng.Explain(p.Rewritten.SQL())
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(rw, "runs=") {
			streams[p.Number] = true
		}
		if o, r := joinOrder(orig), joinOrder(rw); len(o) == 0 || !slices.Equal(o, r) {
			t.Errorf("Q%d: the original scans %v, the rewriting %v", p.Number, o, r)
		}
	}
	if !maps.Equal(streams, streamingPairs) {
		t.Errorf("the rewritings that stream: %v, want %v", streams, streamingPairs)
	}
}

// TestStreamingFallsBackWhenAWriteBreaksTheOrder prepares Q1's rewriting,
// which streams, then inserts a lineitem row of an earlier cluster at the
// table's end. That clears the table's ordered bit, and the same prepared
// tree, read at its next Open, runs unstreamed. Its answer is the bag of a
// clone where the row was written at its cluster, which keeps the bit and
// streams: the same groups, each probability within ProbEpsilon.
func TestStreamingFallsBackWhenAWriteBreaksTheOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	d := determinismWorkload(t)
	q1 := pairNumber(t, 1)
	ctx := context.Background()
	eng := engine.New(d.Store)
	prep, err := eng.Prepare(q1.Rewritten)
	if err != nil {
		t.Fatal(err)
	}
	before, err := prep.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	live, _ := d.Store.Table("lineitem")
	if !live.Ordered() {
		t.Fatal("the generated lineitem is not stored in identifier order")
	}
	// The row: the first one past the middle that Q1 keeps and that is not
	// of the last cluster.
	ship, id := live.Schema.ColumnIndex("l_shipdate"), live.Schema.IdentifierIndex()
	last := live.Row(live.Len() - 1)[id]
	at := live.Len() / 2
	for live.Row(at)[ship].AsString() > "1998-09-02" || value.Same(live.Row(at)[id], last) {
		at++
	}
	row := slices.Clone(live.Row(at))

	// The clone gets the row right after the one it copies: every row from
	// there on moves one down, each written over its successor.
	store, err := d.Store.Clone()
	if err != nil {
		t.Fatal(err)
	}
	clone, _ := store.Table("lineitem")
	for i := clone.Len(); i > at+1; i-- {
		if err := clone.SetRow(i, clone.Row(i-1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := clone.SetRow(at+1, row); err != nil {
		t.Fatal(err)
	}
	if err := live.Insert(row); err != nil {
		t.Fatal(err)
	}
	if live.Ordered() || !clone.Ordered() {
		t.Fatalf("ordered bits: live %v after an insert into an earlier cluster, clone %v with the row at its cluster",
			live.Ordered(), clone.Ordered())
	}

	after, err := prep.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.New(store).QueryStmtCtx(ctx, q1.Rewritten)
	if err != nil {
		t.Fatal(err)
	}
	if sameBag(t, "before the insert", before.Rows, want.Rows, false) {
		t.Fatal("the inserted row changes no group of Q1's answer")
	}
	sameBag(t, "the prepared tree after the insert", after.Rows, want.Rows, true)
}

// sameBag reports whether got and want hold the same rows as bags, the
// last column (the probability) compared within ProbEpsilon and every
// other by value, and fails the test where they differ when must is set.
func sameBag(t *testing.T, label string, got, want [][]value.Value, must bool) bool {
	t.Helper()
	key := func(row []value.Value) string {
		var b strings.Builder
		for _, v := range row[:len(row)-1] {
			b.WriteString(v.String())
			b.WriteByte('|')
		}
		return b.String()
	}
	sorted := func(rows [][]value.Value) [][]value.Value {
		rows = slices.Clone(rows)
		sort.SliceStable(rows, func(i, j int) bool { return key(rows[i]) < key(rows[j]) })
		return rows
	}
	if len(got) != len(want) {
		if must {
			t.Errorf("%s: %d rows, want %d", label, len(got), len(want))
		}
		return false
	}
	g, w := sorted(got), sorted(want)
	for i := range w {
		gp, wp := g[i][len(g[i])-1].AsFloat(), w[i][len(w[i])-1].AsFloat()
		if key(g[i]) != key(w[i]) || !value.ProbEq(gp, wp) {
			if must {
				t.Errorf("%s: row %d reads %v, want %v", label, i, g[i], w[i])
			}
			return false
		}
	}
	return true
}
