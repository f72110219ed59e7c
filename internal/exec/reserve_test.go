package exec

import (
	"testing"

	"conquer/internal/value"
)

// Every producer reserves, right after Reset, the rows it is about to
// write, so a batch's vectors are as long as what fills them. Over a 3-row
// table no batch of a scan → filter → project tree, serial or split, ever
// holds a row, ordinal or selection vector of more than 3 slots, though
// every batch could hold DefaultBatchSize rows. And a tree that drains a
// 1,024-row table allocates per open what one over 16 rows does, give or
// take reserveSlack: the vectors are one allocation each, where growing
// them by append from one slot spent a doubling per power of two.
func TestBatchesSizedFromTheirFill(t *testing.T) {
	fact, _ := parTables(t, 3)
	mk := func() *Project {
		f := mustOp[*Filter](t)(NewFilter(NewScan(fact, "f"), expr(t, "id <> 1")))
		return mustOp[*Project](t)(NewProject(f, []ProjectionCol{
			{Expr: colRef("f", "id"), Col: ColInfo{Name: "id", Type: value.KindInt}},
			{Expr: colRef("f", "w"), Col: ColInfo{Name: "w", Type: value.KindFloat}},
		}))
	}
	slots := func(b *Batch) int { return max(cap(b.rows), cap(b.ords), cap(b.selBuf)) }
	tmpl := mk()
	govern(tmpl)
	parts, _ := splitPipeline(tmpl, 2)
	for i, op := range append([]Operator{mk()}, parts...) {
		p := op.(*Project)
		govern(p)
		if err := p.Open(); err != nil {
			t.Fatal(err)
		}
		b, rows := NewBatch(DefaultBatchSize), 0
		for {
			if err := p.NextBatch(b); err != nil {
				t.Fatal(err)
			}
			if n := max(slots(b), slots(p.scratch)); n > fact.Len() {
				t.Errorf("tree %d: a batch holds a %d-slot vector over a %d-row table", i, n, fact.Len())
			}
			if b.Len() == 0 {
				break
			}
			rows += b.Len()
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if rows != 2 {
			t.Fatalf("tree %d: %d rows, want 2", i, rows)
		}
	}

	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	// The probe side scans n rows and joins every one of them to the same
	// 97-row build, so the build costs both sides the same. What differs is
	// the size of the probe batch, its key and match vectors, the join's
	// output batch and block, the Project's output batch and slab and the
	// drain's first block: one allocation each at any size. The count is
	// pinned at 22: the join's match vector costs one allocation, and its
	// probe keys and their hashes share one vector where they had two.
	const reserveSlack, pin = 4, 22
	perOpen := func(n int) float64 {
		fact, dim := parTables(t, n)
		p := mustOp[*Project](t)(NewProject(buildJoin(t, fact, dim, 0), []ProjectionCol{
			{Expr: colRef("f", "id"), Col: ColInfo{Name: "id", Type: value.KindInt}},
			{Expr: colRef("d", "name"), Col: ColInfo{Name: "name", Type: value.KindString}},
		}))
		gov := govern(p)
		return testing.AllocsPerRun(5, func() {
			if rows, _, err := CollectBatchesGoverned(p, gov, DefaultBatchSize); err != nil || len(rows) != n {
				t.Fatalf("%d rows, %v", len(rows), err)
			}
		})
	}
	small, large := perOpen(16), perOpen(DefaultBatchSize)
	t.Logf("a scan → join → project drain allocates %v times per open over 16 rows, %v over %d", small, large, DefaultBatchSize)
	if large > small+reserveSlack {
		t.Errorf("%v allocations per open over %d rows, %v over 16: more than %d apart, so some vector grows with its fill",
			large, DefaultBatchSize, small, reserveSlack)
	}
	for _, got := range []float64{small, large} {
		switch {
		case got > pin:
			t.Errorf("a drain allocates %v times per open, pinned at %d", got, pin)
		case got < pin:
			t.Errorf("a drain allocates %v times per open, fewer than its pin %d: lower the pin", got, pin)
		}
	}
}
