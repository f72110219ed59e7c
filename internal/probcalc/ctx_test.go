package probcalc

import (
	"context"
	"errors"
	"strings"
	"testing"

	"conquer/internal/qerr"
	"conquer/internal/schema"
	"conquer/internal/storage"
	"conquer/internal/testdb"
	"conquer/internal/value"
)

// Annotation under a canceled context must abort with a typed
// cancellation error instead of running the full quadratic pass.
func TestAnnotateTableCtxCanceled(t *testing.T) {
	s := schema.MustRelation("customer",
		schema.Column{Name: "name", Type: value.KindString},
		schema.Column{Name: "mktsegment", Type: value.KindString},
		schema.Column{Name: "nation", Type: value.KindString},
		schema.Column{Name: "address", Type: value.KindString},
	)
	if err := s.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB()
	tb := db.MustCreateTable(s)
	_, tuples, ids := testdb.Figure6Tuples()
	for i, tp := range tuples {
		tb.MustInsert(value.Str(tp[0]), value.Str(tp[1]), value.Str(tp[2]), value.Str(tp[3]),
			value.Str(ids[i]), value.Null())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := AnnotateTableCtx(ctx, tb, nil, nil, 1)
	if !errors.Is(err, qerr.ErrCanceled) {
		t.Fatalf("AnnotateTableCtx error = %v, want errors.Is(err, qerr.ErrCanceled)", err)
	}
	// The probability column must be untouched.
	for i := 0; i < tb.Len(); i++ {
		if !tb.Row(i)[5].IsNull() {
			t.Fatalf("row %d probability written despite cancellation", i)
		}
	}
}

func TestAssignProbabilitiesCtxCanceled(t *testing.T) {
	_, tuples, ids := testdb.Figure6Tuples()
	ds := NewDataset([]string{"name", "mktsegment", "nation", "address"})
	for _, tp := range tuples {
		if err := ds.Add(tp); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := AssignProbabilitiesCtx(ctx, ds, ids, nil, 1)
	if !errors.Is(err, qerr.ErrCanceled) {
		t.Fatalf("AssignProbabilitiesCtx error = %v, want errors.Is(err, qerr.ErrCanceled)", err)
	}
}

// The per-table wrap in AnnotateAllCtx uses %w (enforced by the errwrap
// analyzer), so a typed failure deep in annotation stays matchable and
// names the offending relation.
func TestAnnotateAllCtxWrapsTypedError(t *testing.T) {
	s := schema.MustRelation("customer",
		schema.Column{Name: "name", Type: value.KindString},
	)
	if err := s.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB()
	tb := db.MustCreateTable(s)
	tb.MustInsert(value.Str("John"), value.Str("c1"), value.Null())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := AnnotateAllParCtx(ctx, db, nil, 1)
	if !errors.Is(err, qerr.ErrCanceled) {
		t.Fatalf("AnnotateAllCtx error = %v, want errors.Is(err, qerr.ErrCanceled)", err)
	}
	if got := err.Error(); !strings.Contains(got, "customer") {
		t.Fatalf("error %q does not name the relation", got)
	}
}
