package probcalc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"conquer/internal/qerr"
	"conquer/internal/schema"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// parDataset builds n tuples over 3 attributes grouped into clusters of
// cycling sizes 1..5, mixing singleton and multi-member clusters.
func parDataset(t testing.TB, n int) (*Dataset, []string) {
	t.Helper()
	ds := NewDataset([]string{"name", "city", "segment"})
	ids := make([]string, 0, n)
	cluster, left, size := 0, 1, 1
	for i := 0; i < n; i++ {
		err := ds.Add([]string{
			fmt.Sprintf("name%d", i%37),
			fmt.Sprintf("city%d", i%11),
			fmt.Sprintf("seg%d", i%5),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, fmt.Sprintf("c%04d", cluster))
		left--
		if left == 0 {
			cluster++
			size = size%5 + 1
			left = size
		}
	}
	return ds, ids
}

// Per-cluster arithmetic never crosses cluster boundaries, so the
// parallel pass must be bit-identical to the serial one — not merely
// within epsilon.
func TestAssignProbabilitiesParMatchesSerial(t *testing.T) {
	ds, ids := parDataset(t, 600)
	want, err := AssignProbabilities(ds, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 4, 8} {
		got, err := AssignProbabilitiesCtx(context.Background(), ds, ids, nil, par)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if len(got) != len(want) {
			t.Fatalf("par=%d: %d assignments, want %d", par, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("par=%d: assignment %d differs:\nwant %+v\ngot  %+v", par, i, want[i], got[i])
			}
		}
	}
}

func TestAssignProbabilitiesParCanceled(t *testing.T) {
	ds, ids := parDataset(t, 600)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := AssignProbabilitiesCtx(ctx, ds, ids, nil, 4)
	if !errors.Is(err, qerr.ErrCanceled) {
		t.Fatalf("want qerr.ErrCanceled, got %v", err)
	}
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before {
			break
		}
		if i >= 100 {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A panicking distance function must surface as an error via
// qerr.Recover, never escape a worker goroutine, and drain the pool.
func TestAssignProbabilitiesParRecoversPanic(t *testing.T) {
	ds, ids := parDataset(t, 200)
	boom := func(tuple, rep DCF, total int) float64 { panic("distance exploded") }
	_, err := AssignProbabilitiesCtx(context.Background(), ds, ids, boom, 4)
	if err == nil {
		t.Fatal("want error from panicking distance, got nil")
	}
	if errors.Is(err, qerr.ErrCanceled) {
		t.Fatalf("panic should win over secondary cancellations, got %v", err)
	}
}

func TestAssignProbabilitiesParValidates(t *testing.T) {
	ds, ids := parDataset(t, 100)
	if _, err := AssignProbabilitiesCtx(context.Background(), ds, ids[:50], nil, 4); err == nil {
		t.Fatal("want arity error, got nil")
	}
}

func parTable(t testing.TB, n int) *storage.Table {
	t.Helper()
	s := schema.MustRelation("customer",
		schema.Column{Name: "name", Type: value.KindString},
		schema.Column{Name: "city", Type: value.KindString},
	)
	if err := s.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	tb := storage.NewTable(s)
	cluster, left, size := 0, 1, 1
	for i := 0; i < n; i++ {
		tb.MustInsert(
			value.Str(fmt.Sprintf("name%d", i%23)),
			value.Str(fmt.Sprintf("city%d", i%7)),
			value.Str(fmt.Sprintf("c%04d", cluster)),
			value.Null(),
		)
		left--
		if left == 0 {
			cluster++
			size = size%4 + 1
			left = size
		}
	}
	return tb
}

func TestAnnotateTableParMatchesSerial(t *testing.T) {
	serial := parTable(t, 400)
	if err := AnnotateTableCtx(context.Background(), serial, nil, nil, 1); err != nil {
		t.Fatal(err)
	}
	probIdx := serial.Schema.ProbIndex()
	for _, par := range []int{1, 2, 4, 8} {
		parallel := parTable(t, 400)
		if err := AnnotateTableCtx(context.Background(), parallel, nil, nil, par); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < serial.Len(); i++ {
			w, g := serial.Row(i)[probIdx], parallel.Row(i)[probIdx]
			// Bit-identical, not epsilon: same per-cluster instruction stream.
			if w.AsFloat() != g.AsFloat() {
				t.Fatalf("par=%d row %d: serial prob %v, parallel prob %v", par, i, w, g)
			}
		}
	}
}

// claimBatch must stay within [1, 64] and give every worker work.
func TestClaimBatchBounds(t *testing.T) {
	cases := []struct{ clusters, workers, want int }{
		{10, 4, 1},
		{1000, 4, 64},
		{256, 4, 32},
		{3, 8, 1},
	}
	for _, c := range cases {
		if got := claimBatch(c.clusters, c.workers); got != c.want {
			t.Errorf("claimBatch(%d, %d) = %d, want %d", c.clusters, c.workers, got, c.want)
		}
	}
}
