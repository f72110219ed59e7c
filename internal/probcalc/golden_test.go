package probcalc_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"conquer/internal/cora"
	"conquer/internal/probcalc"
	"conquer/internal/storage"
	"conquer/internal/testdb"
	"conquer/internal/uisgen"
)

// offlineDigest is probDigest of the benchmark's offline_prep instance
// after AnnotateAllParCtx, read before DCFs became sorted vectors (commit
// 964da1e) at parallelism 1, 2 and 4. Every probability is bit-identical
// to that pass, so the digest must not move.
const offlineDigest = "b94dd4ae58e791ea"

// TestAnnotateAllMatchesGoldenDigest annotates the offline_prep instance
// (uisgen sf=1, if=5, scale 0.004, seed 42) at every worker count and
// compares the digest of every probability cell.
func TestAnnotateAllMatchesGoldenDigest(t *testing.T) {
	d, err := uisgen.Generate(uisgen.Config{SF: 1, IF: 5, Scale: 0.004, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 4, 8} {
		store, err := d.Store.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if err := probcalc.AnnotateAllParCtx(context.Background(), store, nil, par); err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if got := probDigest(store); got != offlineDigest {
			t.Errorf("par=%d: probability digest %s, want %s", par, got, offlineDigest)
		}
	}
}

// probDigest is FNV-64a over the little-endian math.Float64bits of every
// probability cell: tables in TableNames order, rows in table order.
func probDigest(store *storage.DB) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, name := range store.TableNames() {
		tb, _ := store.Table(name)
		probIdx := tb.Schema.ProbIndex()
		if probIdx < 0 {
			continue
		}
		for _, row := range tb.Rows() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(row[probIdx].AsFloat()))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestAssignmentsMatchGolden compares the assignments of the paper's
// Table 3 and of the Cora Schapire cluster (seed 1) with
// testdata/assignments_golden.txt, bit for bit. The file's header says
// how it was written.
func TestAssignmentsMatchGolden(t *testing.T) {
	var got []string
	attrs, tuples, ids := testdb.Figure6Tuples()
	ds := probcalc.NewDataset(attrs)
	for _, tp := range tuples {
		if err := ds.Add(tp); err != nil {
			t.Fatal(err)
		}
	}
	got = append(got, goldenLines(t, "table3", ds, ids)...)
	ds, ids, _, _ = cora.SchapireCluster(1)
	got = append(got, goldenLines(t, "cora", ds, ids)...)

	f, err := os.Open("testdata/assignments_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d assignments, golden file has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("assignment %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

// goldenLines formats AssignProbabilities' output one line per tuple: the
// set, row and cluster, then Distance, Similarity and Prob as the hex of
// their math.Float64bits, and the same three in decimal for reading.
func goldenLines(t *testing.T, set string, ds *probcalc.Dataset, ids []string) []string {
	t.Helper()
	as, err := probcalc.AssignProbabilities(ds, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = fmt.Sprintf("%s %d %s %016x %016x %016x  %.6g %.6g %.6g", set, a.Row, a.Cluster,
			math.Float64bits(a.Distance), math.Float64bits(a.Similarity), math.Float64bits(a.Prob),
			a.Distance, a.Similarity, a.Prob)
	}
	return out
}
