// The frozen reference of the determinism suite. testdata/rowpath_golden.json
// holds one digest per evaluation statement over determinismWorkload, written
// by the row-at-a-time executor (engine.Options{Parallelism: 1, Shards: 1,
// BatchSize: -1}, options of that commit) at commit 3b41ea4, the last one that had it: a throwaway
// test there ran digestResult over each statement's result and marshalled a
// goldenFile. The batch executor was proven against that path while both
// existed; the digests keep the proof after the path is gone. Only a change
// to the workload itself (uisgen, the tpch queries, the rewriting) is a
// reason to write the file again, and doing so replaces the row path's
// answers with the current executor's.
package conquer

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"conquer/internal/engine"
	"conquer/internal/value"
)

const goldenPath = "testdata/rowpath_golden.json"

// goldenDigest is what the file keeps of one result: the row count, an
// order-sensitive hash of every non-float cell (a float cell contributes its
// position and kind only), and the sum of the float cells of each column.
// Floats are summed, not hashed, because the file was written by the row
// path, whose aggregates folded float sums left to right over all rows;
// every aggregate now folds them on the morsel grid, which can differ in
// the last bits.
type goldenDigest struct {
	Rows      int       `json:"rows"`
	Hash      string    `json:"hash"`
	FloatSums []float64 `json:"float_sums"`
}

type goldenFile struct {
	Commit     string                  `json:"commit"`
	Producer   string                  `json:"producer"`
	Workload   string                  `json:"workload"`
	Statements map[string]goldenDigest `json:"statements"`
}

func digestResult(res *engine.Result) goldenDigest {
	h := fnv.New64a()
	d := goldenDigest{Rows: len(res.Rows), FloatSums: make([]float64, len(res.Columns))}
	for _, row := range res.Rows {
		for c, v := range row {
			h.Write([]byte{byte(v.Kind())})
			if v.Kind() == value.KindFloat {
				d.FloatSums[c] += v.AsFloat()
				continue
			}
			s := v.String()
			fmt.Fprintf(h, "%d:%s|", len(s), s)
		}
		h.Write([]byte{'\n'})
	}
	d.Hash = fmt.Sprintf("%016x", h.Sum64())
	return d
}

func loadGolden(t *testing.T) goldenFile {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var g goldenFile
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	return g
}

// checkGolden compares res with the frozen digest of the statement. A float
// column's sum may differ by ProbEpsilon per row from the row path's;
// everything else is exact.
func checkGolden(t *testing.T, g goldenFile, stmt, label string, res *engine.Result) {
	t.Helper()
	want, ok := g.Statements[stmt]
	if !ok {
		t.Fatalf("%s: no golden digest for %s", label, stmt)
	}
	got := digestResult(res)
	if got.Rows != want.Rows {
		t.Fatalf("%s: %d rows, golden has %d", label, got.Rows, want.Rows)
	}
	if got.Hash != want.Hash {
		t.Fatalf("%s: non-float cells hash to %s, golden has %s (a row was dropped, repeated, reordered or changed)", label, got.Hash, want.Hash)
	}
	if len(got.FloatSums) != len(want.FloatSums) {
		t.Fatalf("%s: %d columns, golden has %d", label, len(got.FloatSums), len(want.FloatSums))
	}
	tol := value.ProbEpsilon * float64(max(want.Rows, 1))
	for c := range want.FloatSums {
		if !value.FloatEq(want.FloatSums[c], got.FloatSums[c], tol) {
			t.Fatalf("%s: float column %d sums to %v, golden has %v", label, c, got.FloatSums[c], want.FloatSums[c])
		}
	}
}

func stmtKey(number int, form string) string { return fmt.Sprintf("Q%d_%s", number, form) }
