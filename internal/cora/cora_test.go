package cora

import (
	"math"
	"testing"

	"conquer/internal/probcalc"
)

func TestSchapireClusterShape(t *testing.T) {
	ds, ids, outRow, inRow := SchapireCluster(1)
	if ds.Len() != 56 {
		t.Fatalf("tuples = %d, want 56 (the paper's cluster size)", ds.Len())
	}
	if len(ids) != 56 {
		t.Fatalf("ids = %d", len(ids))
	}
	for _, id := range ids {
		if id != "schapire" {
			t.Fatal("all tuples belong to one cluster")
		}
	}
	if outRow == inRow || outRow >= ds.Len() || inRow >= ds.Len() {
		t.Fatalf("marker rows: outlier=%d intruder=%d", outRow, inRow)
	}
}

// The paper's Table 4 claims, reproduced: the most likely tuple shares all
// its values with the most frequent values; the intruder and the
// alternate-styling outlier rank at the bottom.
func TestCoraRanking(t *testing.T) {
	ds, ids, outRow, inRow := SchapireCluster(7)
	as, err := probcalc.AssignProbabilities(ds, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	ranked := probcalc.RankCluster(as, "schapire")
	if len(ranked) != 56 {
		t.Fatalf("ranked = %d", len(ranked))
	}

	// Top tuple shares every value with the most-frequent-values row.
	var rows []int
	for i := 0; i < ds.Len(); i++ {
		rows = append(rows, i)
	}
	freq := ds.MostFrequentValues(rows)
	top := ds.Tuple(ranked[0].Row)
	for i := range freq {
		if top[i] != freq[i] {
			t.Errorf("top tuple differs from most frequent values at %s: %q vs %q",
				Attrs[i], top[i], freq[i])
		}
	}

	// The two marked tuples occupy the bottom two ranks.
	bottom := map[int]bool{ranked[54].Row: true, ranked[55].Row: true}
	if !bottom[outRow] || !bottom[inRow] {
		t.Errorf("bottom-2 rows = %v, want outlier %d and intruder %d",
			[]int{ranked[54].Row, ranked[55].Row}, outRow, inRow)
	}

	// Probabilities form a valid cluster distribution.
	sum := 0.0
	for _, a := range as {
		sum += a.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("cluster probabilities sum to %v", sum)
	}
}

func TestSchapireDeterministicPerSeed(t *testing.T) {
	dsA, _, _, _ := SchapireCluster(3)
	dsB, _, _, _ := SchapireCluster(3)
	if dsA.Len() != dsB.Len() {
		t.Fatal("sizes differ")
	}
	for i := 0; i < dsA.Len(); i++ {
		a, b := dsA.Tuple(i), dsB.Tuple(i)
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("tuple %d differs between equal seeds", i)
			}
		}
	}
}
