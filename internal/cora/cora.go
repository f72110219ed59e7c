// Package cora generates citation clusters modeled on the Cora data set's
// published excerpt in the paper (§4.2, Table 4): the 56-tuple cluster of
// Robert E. Schapire's "The strength of weak learnability".
//
// The real Cora data set (McCallum et al.) is not redistributable here, so
// the generator reproduces the three strata the paper's Table 4 exhibits:
//
//   - a dominant canonical representation plus minor formatting variants
//     (these should rank as most likely),
//   - alternate-styling outliers that describe the same publication but
//     format every field differently (the paper's least likely tuple), and
//   - wrong-cluster intruders, tuples of a different publication that the
//     matcher misplaced (the paper's second least likely tuple).
//
// The qualitative claim under test is exactly the paper's: the Figure-5
// probabilities rank canonical tuples above outliers and intruders.
package cora

import (
	"math/rand"

	"conquer/internal/probcalc"
)

// Attrs is the citation schema of Table 4.
var Attrs = []string{"author", "title", "venue", "volume", "year", "pages"}

// Canonical is the most frequent representation of the Schapire
// publication — the "most frequent values" row of Table 4.
var Canonical = []string{
	"robert e. schapire",
	"the strength of weak learnability",
	"machine learning",
	"5(2)",
	"1990",
	"197-227",
}

// fieldVariants[i] lists alternative spellings for attribute i.
var fieldVariants = [6][]string{
	{"r. e. schapire", "r. schapire", "schapire, r.e.", "robert schapire"},
	{"strength of weak learnability", "the strength of weak learnability."},
	{"machine learning journal", "mach. learning", "machine learning,"},
	{"5", "5(2),", "vol. 5"},
	{"(1990)", "1990."},
	{"pp. 197-227", "197--227", "pages 197-227"},
}

// outlier is the paper's least-likely tuple: same publication, every field
// styled differently.
var outlier = []string{
	"schapire, r.e.,",
	"the strength of weak learnability",
	"machine learning",
	"5",
	"2 (1990)",
	"pp. 197-227",
}

// intruder is the paper's second-least-likely tuple: a different
// publication wrongly placed in the cluster.
var intruder = []string{
	"r. schapire",
	"on the strength of weak learnability",
	"proc of the 30th i.e.e.e. symposium on the foundations of computer science",
	"NULL",
	"1989",
	"pp. 28-33",
}

// SchapireCluster builds the 56-tuple cluster: 38 canonical copies, 15
// single-variant tuples, 1 two-variant tuple, the outlier and the
// intruder. It returns the dataset, the cluster ids (all "schapire"), and
// the dataset rows of the outlier and intruder for assertions.
func SchapireCluster(seed int64) (ds *probcalc.Dataset, clusterIDs []string, outlierRow, intruderRow int) {
	rng := rand.New(rand.NewSource(seed))
	ds = probcalc.NewDataset(Attrs)
	add := func(t []string) int {
		mustAdd(ds, t)
		clusterIDs = append(clusterIDs, "schapire")
		return ds.Len() - 1
	}
	for i := 0; i < 38; i++ {
		add(Canonical)
	}
	for i := 0; i < 15; i++ {
		t := append([]string(nil), Canonical...)
		f := rng.Intn(len(fieldVariants))
		t[f] = fieldVariants[f][rng.Intn(len(fieldVariants[f]))]
		add(t)
	}
	{
		t := append([]string(nil), Canonical...)
		t[0] = fieldVariants[0][0]
		t[3] = fieldVariants[3][0]
		add(t)
	}
	outlierRow = add(outlier)
	intruderRow = add(intruder)
	return ds, clusterIDs, outlierRow, intruderRow
}

// mustAdd appends one tuple to ds. Every generator in this package
// constructs tuples with exactly len(Attrs) fields, so the arity check in
// Add cannot fail.
func mustAdd(ds *probcalc.Dataset, t []string) {
	if err := ds.Add(t); err != nil {
		panic(err) //lint:allow nopanic -- arity is fixed at len(Attrs) by construction
	}
}
