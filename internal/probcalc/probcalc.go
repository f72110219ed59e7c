// Package probcalc implements §4 of the paper: assigning probabilities to
// potential duplicates given only a clustering.
//
// Tuples over categorical attributes are represented as conditional value
// distributions p(V|t) (§4.1.1, the normalized matrix of Table 1). Each
// cluster is summarized by a Distributional Cluster Feature — its
// cardinality and the weighted average of its members' distributions
// (§4.1.2, Table 2). The distance from a tuple to its cluster
// representative is the information loss of merging the two summaries
// (§4.1.3), and the Figure-5 procedure turns distances into probabilities:
//
//	s_t     = 1 − d_t / S(c_i)          (similarity)
//	prob(t) = s_t / (|c_i| − 1)          (probability; 1 for singletons)
//
// Probabilities within each cluster sum to 1 by construction, making the
// output directly usable as a dirty database's probability function.
package probcalc

import (
	"context"
	"fmt"
	"sort"

	"conquer/internal/infotheory"
)

// Dataset is a set of categorical tuples over named attributes, with a
// value vocabulary shared across tuples. Identical strings under different
// attributes are distinct values (§4.1.1), which the vocabulary realizes
// by keying on (attribute index, raw string).
type Dataset struct {
	Attrs  []string
	tuples [][]int // value ids per attribute
	vocab  map[vkey]int
	names  []vkey // id -> key
}

type vkey struct {
	attr int
	raw  string
}

// NewDataset creates a dataset over the given attribute names.
func NewDataset(attrs []string) *Dataset {
	return &Dataset{
		Attrs: append([]string(nil), attrs...),
		vocab: make(map[vkey]int),
	}
}

// Add appends one tuple; it must have one raw value per attribute.
func (ds *Dataset) Add(values []string) error {
	if len(values) != len(ds.Attrs) {
		return fmt.Errorf("probcalc: tuple has %d values, want %d", len(values), len(ds.Attrs))
	}
	row := make([]int, len(values))
	for a, raw := range values {
		k := vkey{attr: a, raw: raw}
		id, ok := ds.vocab[k]
		if !ok {
			id = len(ds.names)
			ds.vocab[k] = id
			ds.names = append(ds.names, k)
		}
		row[a] = id
	}
	ds.tuples = append(ds.tuples, row)
	return nil
}

// Len returns the number of tuples.
func (ds *Dataset) Len() int { return len(ds.tuples) }

// VocabSize returns |V|, the number of distinct (attribute, value) pairs.
func (ds *Dataset) VocabSize() int { return len(ds.names) }

// ValueName returns the raw string and attribute of vocabulary entry id.
func (ds *Dataset) ValueName(id int) (attr int, raw string) {
	k := ds.names[id]
	return k.attr, k.raw
}

// TupleDistribution returns p(V | t) for tuple i: 1/m at each of the
// tuple's m attribute values (§4.1.1). The distribution is sparse — keyed
// by vocabulary id, absent entries are zero — so the footprint is O(m)
// however large the vocabulary grows.
func (ds *Dataset) TupleDistribution(i int) infotheory.Sparse {
	m := float64(len(ds.Attrs))
	p := make(infotheory.Sparse, len(ds.tuples[i]))
	for _, id := range ds.tuples[i] {
		p[id] += 1 / m // += so repeated values across attrs accumulate
	}
	return p
}

// DCF is a Distributional Cluster Feature (§4.1.2): the cluster's
// cardinality and its (sparse) conditional value distribution p(V | c).
type DCF struct {
	Count int
	P     infotheory.Sparse
}

// SingletonDCF summarizes tuple i of the dataset.
func (ds *Dataset) SingletonDCF(i int) DCF {
	return DCF{Count: 1, P: ds.TupleDistribution(i)}
}

// Merge combines two summaries: cardinalities add, distributions average
// weighted by cardinality.
func Merge(a, b DCF) DCF {
	n := a.Count + b.Count
	wa := float64(a.Count) / float64(n)
	wb := float64(b.Count) / float64(n)
	p := make(infotheory.Sparse, len(a.P)+len(b.P))
	for k, v := range a.P {
		p[k] += wa * v
	}
	for k, v := range b.P {
		p[k] += wb * v
	}
	return DCF{Count: n, P: p}
}

// Representative builds the cluster representative (the DCF of the whole
// cluster) for the given tuple indices by recursively merging singleton
// summaries, exactly as §4.1.2 defines it ("the DCF is computed
// recursively"). The recursion costs O(k²·m) per cluster of k tuples —
// which is why the paper's Figure 7 shows probability-computation time
// growing with the inconsistency factor even at fixed total size.
func (ds *Dataset) Representative(rows []int) (DCF, error) {
	if len(rows) == 0 {
		return DCF{}, fmt.Errorf("probcalc: empty cluster")
	}
	rep := ds.SingletonDCF(rows[0])
	for _, i := range rows[1:] {
		rep = Merge(rep, ds.SingletonDCF(i))
	}
	return rep, nil
}

// Distance measures how far a tuple (as a singleton summary) is from its
// cluster representative. total is the dataset size |T|, used to weight
// the information loss.
type Distance func(tuple, rep DCF, total int) float64

// InformationLoss is the paper's distance (§4.1.3): the loss of mutual
// information I(C;V) when the tuple's summary is merged into the
// representative.
func InformationLoss(tuple, rep DCF, total int) float64 {
	return infotheory.MergeDistanceSparse(tuple.P, rep.P,
		float64(tuple.Count), float64(rep.Count), float64(total))
}

// Assignment is the output of AssignProbabilities for one tuple.
type Assignment struct {
	Row        int     // tuple index in the dataset
	Cluster    string  // cluster identifier
	Distance   float64 // d_t: distance to the cluster representative
	Similarity float64 // s_t = 1 - d_t/S(c)
	Prob       float64 // final probability
}

// AssignProbabilities runs the Figure-5 procedure: for every tuple, its
// distance to its cluster representative, the derived similarity, and the
// final probability. clusterIDs[i] names tuple i's cluster. A nil distance
// uses InformationLoss. Within each cluster the probabilities sum to 1;
// clusters whose members are all identical (total distance 0) fall back to
// the uniform distribution.
func AssignProbabilities(ds *Dataset, clusterIDs []string, d Distance) ([]Assignment, error) {
	return AssignProbabilitiesCtx(context.Background(), ds, clusterIDs, d, 1)
}

// RankCluster returns the assignments of one cluster sorted from most to
// least probable (ties broken by row order); used by the qualitative
// evaluation (Table 4).
func RankCluster(assignments []Assignment, cluster string) []Assignment {
	var out []Assignment
	for _, a := range assignments {
		if a.Cluster == cluster {
			out = append(out, a)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Prob > out[j].Prob })
	return out
}

// MostFrequentValues returns, per attribute, the most frequent raw value
// among the given rows (ties broken by first appearance) — the "most
// frequent values" row of the paper's Table 4.
func (ds *Dataset) MostFrequentValues(rows []int) []string {
	out := make([]string, len(ds.Attrs))
	for a := range ds.Attrs {
		counts := map[string]int{}
		var first []string
		for _, i := range rows {
			_, raw := ds.ValueName(ds.tuples[i][a])
			if counts[raw] == 0 {
				first = append(first, raw)
			}
			counts[raw]++
		}
		best, bestN := "", -1
		for _, raw := range first {
			if counts[raw] > bestN {
				best, bestN = raw, counts[raw]
			}
		}
		out[a] = best
	}
	return out
}

// Tuple returns the raw values of tuple i.
func (ds *Dataset) Tuple(i int) []string {
	out := make([]string, len(ds.Attrs))
	for a, id := range ds.tuples[i] {
		_, out[a] = ds.ValueName(id)
	}
	return out
}
