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
	"math"
	"sort"

	"conquer/internal/infotheory"
	"conquer/internal/value"
)

// Dataset is a set of categorical tuples over named attributes, with a
// value vocabulary shared across tuples. Identical values under different
// attributes are distinct (§4.1.1), which the vocabulary realizes by
// keying on (attribute index, category).
type Dataset struct {
	Attrs []string
	n     int   // tuples
	ids   []int // value ids, len(Attrs) per tuple
	vocab map[vkey]int
	names []vkey // id -> key
}

type vkey struct {
	attr int
	v    value.Value // a category
}

// category is v's vocabulary key: the class of the values that print as v
// does, read without printing. A typed column holds only NULL and its
// declared kind (storage.Table.Insert checks it), and within one kind every
// value prints distinctly (-0 as "-0") except NaN, so the class is v itself
// with two exceptions: NULL, which prints as the string "NULL" and keys as
// it, and NaN, every one of which keys as one NaN.
func category(v value.Value) value.Value {
	switch {
	case v.IsNull():
		return nullCategory
	case v.Kind() == value.KindFloat && math.IsNaN(v.AsFloat()):
		return nanCategory
	}
	return v
}

var (
	nullCategory = value.Str("NULL")
	nanCategory  = value.Float(math.NaN())
)

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
	for a, raw := range values {
		ds.add(a, value.Str(raw))
	}
	ds.n++
	return nil
}

// add appends attribute attr's value, the category v, to the tuple being
// added.
func (ds *Dataset) add(attr int, v value.Value) {
	k := vkey{attr: attr, v: v}
	id, ok := ds.vocab[k]
	if !ok {
		id = len(ds.names)
		ds.vocab[k] = id
		ds.names = append(ds.names, k)
	}
	ds.ids = append(ds.ids, id)
}

// Len returns the number of tuples.
func (ds *Dataset) Len() int { return ds.n }

// VocabSize returns |V|, the number of distinct (attribute, value) pairs.
func (ds *Dataset) VocabSize() int { return len(ds.names) }

// ValueName returns the raw string and attribute of vocabulary entry id.
func (ds *Dataset) ValueName(id int) (attr int, raw string) {
	k := ds.names[id]
	return k.attr, k.v.String()
}

// tuple returns tuple i's value ids, one per attribute.
func (ds *Dataset) tuple(i int) []int {
	m := len(ds.Attrs)
	return ds.ids[i*m : (i+1)*m]
}

// TupleDistribution returns p(V | t) for tuple i: 1/m at each of the
// tuple's m attribute values (§4.1.1). The distribution is sparse, so the
// footprint is O(m) however large the vocabulary grows.
func (ds *Dataset) TupleDistribution(i int) infotheory.Sparse {
	return ds.appendTuple(nil, i)
}

// appendTuple appends TupleDistribution(i) to dst. Each attribute keys its
// own values, so a tuple's m ids are distinct; sorting them is all that
// makes the entries a Sparse.
func (ds *Dataset) appendTuple(dst infotheory.Sparse, i int) infotheory.Sparse {
	w := 1 / float64(len(ds.Attrs))
	start := len(dst)
	for _, id := range ds.tuple(i) {
		dst = append(dst, infotheory.Entry{ID: id, P: w})
		for k := len(dst) - 1; k > start && dst[k].ID < dst[k-1].ID; k-- {
			dst[k], dst[k-1] = dst[k-1], dst[k]
		}
	}
	return dst
}

// DCF is a Distributional Cluster Feature (§4.1.2): the cluster's
// cardinality and its (sparse) conditional value distribution p(V | c).
type DCF struct {
	Count int
	P     infotheory.Sparse
}

// merge combines two summaries — cardinalities add, distributions average
// weighted by cardinality — appending the distribution to dst, which must
// not share storage with a.P or b.P. An entry in both is wa·a + wb·b, summed in the
// map form's order: wa·a is rounded before the add, as its first += rounded
// it, and the explicit float64 conversion stops a compiler from fusing that
// product into a multiply-add (Go spec, "Floating-point operators").
func merge(dst infotheory.Sparse, a, b DCF) DCF {
	n := a.Count + b.Count
	wa := float64(a.Count) / float64(n)
	wb := float64(b.Count) / float64(n)
	p, q := a.P, b.P
	for len(p) > 0 && len(q) > 0 {
		switch {
		case p[0].ID < q[0].ID:
			dst = append(dst, infotheory.Entry{ID: p[0].ID, P: wa * p[0].P})
			p = p[1:]
		case p[0].ID > q[0].ID:
			dst = append(dst, infotheory.Entry{ID: q[0].ID, P: wb * q[0].P})
			q = q[1:]
		default:
			dst = append(dst, infotheory.Entry{ID: p[0].ID, P: float64(wa*p[0].P) + wb*q[0].P})
			p, q = p[1:], q[1:]
		}
	}
	for _, e := range p {
		dst = append(dst, infotheory.Entry{ID: e.ID, P: wa * e.P})
	}
	for _, e := range q {
		dst = append(dst, infotheory.Entry{ID: e.ID, P: wb * e.P})
	}
	return DCF{Count: n, P: dst}
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
	return ds.representative(new(scratch), rows), nil
}

// scratch is one worker's buffers, reused from cluster to cluster: the
// representatives a merge reads and writes, which swap after every merge,
// one tuple's distribution, and a cluster's distances.
type scratch struct {
	rep, next, single infotheory.Sparse
	dist              []float64
}

// newScratch sizes the buffers for clusters of up to k tuples, whose
// representatives hold at most k·m values, so that no merge grows them.
func (ds *Dataset) newScratch(k int) scratch {
	m := len(ds.Attrs)
	width := min(k*m, ds.VocabSize())
	return scratch{
		rep:    make(infotheory.Sparse, 0, width),
		next:   make(infotheory.Sparse, 0, width),
		single: make(infotheory.Sparse, 0, m),
		dist:   make([]float64, 0, k),
	}
}

// representative is Representative in sc's buffers: the result is valid
// until sc's next use.
func (ds *Dataset) representative(sc *scratch, rows []int) DCF {
	sc.rep = ds.appendTuple(sc.rep[:0], rows[0])
	rep := DCF{Count: 1, P: sc.rep}
	for _, i := range rows[1:] {
		sc.single = ds.appendTuple(sc.single[:0], i)
		rep = merge(sc.next[:0], rep, DCF{Count: 1, P: sc.single})
		sc.rep, sc.next = rep.P, sc.rep
	}
	return rep
}

// Distance measures how far a tuple (as a singleton summary) is from its
// cluster representative. total is the dataset size |T|, used to weight
// the information loss. tuple and rep are valid only during the call: the
// Figure-5 pass reuses their storage for the next tuple and cluster.
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
			_, raw := ds.ValueName(ds.tuple(i)[a])
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
	for a, id := range ds.tuple(i) {
		_, out[a] = ds.ValueName(id)
	}
	return out
}
