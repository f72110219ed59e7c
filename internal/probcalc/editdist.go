package probcalc

import "fmt"

// The paper notes (§4.1) that when a distance between tuples — such as
// string edit distance — is available, the Figure-5 procedure can
// incorporate it directly. This file provides that alternative: the
// cluster representative becomes the modal tuple (per-attribute most
// frequent values), and distances are computed between raw tuples.

// Levenshtein returns the edit distance (insertions, deletions,
// substitutions) between two strings, operating on bytes.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1              // deletion
			if v := cur[j-1] + 1; v < m { // insertion
				m = v
			}
			if v := prev[j-1] + cost; v < m { // substitution
				m = v
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// NormalizedEditDistance returns Levenshtein(a,b) scaled into [0,1] by the
// longer string's length; two empty strings are at distance 0.
func NormalizedEditDistance(a, b string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	return float64(Levenshtein(a, b)) / float64(n)
}

// TupleDistance measures the distance between two raw tuples.
type TupleDistance func(a, b []string) float64

// AvgEditDistance is the mean normalized edit distance across attributes.
func AvgEditDistance(a, b []string) float64 {
	if len(a) == 0 {
		return 0
	}
	sum := 0.0
	for i := range a {
		sum += NormalizedEditDistance(a[i], b[i])
	}
	return sum / float64(len(a))
}

// AssignProbabilitiesEdit runs the Figure-5 procedure with a tuple-level
// distance: the representative of each cluster is its modal tuple (the
// per-attribute most frequent values), and d measures each member against
// it. A nil d uses AvgEditDistance. The probability normalization is
// identical to AssignProbabilities.
func AssignProbabilitiesEdit(ds *Dataset, clusterIDs []string, d TupleDistance) ([]Assignment, error) {
	if len(clusterIDs) != ds.Len() {
		return nil, fmt.Errorf("probcalc: %d cluster ids for %d tuples", len(clusterIDs), ds.Len())
	}
	if d == nil {
		d = AvgEditDistance
	}
	cs := GroupClusters(clusterIDs)
	out := make([]Assignment, ds.Len())
	var dist []float64
	for c := 0; c < cs.Len(); c++ {
		rows := cs.Rows(c)
		dist = dist[:0]
		if len(rows) > 1 {
			rep := ds.MostFrequentValues(rows)
			for _, i := range rows {
				dist = append(dist, d(ds.Tuple(i), rep))
			}
		}
		figure5(rows, dist, out)
	}
	for i := range out {
		out[i].Cluster = clusterIDs[i]
	}
	return out, nil
}
