// Package infotheory provides the information-theoretic quantities behind
// the paper's tuple-probability computation (§4.1.3): the weighted
// Jensen-Shannon divergence of two distributional summaries and the
// information-loss distance δI incurred when they are merged — the
// distance measure of the LIMBO clustering framework that the paper
// adopts. The dense definitions they are checked against (entropy, mutual
// information, KL) live in the package's tests.
//
// All logarithms are base 2; quantities are in bits.
package infotheory

import (
	"math"
	"sort"
)

// Entry is one nonzero coordinate of a Sparse distribution.
type Entry struct {
	ID int
	P  float64
}

// Sparse is a sparse probability distribution: its nonzero entries,
// sorted by ID with no ID twice. Absent IDs are zero, so the footprint is
// the support, however large the ID space.
type Sparse []Entry

// At returns the probability of id: 0 when id is absent.
func (s Sparse) At(id int) float64 {
	i := sort.Search(len(s), func(i int) bool { return s[i].ID >= id })
	if i < len(s) && s[i].ID == id {
		return s[i].P
	}
	return 0
}

// JSSparse returns the weighted Jensen-Shannon divergence
//
//	JS_{w1,w2}(p, q) = w1·D(p || m) + w2·D(q || m),  m = w1·p + w2·q
//
// with w1 + w2 = 1, over sparse distributions: entries absent from both
// contribute nothing, so the cost is O(|p| + |q|) regardless of the ID
// space. It makes two merge passes into one sum, p's terms then q's, each
// in ID order: float addition is not associative, so a fixed term order is
// what keeps every distance (and everything built on it) bit-reproducible,
// serial or parallel.
func JSSparse(w1, w2 float64, p, q Sparse) float64 {
	d, j := 0.0, 0
	for _, e := range p {
		if e.P <= 0 {
			continue
		}
		var qk float64
		j, qk = seek(q, j, e.ID)
		m := w1*e.P + w2*qk
		d += w1 * e.P * math.Log2(e.P/m)
	}
	j = 0
	for _, e := range q {
		if e.P <= 0 {
			continue
		}
		var pk float64
		j, pk = seek(p, j, e.ID)
		m := w1*pk + w2*e.P
		d += w2 * e.P * math.Log2(e.P/m)
	}
	return d
}

// seek advances j past s's entries below id, for a caller visiting ids in
// increasing order, and returns it with s's probability at id.
func seek(s Sparse, j, id int) (int, float64) {
	for j < len(s) && s[j].ID < id {
		j++
	}
	if j < len(s) && s[j].ID == id {
		return j, s[j].P
	}
	return j, 0
}

// MergeDistanceSparse returns the information loss δI(s1, s2) = I(C;V) −
// I(C';V) incurred by merging two distributional summaries, where s1 and
// s2 carry n1 and n2 tuples out of total tuples overall, and p1, p2 are
// their conditional value distributions p(V|s). Expanding the definition
// gives
//
//	δI = (n1+n2)/total · JS_{n1/(n1+n2), n2/(n1+n2)}(p1, p2)
//
// which is how it is computed (no full joint needed).
func MergeDistanceSparse(p1, p2 Sparse, n1, n2, total float64) float64 {
	if n1 <= 0 || n2 <= 0 || total <= 0 {
		return 0
	}
	w := n1 + n2
	return w / total * JSSparse(n1/w, n2/w, p1, p2)
}
