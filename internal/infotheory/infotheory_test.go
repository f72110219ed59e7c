package infotheory

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// The dense definitions are the oracle chain the sparse form is checked
// against: TestMergeDistanceMatchesDefinition pins MergeDistance to
// I(C;V) − I(C';V) through MutualInformation, and TestSparseMatchesDense
// pins the sparse form to the dense one.

// Entropy returns H(p) = -Σ p_i log2 p_i for a (not necessarily
// normalized) distribution; zero entries contribute nothing.
func Entropy(p []float64) float64 {
	h := 0.0
	for _, x := range p {
		if x > 0 {
			h -= x * math.Log2(x)
		}
	}
	return h
}

// KL returns the Kullback-Leibler divergence D(p || q) = Σ p_i log2
// (p_i/q_i). It is +Inf when q lacks mass somewhere p has it.
func KL(p, q []float64) float64 {
	d := 0.0
	for i, pi := range p {
		if pi <= 0 {
			continue
		}
		if i >= len(q) || q[i] <= 0 {
			return math.Inf(1)
		}
		d += pi * math.Log2(pi/q[i])
	}
	return d
}

// JS is the dense JSSparse: symmetric in (p,w1),(q,w2), finite, and zero
// iff p = q on their common support.
func JS(w1, w2 float64, p, q []float64) float64 {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	m := make([]float64, n)
	for i := range m {
		var pi, qi float64
		if i < len(p) {
			pi = p[i]
		}
		if i < len(q) {
			qi = q[i]
		}
		m[i] = w1*pi + w2*qi
	}
	d := 0.0
	for i := 0; i < n; i++ {
		if i < len(p) && p[i] > 0 {
			d += w1 * p[i] * math.Log2(p[i]/m[i])
		}
		if i < len(q) && q[i] > 0 {
			d += w2 * q[i] * math.Log2(q[i]/m[i])
		}
	}
	return d
}

// MutualInformation returns I(X;Y) for a joint distribution given as
// joint[i][j] = p(x_i, y_j). The joint need not be normalized; it is
// normalized internally.
func MutualInformation(joint [][]float64) float64 {
	total := 0.0
	for _, row := range joint {
		for _, v := range row {
			total += v
		}
	}
	if total <= 0 {
		return 0
	}
	rows := make([]float64, len(joint))
	var cols []float64
	for i, row := range joint {
		for j, v := range row {
			rows[i] += v / total
			for len(cols) <= j {
				cols = append(cols, 0)
			}
			cols[j] += v / total
		}
	}
	mi := 0.0
	for i, row := range joint {
		for j, v := range row {
			p := v / total
			if p > 0 && rows[i] > 0 && cols[j] > 0 {
				mi += p * math.Log2(p/(rows[i]*cols[j]))
			}
		}
	}
	return mi
}

// MergeDistance is the dense MergeDistanceSparse.
func MergeDistance(p1, p2 []float64, n1, n2, total float64) float64 {
	if n1 <= 0 || n2 <= 0 || total <= 0 {
		return 0
	}
	w := n1 + n2
	return w / total * JS(n1/w, n2/w, p1, p2)
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestEntropy(t *testing.T) {
	if got := Entropy([]float64{0.5, 0.5}); !approx(got, 1, 1e-12) {
		t.Errorf("H(fair coin) = %v, want 1", got)
	}
	if got := Entropy([]float64{1, 0, 0}); got != 0 {
		t.Errorf("H(deterministic) = %v, want 0", got)
	}
	if got := Entropy([]float64{0.25, 0.25, 0.25, 0.25}); !approx(got, 2, 1e-12) {
		t.Errorf("H(uniform 4) = %v, want 2", got)
	}
	if got := Entropy(nil); got != 0 {
		t.Errorf("H(empty) = %v", got)
	}
}

func TestKL(t *testing.T) {
	p := []float64{0.5, 0.5}
	if got := KL(p, p); !approx(got, 0, 1e-12) {
		t.Errorf("D(p||p) = %v", got)
	}
	q := []float64{0.75, 0.25}
	if got := KL(p, q); got <= 0 {
		t.Errorf("D(p||q) = %v, want > 0", got)
	}
	if got := KL([]float64{0.5, 0.5}, []float64{1, 0}); !math.IsInf(got, 1) {
		t.Errorf("unsupported mass should give +Inf, got %v", got)
	}
	// Different lengths: missing q entries are zero.
	if got := KL([]float64{0.5, 0.5}, []float64{1}); !math.IsInf(got, 1) {
		t.Errorf("short q should give +Inf, got %v", got)
	}
}

func TestJS(t *testing.T) {
	p := []float64{1, 0}
	q := []float64{0, 1}
	// Equal-weight JS between disjoint distributions is 1 bit.
	if got := JS(0.5, 0.5, p, q); !approx(got, 1, 1e-12) {
		t.Errorf("JS(disjoint) = %v, want 1", got)
	}
	if got := JS(0.5, 0.5, p, p); !approx(got, 0, 1e-12) {
		t.Errorf("JS(p,p) = %v, want 0", got)
	}
	// Symmetry with swapped weights.
	a := []float64{0.7, 0.3}
	b := []float64{0.2, 0.8}
	if got, rev := JS(0.3, 0.7, a, b), JS(0.7, 0.3, b, a); !approx(got, rev, 1e-12) {
		t.Errorf("JS asymmetric: %v vs %v", got, rev)
	}
	// Different lengths are tolerated.
	if got := JS(0.5, 0.5, []float64{1}, []float64{0, 1}); got <= 0 {
		t.Errorf("JS mixed lengths = %v", got)
	}
}

func TestJSNonNegativeBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		p := randDist(rng, n)
		q := randDist(rng, n)
		w1 := rng.Float64()
		got := JS(w1, 1-w1, p, q)
		return got >= -1e-12 && got <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func randDist(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	sum := 0.0
	for i := range out {
		out[i] = rng.Float64()
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

func TestMutualInformation(t *testing.T) {
	// Independent: I = 0.
	indep := [][]float64{{0.25, 0.25}, {0.25, 0.25}}
	if got := MutualInformation(indep); !approx(got, 0, 1e-12) {
		t.Errorf("I(independent) = %v", got)
	}
	// Perfectly correlated binary: I = 1 bit.
	corr := [][]float64{{0.5, 0}, {0, 0.5}}
	if got := MutualInformation(corr); !approx(got, 1, 1e-12) {
		t.Errorf("I(correlated) = %v, want 1", got)
	}
	// Unnormalized input is normalized internally.
	scaled := [][]float64{{5, 0}, {0, 5}}
	if got := MutualInformation(scaled); !approx(got, 1, 1e-12) {
		t.Errorf("I(scaled) = %v, want 1", got)
	}
	if got := MutualInformation(nil); got != 0 {
		t.Errorf("I(empty) = %v", got)
	}
	if got := MutualInformation([][]float64{{0}}); got != 0 {
		t.Errorf("I(zero mass) = %v", got)
	}
}

// MergeDistance must equal the direct I(C;V) - I(C';V) computation.
func TestMergeDistanceMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		nv := 2 + rng.Intn(5)
		p1 := randDist(rng, nv)
		p2 := randDist(rng, nv)
		n1 := float64(1 + rng.Intn(5))
		n2 := float64(1 + rng.Intn(5))
		extra := float64(rng.Intn(5))
		total := n1 + n2 + extra

		// Direct computation: clustering C = {c1, c2, rest} vs merged
		// C' = {c1+c2, rest}. A third cluster with its own value keeps the
		// "rest" mass fixed and cancels in the difference.
		joint := func(merge bool) [][]float64 {
			restRow := make([]float64, nv+1)
			restRow[nv] = extra / total
			r1 := make([]float64, nv+1)
			r2 := make([]float64, nv+1)
			for i := 0; i < nv; i++ {
				r1[i] = n1 / total * p1[i]
				r2[i] = n2 / total * p2[i]
			}
			if merge {
				m := make([]float64, nv+1)
				for i := range m {
					m[i] = r1[i] + r2[i]
				}
				return [][]float64{m, restRow}
			}
			return [][]float64{r1, r2, restRow}
		}
		direct := MutualInformation(joint(false)) - MutualInformation(joint(true))
		fast := MergeDistance(p1, p2, n1, n2, total)
		if !approx(direct, fast, 1e-9) {
			t.Fatalf("trial %d: direct %v != fast %v (n1=%v n2=%v total=%v)",
				trial, direct, fast, n1, n2, total)
		}
	}
}

func TestMergeDistanceProperties(t *testing.T) {
	p := []float64{0.5, 0.5, 0}
	q := []float64{0, 0.5, 0.5}
	if got := MergeDistance(p, p, 1, 3, 6); !approx(got, 0, 1e-12) {
		t.Errorf("merging identical distributions should be free, got %v", got)
	}
	if got := MergeDistance(p, q, 1, 1, 4); got <= 0 {
		t.Errorf("merging different distributions should cost, got %v", got)
	}
	// Degenerate inputs.
	if MergeDistance(p, q, 0, 1, 4) != 0 || MergeDistance(p, q, 1, 1, 0) != 0 {
		t.Error("degenerate cardinalities should return 0")
	}
	// Scaling total down increases the weight (n1+n2)/total.
	d1 := MergeDistance(p, q, 1, 1, 2)
	d2 := MergeDistance(p, q, 1, 1, 8)
	if !(d1 > d2) {
		t.Errorf("smaller total should weight more: %v vs %v", d1, d2)
	}
}

// sparseOf keeps the positive entries of a dense distribution, IDs in
// order.
func sparseOf(p []float64) Sparse {
	var s Sparse
	for i, v := range p {
		if v > 0 {
			s = append(s, Entry{ID: i, P: v})
		}
	}
	return s
}

// The sparse JS and merge-distance must agree with their dense
// counterparts on matching distributions.
func TestSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(8)
		p := randDist(rng, n)
		q := randDist(rng, n)
		// Zero out some entries to create real sparsity.
		for i := range p {
			if rng.Intn(3) == 0 {
				p[i] = 0
			}
			if rng.Intn(3) == 0 {
				q[i] = 0
			}
		}
		ps, qs := sparseOf(p), sparseOf(q)
		w1 := rng.Float64()
		dense := JS(w1, 1-w1, p, q)
		sparse := JSSparse(w1, 1-w1, ps, qs)
		if !approx(dense, sparse, 1e-12) {
			t.Fatalf("trial %d: dense JS %v != sparse %v", trial, dense, sparse)
		}
		n1, n2 := float64(1+rng.Intn(5)), float64(1+rng.Intn(5))
		total := n1 + n2 + float64(rng.Intn(4))
		dm := MergeDistance(p, q, n1, n2, total)
		sm := MergeDistanceSparse(ps, qs, n1, n2, total)
		if !approx(dm, sm, 1e-12) {
			t.Fatalf("trial %d: dense merge %v != sparse %v", trial, dm, sm)
		}
	}
}

// jsSortedMap is JSSparse as it was over map[int]float64 distributions:
// p's terms then q's, each in sorted key order, folded into one sum.
func jsSortedMap(w1, w2 float64, p, q map[int]float64) float64 {
	sorted := func(m map[int]float64) []int {
		keys := make([]int, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		return keys
	}
	d := 0.0
	for _, k := range sorted(p) {
		m := w1*p[k] + w2*q[k]
		d += w1 * p[k] * math.Log2(p[k]/m)
	}
	for _, k := range sorted(q) {
		m := w1*p[k] + w2*q[k]
		d += w2 * q[k] * math.Log2(q[k]/m)
	}
	return d
}

// JSSparse's two merge passes fold the same terms in the same order as
// the map form did, so its result is bit-identical to it — not merely
// within epsilon — on supports that overlap in part, in whole or not at
// all.
func TestJSSparseBitIdenticalToSortedMapFold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		ps, qs := Sparse{}, Sparse{}
		pm, qm := map[int]float64{}, map[int]float64{}
		for id := 0; id < 40; id++ {
			if rng.Intn(3) == 0 {
				v := rng.Float64()
				ps, pm[id] = append(ps, Entry{ID: id, P: v}), v
			}
			if rng.Intn(3) == 0 {
				v := rng.Float64()
				qs, qm[id] = append(qs, Entry{ID: id, P: v}), v
			}
		}
		w1 := rng.Float64()
		got, want := JSSparse(w1, 1-w1, ps, qs), jsSortedMap(w1, 1-w1, pm, qm)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: JSSparse %v, sorted map fold %v", trial, got, want)
		}
	}
}

func TestSparseAt(t *testing.T) {
	s := Sparse{{ID: 1, P: 0.25}, {ID: 4, P: 0.5}, {ID: 9, P: 0.25}}
	for id, want := range map[int]float64{0: 0, 1: 0.25, 2: 0, 4: 0.5, 9: 0.25, 10: 0} {
		if got := s.At(id); got != want {
			t.Errorf("At(%d) = %v, want %v", id, got, want)
		}
	}
	if got := Sparse(nil).At(3); got != 0 {
		t.Errorf("empty At = %v", got)
	}
}

func TestSparseDegenerate(t *testing.T) {
	if got := JSSparse(0.5, 0.5, Sparse{}, Sparse{}); got != 0 {
		t.Errorf("JS of empty distributions = %v", got)
	}
	one := Sparse{{ID: 0, P: 1}}
	if got := MergeDistanceSparse(one, one, 0, 1, 2); got != 0 {
		t.Error("degenerate cardinality should be 0")
	}
	if got := MergeDistanceSparse(one, one, 1, 1, 2); !approx(got, 0, 1e-12) {
		t.Errorf("identical sparse distributions should merge for free, got %v", got)
	}
}
