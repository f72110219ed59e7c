package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of v
// exactly as Python's statistics.quantiles(v, n=4) does (the exclusive
// method), so spreads computed here match the acceptance driver's. A
// single value is its own quartiles; an empty slice gives zeros.
func quartiles(v []float64) (q1, med, q3 float64) {
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// medianOf is the median of get over xs.
func medianOf[T any](xs []T, get func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = get(x)
	}
	return median(v)
}

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of v.
// ok is false when fewer than ten samples lie beyond it: such a tail is
// not reported.
func percentile(v []float64, p float64) (val float64, ok bool) {
	n := len(v)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= 10
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, med, q3 := quartiles(v)
	if med == 0 { // exact zero only guards the division
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// geomean of strictly positive values; 0 when v is empty.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(v)))
}
