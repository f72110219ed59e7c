package bench

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// Quartiles returns the first quartile, median and third quartile of v
// exactly as Python's statistics.quantiles(v, n=4) does (the exclusive
// method) — the statistic benchmark/ reports, so a figure printed here
// and a metric printed there are the same kind of number. A single value
// is its own quartiles and an empty slice gives zeros; two values are
// extrapolated beyond themselves (0.75, 1.5, 2.25 for 1 and 2), as Python
// does, so a spread means something from three repetitions up.
func Quartiles(v []float64) (q1, med, q3 float64) {
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

// sample times every function of fs reps times (at least once) and
// returns each one's wall-clock durations in milliseconds, one per
// repetition, in repetition order. Within a repetition the functions run
// back to back, and the one that goes first rotates from repetition to
// repetition, so that a drift in host speed or a warm cache favours none
// of them. It stops at the first error.
func sample(reps int, fs ...func() error) ([][]float64, error) {
	if reps < 1 {
		reps = 1
	}
	out := make([][]float64, len(fs))
	for r := 0; r < reps; r++ {
		for k := range fs {
			i := (r + k) % len(fs)
			start := time.Now()
			if err := fs[i](); err != nil {
				return nil, err
			}
			out[i] = append(out[i], float64(time.Since(start))/float64(time.Millisecond))
		}
	}
	return out, nil
}

// allocsPerRun returns the heap allocations of one call of f, averaged
// over reps calls (at least one). It reads the runtime's counters, which
// stops the world, so callers keep it out of any timed region.
func allocsPerRun(reps int, f func() error) (float64, error) {
	reps = max(reps, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps), nil
}

// Spread is the median and quartiles of one series: milliseconds for a
// timing, a quotient for a ratio.
type Spread struct {
	Q1, Median, Q3 float64
}

func spreadOf(v []float64) Spread {
	q1, med, q3 := Quartiles(v)
	return Spread{Q1: q1, Median: med, Q3: q3}
}

// ratioOf divides num by den repetition by repetition: each quotient
// compares two runs a few milliseconds apart, so host drift cancels
// inside it.
func ratioOf(num, den []float64) Spread {
	v := make([]float64, len(num))
	for i := range num {
		v[i] = num[i] / den[i]
	}
	return spreadOf(v)
}

// String renders "median [q1–q3]".
func (s Spread) String() string {
	return fmt.Sprintf("%.2f [%.2f–%.2f]", s.Median, s.Q1, s.Q3)
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
