// Package maporderfix seeds order-sensitive computation over map ranges.
package maporderfix

import "sort"

// jsTerms mimics the original JSSparse bug: folding float terms in map
// order.
func jsTerms(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum += v // want `float accumulation into sum in map-iteration order`
	}
	return sum
}

// viaTemp launders the iteration value through a temporary; taint
// tracking still sees it.
func viaTemp(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		scaled := v * 0.5
		total += scaled // want `float accumulation into total in map-iteration order`
	}
	return total
}

// selfAssign uses the s = s + v spelling instead of +=.
func selfAssign(m map[string]float64) float64 {
	s := 0.0
	for _, v := range m {
		s = s + v // want `float accumulation into s in map-iteration order`
	}
	return s
}

// unsortedKeys appends map keys and returns them unsorted: the output
// order is randomized.
func unsortedKeys(m map[string]float64) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys in map-iteration order`
	}
	return keys
}

// sortedKeys is the sanctioned collect-then-sort idiom.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // compliant: sorted below
	}
	sort.Strings(keys)
	return keys
}

// perKeyWrite updates one entry per iteration; order cannot matter.
func perKeyWrite(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] += v * 0.5 // compliant: indexed by the range key
	}
}

// perIterationTemp re-initializes the accumulator every iteration.
func perIterationTemp(m map[string][]float64) []float64 {
	var sums []float64
	for _, vs := range m {
		s := 0.0
		for _, v := range vs {
			s += v // compliant: vs is a slice; s reset per map iteration
		}
		sums = append(sums, s) // want `append to sums in map-iteration order`
	}
	return sums
}

// constantFold accumulates a constant: the terms are identical, so any
// order sums to the same value.
func constantFold(m map[string]float64) float64 {
	n := 0.0
	for range m {
		n += 1.0 // compliant: nothing iteration-derived
	}
	return n
}

// sliceRange is not a map range at all.
func sliceRange(vs []float64) float64 {
	sum := 0.0
	for _, v := range vs {
		sum += v // compliant: slice iteration order is fixed
	}
	return sum
}

// allowed documents a deliberate order-insensitive fold.
func allowed(m map[string]float64) float64 {
	max := 0.0
	for _, v := range m {
		//lint:allow maporder -- max is order-insensitive, fold kept simple
		max += v
	}
	return max
}

// nestedMaps folds the values of a map of maps: the statement sits in
// two map ranges and is reported once.
func nestedMaps(m map[string]map[string]float64) float64 {
	sum := 0.0
	for _, inner := range m {
		for _, v := range inner {
			sum += v // want `float accumulation into sum in map-iteration order`
		}
	}
	return sum
}

// capturedInLiteral folds in map order inside a function literal, into
// a variable the literal captures from its enclosing function.
func capturedInLiteral(m map[string]float64) float64 {
	t := 0.0
	fold := func() {
		for _, v := range m {
			t += v // want `float accumulation into t in map-iteration order`
		}
	}
	fold()
	return t
}

// resetInside declares its accumulator outside the range and resets it
// at the top of each iteration. An accumulator declared outside the
// range is treated as carried; declare it inside instead.
func resetInside(dst map[string]float64, m map[string][]float64) {
	var s float64
	for k, vs := range m {
		s = 0
		for _, v := range vs {
			s += v // want `float accumulation into s in map-iteration order`
		}
		dst[k] = s
	}
}

// firstPositive returns the key of whichever positive entry the random
// order visits first.
func firstPositive(m map[string]float64) string {
	for k, v := range m {
		if v > 0 {
			return k // want `return of an iteration-derived value in map-iteration order`
		}
	}
	return ""
}

// describeFirst launders the key through a temporary before returning it.
func describeFirst(m map[string]int) (string, bool) {
	for k, n := range m {
		if n > 1 {
			msg := "duplicate " + k
			return msg, false // want `return of an iteration-derived value in map-iteration order`
		}
	}
	return "", true
}

// firstNested returns from two map ranges and is reported once.
func firstNested(m map[string]map[string]int) int {
	for _, inner := range m {
		for _, n := range inner {
			return n // want `return of an iteration-derived value in map-iteration order`
		}
	}
	return 0
}

// anyNegative returns constants only: every order finds some negative
// entry when there is one, so the answer is the same.
func anyNegative(m map[string]float64) bool {
	for _, v := range m {
		if v < 0 {
			return true // compliant: nothing iteration-derived
		}
	}
	return false
}

// returnsOuter returns a value fixed before the range.
func returnsOuter(m map[string]float64, limit int) int {
	for _, v := range m {
		if v > 1 {
			return limit // compliant: limit is not derived from the iteration
		}
	}
	return 0
}

// returnInLiteral returns from a function literal inside the range: the
// return leaves the literal, not the loop.
func returnInLiteral(m map[string]float64) int {
	n := 0
	for _, v := range m {
		positive := func() bool { return v > 0 } // compliant: returns from the literal
		if positive() {
			n++
		}
	}
	return n
}

// firstInSlice ranges over a slice, whose order is fixed.
func firstInSlice(vs []float64) float64 {
	for _, v := range vs {
		if v > 0 {
			return v // compliant: slice iteration order is fixed
		}
	}
	return 0
}

// allowedReturn documents a lookup whose match is unique.
func allowedReturn(m map[string]int, want int) string {
	for k, n := range m {
		if n == want {
			//lint:allow maporder -- values are unique, so one entry matches
			return k
		}
	}
	return ""
}
