// Package floatcmpkeys seeds floating-point map keys.
package floatcmpkeys

type answer struct {
	prob float64
	rank int
	name string
}

func countByProb(answers []answer) map[float64]int {
	counts := make(map[float64]int)
	ranks := make(map[int]int)
	for _, a := range answers {
		counts[a.prob]++ // want `floating-point map key`
		ranks[a.rank]++  // integer key: fine
	}
	return counts
}

func lookup(counts map[float64]int, p float64) int {
	return counts[p*2] // want `floating-point map key`
}

func byName(answers []answer) map[string]float64 {
	probs := make(map[string]float64)
	for _, a := range answers {
		probs[a.name] += a.prob // string key, float value: fine
	}
	return probs
}

func sliceIndex(probs []float64, i int) float64 {
	return probs[i] // slice index, not a map key: fine
}

func allowed(seen map[float64]bool, p float64) bool {
	return seen[p] //lint:allow floatcmp -- keys are canonical constants
}
