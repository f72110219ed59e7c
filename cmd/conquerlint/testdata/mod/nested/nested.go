// Package nested is a module of its own inside the fixture module: the
// "./..." pattern must stop at its go.mod, as the go tool does, so the
// violation below is never reported.
package nested

// Exact compares floats bit-exactly, in a module the run does not cover.
func Exact(a, b float64) bool {
	return a == b
}
