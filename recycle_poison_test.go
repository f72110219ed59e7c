package conquer

import (
	"testing"
	_ "unsafe" // go:linkname
)

// execPoisonRecycled is internal/exec's test hook poisonRecycled: an
// unexported variable by design (no option, flag or environment variable
// turns it on), so a test outside that package reaches it by name.
//
//go:linkname execPoisonRecycled conquer/internal/exec.poisonRecycled
var execPoisonRecycled bool

// poisonRecycledRows makes the executor overwrite every block of row
// storage with a sentinel string before handing it out a second time, for
// the rest of the test: an operator that kept a row of a batch it declared
// transient then returns the sentinel, which no golden digest contains.
func poisonRecycledRows(t *testing.T) {
	execPoisonRecycled = true
	t.Cleanup(func() { execPoisonRecycled = false })
}
