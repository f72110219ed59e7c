package floatcmp_test

import (
	"testing"

	"conquer/internal/analysis/analysistest"
	"conquer/internal/analysis/passes/floatcmp"
)

func TestFloatcmp(t *testing.T) {
	analysistest.Run(t, "testdata", floatcmp.Analyzer, "floatcmpfix")
}

func TestFloatcmpMapKeys(t *testing.T) {
	analysistest.Run(t, "testdata", floatcmp.Analyzer, "floatcmpkeys")
}
