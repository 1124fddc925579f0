package errsentinel_test

import (
	"testing"

	"scdc/internal/analysis/analysistest"
	"scdc/internal/analysis/errsentinel"
)

func TestErrSentinel(t *testing.T) {
	// The stand-in leaf package declares a root and must stay clean; the
	// codec-layer fixture's own root is the fourth diagnostic.
	diags := analysistest.Run(t, "testdata/src", errsentinel.Analyzer, "verdict", "a")
	if len(diags) != 4 {
		t.Errorf("got %d diagnostics, want 4", len(diags))
	}
}
