package poolreturn_test

import (
	"testing"

	"scdc/internal/analysis/analysistest"
	"scdc/internal/analysis/poolreturn"
)

func TestPoolReturn(t *testing.T) {
	diags := analysistest.Run(t, "testdata/src", poolreturn.Analyzer, "a")
	if len(diags) != 6 {
		t.Errorf("got %d diagnostics, want 6", len(diags))
	}
}

// TestSeededMutation drops the deferred Put of the pooled inflater tables
// in lossless.flateDecompressInto.
func TestSeededMutation(t *testing.T) {
	analysistest.RunMutant(t, poolreturn.Analyzer, "scdc/internal/lossless", "lossless.go",
		`defer inflaterPool.Put(f)
`,
		``,
		`pool Get \(lossless\.inflaterPool\) has no matching Put in flateDecompressInto`)
}
