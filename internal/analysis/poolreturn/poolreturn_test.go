package poolreturn_test

import (
	"testing"

	"scdc/internal/analysis/analysistest"
	"scdc/internal/analysis/poolreturn"
)

func TestPoolReturn(t *testing.T) {
	diags := analysistest.Run(t, "testdata/src", poolreturn.Analyzer, "a")
	if len(diags) != 4 {
		t.Errorf("got %d diagnostics, want 4", len(diags))
	}
}

// TestSeededMutation drops the deferred Put of lossless.flateDecompressInto's
// pooled reader.
func TestSeededMutation(t *testing.T) {
	analysistest.RunMutant(t, poolreturn.Analyzer, "scdc/internal/lossless", "lossless.go",
		`defer flateReaderPool.Put(st)
`,
		``,
		`pool Get \(lossless\.flateReaderPool\) has no matching Put in flateDecompressInto`)
}
