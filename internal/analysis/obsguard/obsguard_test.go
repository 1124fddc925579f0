package obsguard_test

import (
	"testing"

	"scdc/internal/analysis/analysistest"
	"scdc/internal/analysis/obsguard"
)

func TestObsGuard(t *testing.T) {
	diags := analysistest.Run(t, "testdata/src", obsguard.Analyzer, "a")
	if len(diags) != 6 {
		t.Errorf("got %d diagnostics, want 6", len(diags))
	}
}

// TestSeededMutation gives core.DecompressLossless an early error return
// between starting its "lossless" span and ending it.
func TestSeededMutation(t *testing.T) {
	analysistest.RunMutant(t, obsguard.Analyzer, "scdc/internal/core", "lossless.go",
		`buf, err := lossless.DecompressLimit(payload, maxOut)
`,
		`buf, err := lossless.DecompressLimit(payload, maxOut)
	if err != nil {
		return nil, err
	}
`,
		`return before sp.End\(\) in DecompressLossless`)
}
