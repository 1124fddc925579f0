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

// TestSeededMutation formats flate's own error with %v in
// lossless.flateDecompressInto: the verdict still wraps, but errors.Is
// can no longer see the cause.
func TestSeededMutation(t *testing.T) {
	analysistest.RunMutant(t, errsentinel.Analyzer, "scdc/internal/lossless", "lossless.go",
		`if _, err := io.ReadFull(st.r, dst); err != nil {
		return fmt.Errorf("%w: lossless: flate: %w", verdict.ErrCorrupt, err)`,
		`if _, err := io.ReadFull(st.r, dst); err != nil {
		return fmt.Errorf("%w: lossless: flate: %v", verdict.ErrCorrupt, err)`,
		`formatted with %v in decode path flateDecompressInto`)
}
