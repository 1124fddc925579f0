package hotpath_test

import (
	"testing"

	"scdc/internal/analysis/analysistest"
	"scdc/internal/analysis/hotpath"
)

func TestFixtures(t *testing.T) {
	diags := analysistest.Run(t, "testdata/src", hotpath.Analyzer, "a")
	const want = 8
	if len(diags) != want {
		t.Errorf("got %d diagnostics, want %d", len(diags), want)
	}
}

// TestSeededMutation turns sz3's inverse-kernel table into a map, so the
// hot pass sweep hashes its stencil once per run.
func TestSeededMutation(t *testing.T) {
	analysistest.RunMutant(t, hotpath.Analyzer, "scdc/internal/sz3", "interp_kernel.go",
		`var invKernels = [interp.StCopyLeft + 1]runKernel{`,
		`var invKernels = map[interp.Stencil]runKernel{`,
		`hot function passKern\.sweep accesses a map`)
}
