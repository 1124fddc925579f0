package alloccap_test

import (
	"testing"

	"scdc/internal/analysis/alloccap"
	"scdc/internal/analysis/analysistest"
)

func TestAllocCap(t *testing.T) {
	diags := analysistest.Run(t, "testdata/src", alloccap.Analyzer, "a")
	if len(diags) != 1 {
		t.Errorf("got %d diagnostics, want 1", len(diags))
	}
}

// TestSeededMutation drops huffman.parseTableHeader's check of the
// declared table size against the header, so a lying size drives both
// table allocations.
func TestSeededMutation(t *testing.T) {
	analysistest.RunMutant(t, alloccap.Analyzer, "scdc/internal/huffman", "huffman.go",
		`if 2*ntab > uint64(len(hdr))+1 {`,
		`if false {`,
		`derives from ntab with no dominating bound check in parseTableHeader`)
}
