package streamdeterminism_test

import (
	"testing"

	"scdc/internal/analysis/analysistest"
	"scdc/internal/analysis/streamdeterminism"
)

func TestStreamDeterminism(t *testing.T) {
	diags := analysistest.Run(t, "testdata/src", streamdeterminism.Analyzer, "a")
	if len(diags) != 3 {
		t.Errorf("got %d diagnostics, want 3", len(diags))
	}
}

// TestSeededMutation makes entropy.analyzeSparse collect its counts in
// map order instead of over the sorted symbols, so the symbol table and
// the float accumulation follow the randomized iteration.
func TestSeededMutation(t *testing.T) {
	analysistest.RunMutant(t, streamdeterminism.Analyzer, "scdc/internal/entropy", "dist.go",
		`for _, s := range syms {
		c := m[s]`,
		`for s, c := range m {`,
		`iteration over map m`)
}
