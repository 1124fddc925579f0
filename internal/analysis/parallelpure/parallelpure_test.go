package parallelpure_test

import (
	"testing"

	"scdc/internal/analysis/analysistest"
	"scdc/internal/analysis/parallelpure"
)

func TestFixtures(t *testing.T) {
	diags := analysistest.Run(t, "testdata/src", parallelpure.Analyzer, "a")
	// The fixture holds exactly the violations annotated with want
	// comments; pin the count so silently-dropped checks are loud.
	const want = 10
	if len(diags) != want {
		t.Errorf("got %d diagnostics, want %d", len(diags), want)
	}
}

// The stand-in pool package itself uses the disjoint-slot idiom and must
// stay clean, or the blindness guard would misattribute its diagnostics.
func TestStandInClean(t *testing.T) {
	diags := analysistest.Run(t, "testdata/src", parallelpure.Analyzer, "parallel")
	if len(diags) != 0 {
		t.Errorf("stand-in parallel package: got %d diagnostics, want 0", len(diags))
	}
}

// TestSeededMutation makes huffman.encodeShards append each shard to the
// captured directory instead of writing its own slot, so workers race on
// the slice header and shards land in completion order.
func TestSeededMutation(t *testing.T) {
	analysistest.RunMutant(t, parallelpure.Analyzer, "scdc/internal/huffman", "sharded.go",
		`dir[i] = shard.Shard{N: len(part), Body: b.B, Buf: b}`,
		`dir = append(dir, shard.Shard{N: len(part), Body: b.B, Buf: b})`,
		`writes captured variable "dir"`)
}
