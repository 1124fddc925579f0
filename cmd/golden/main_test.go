package main

import "testing"

// TestCorpusMatchesGenerators runs the verify mode: every pin that the
// current encoders write must equal the committed stream byte for byte,
// and every decode-only pin must still decode to its pinned samples. A
// codec change that moves any stream fails here, under `go test ./...`,
// and not only under a manual `go run ./cmd/golden`.
func TestCorpusMatchesGenerators(t *testing.T) {
	if err := run("../../testdata/golden", false); err != nil {
		t.Fatal(err)
	}
}
